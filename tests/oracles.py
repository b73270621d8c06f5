"""Independent reference implementations used to cross-check the detectors.

These deliberately reimplement the metrics with explicit loops and
numpy-level reductions so they share no code path with the implementations
under test (beyond the fixed group-1 alignment rule, which is configuration,
not a search, the 2-bit cell's phase levels ``ris.PHI_INFO`` and
``ris.PHI_POWER``, and the two reflecting groups' cascades of
``channel.group_cascades``, which the golden digests pin). A reflection is
the 2-vector [assist, information] over those cascades: the absorbers never
reflect. The scalar :func:`jacobian_log_sum` step
defines the LLR recursion, :func:`closest_phase` the phase quantizer, and
:func:`loop_trial` runs one trial alone, block by block, for comparison with
trial batches, :func:`broadcast_slot_costs` forms every slot-cost difference
at once and sums over the antennas with ``np.sum``, whose order the kernel,
which forms them one antenna at a time, follows,
:func:`loop_constellation_points` labels the symbol points one at a time, and
:func:`rectenna_cap_w` gives a rectifier's saturated output.
:func:`codewords` and :func:`codeword_index` read a codebook as the paper's
1-based slot tuples. :func:`expected_dc_ris` computes the surface's mean
harvest from the channel statistics, with no draw.
"""

import itertools
import math

import numpy as np

from timsr.channel import group_cascades
from timsr.ris import (
    PHI_INFO,
    PHI_POWER,
    align_group1,
    clc_dc_power,
    harvest_inputs,
    make_ris_state,
    ris_rectenna_input,
)
from timsr.rx import llr_detect, ml_joint_detect, observe, unit_noise
from timsr.sim import trial_rng
from timsr.txphy import encode_block

TWO_PI = 2.0 * math.pi


def codewords(codebook):
    """The codebook's codewords as strictly increasing 1-based slot tuples,
    in codebook order."""
    return tuple(tuple(int(s) + 1 for s in row) for row in codebook.slot_index)


def codeword_index(codebook, codeword) -> int:
    """Row of the 1-based ``codeword`` in the codebook, found by a linear
    scan; ``ValueError`` if it is not a codeword."""
    return codewords(codebook).index(tuple(codeword))


def wrap_angle(x: float) -> float:
    """Wrap to (-pi, pi]."""
    return -((-x + math.pi) % TWO_PI - math.pi)


def closest_phase(target: float, candidates) -> float:
    """Candidate minimizing the squared wrapped distance to ``target``;
    ties resolve to the earliest candidate."""
    best = None
    best_d = math.inf
    for c in candidates:
        d = wrap_angle(c - target) ** 2
        if d < best_d:
            best, best_d = c, d
    return float(best)


def loop_align_group1(channel, n1, phase_pair):
    """The assist-group phase of one block, whose first ``n1`` cells assist:
    the circular mean of the co-phasing angles, quantized by
    :func:`closest_phase` in a loop."""
    cascade = channel.G_d[0, :n1] * channel.h_r[:n1]
    if cascade.size == 0:
        return float(phase_pair[0])
    desired = np.angle(cascade) - np.angle(channel.h_d[0])
    return closest_phase(float(np.angle(np.exp(1j * desired).sum())), phase_pair)


def loop_trial(ctx, layouts, sigma2s, trial_index):
    """One trial at every grid point, one block at a time on a fresh stream:
    the per-trial loop that trial batches replace. Returns one tuple per
    point in ``timsr.sim.Tally`` field order, layout-major."""
    cfg = ctx.cfg
    rng = trial_rng(cfg.seed, trial_index)
    drawn = ctx.channel_model.realize(rng.standard_normal(ctx.channel_model.n_normals))
    eta_r = ctx.codebook.bits_index
    eta = eta_r + cfg.l_slots * ctx.constellation.bits_per_symbol
    bits = rng.integers(0, 2, size=eta)
    ris_bit = int(rng.integers(0, 2))
    shape = (cfg.k_slots, cfg.m_rx)
    noise = unit_noise(shape, rng.standard_normal((2,) + shape)) if sigma2s else None
    frame = encode_block(bits, ctx.codebook, ctx.constellation, cfg.p_low_w, cfg.p_high_w,
                         cfg.omega_phase_rad)
    detect = ml_joint_detect if cfg.detector == "ml" else llr_detect
    records = []
    for split in layouts:
        n1, n2 = split
        ris = make_ris_state(drawn, n1, ris_bit)
        q_ris = ris_rectenna_input(drawn.h_r[n1:n1 + n2], np.abs(frame.samples) ** 2)
        dc_ris = float(np.mean(clc_dc_power(q_ris, ctx.ris_model)))
        _, (q_eh,) = harvest_inputs(drawn, n1, (n2,), ris, frame.tau, frame.samples)
        dc_eh = float(np.mean(clc_dc_power(q_eh, ctx.eh_model)))
        harvest = (dc_ris, dc_eh, dc_ris >= ctx.p_ris_rf_w, dc_ris >= ctx.p_ris_var_w)
        if not sigma2s:
            records.append(harvest + (0,) * 6)
        for s2 in sigma2s:
            obs = observe(drawn, split, frame, ris).with_noise(s2, noise)
            det = detect(obs, ctx.codebook, ctx.constellation, frame.omega, cfg.p_low_w,
                         cfg.paper_compat)
            wrong = det.ptx_bits != bits
            records.append(harvest + (int(np.count_nonzero(wrong)), eta,
                                      int(np.count_nonzero(wrong[:eta_r])), eta_r,
                                      int(det.ris_bit != ris_bit), 1))
    return records


def jacobian_log_sum(a: float, b: float) -> float:
    """ln(e^a + e^b) without overflow: max(a, b) + ln(1 + e^-|a-b|)."""
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    return max(a, b) + math.log1p(math.exp(-abs(a - b)))


def direct_log_sum_exp(values) -> float:
    values = np.asarray(values, dtype=float)
    m = float(values.max())
    if m == -math.inf:
        return -math.inf
    return m + float(np.log(np.sum(np.exp(values - m))))


def info_reflection(group1_phase, info_phase):
    """Reflection [assist, information] of an information slot: the assist
    phase, the information phase."""
    return np.array([np.exp(-1j * group1_phase), np.exp(-1j * info_phase)], dtype=complex)


def power_reflection():
    """Reflection [assist, information] of a power slot: the power phase on
    both reflecting groups."""
    p = np.exp(-1j * PHI_POWER)
    return np.array([p, p], dtype=complex)


def _effective(ch, split, group1_phase):
    n1, n2 = split
    f_casc = group_cascades(ch.G_d, ch.h_r, n1, (n2,))[0]
    eff_info = [ch.h_d + f_casc @ info_reflection(group1_phase, th) for th in PHI_INFO]
    eff_power = ch.h_d + f_casc @ power_reflection()
    return eff_info, eff_power


def naive_joint_search(obs, channel, split, codebook, constellation, omega, p_info_w):
    """Exhaustive loop minimization in (codeword, phase, symbol-vector) order
    with a strict first-found minimum. Returns (codeword, phase index,
    symbol labels, metric)."""
    g1 = align_group1(channel, split[0], PHI_INFO)
    eff_info, eff_power = _effective(channel, split, g1)
    amp = math.sqrt(p_info_w)
    m = constellation.m_order
    k_slots = codebook.k_slots

    best = None
    best_metric = math.inf
    for cw in codewords(codebook):
        for c in range(len(PHI_INFO)):
            for labels in itertools.product(range(m), repeat=codebook.l_slots):
                metric = 0.0
                for k in range(k_slots):
                    if (k + 1) in cw:
                        s = amp * constellation.points[labels[cw.index(k + 1)]]
                        metric += float(np.linalg.norm(obs.y[k] - eff_info[c] * s) ** 2)
                    else:
                        metric += float(np.linalg.norm(obs.y[k] - eff_power * omega) ** 2)
                if metric < best_metric:
                    best = (cw, c, labels)
                    best_metric = metric
    return best[0], best[1], best[2], best_metric


def naive_symbol_phase(obs, channel, split, slots, constellation, p_info_w):
    """Full product search over (phase, symbol vector) for fixed 0-based
    slots, in (phase, labels) order with a strict first-found minimum."""
    g1 = align_group1(channel, split[0], PHI_INFO)
    eff_info, _ = _effective(channel, split, g1)
    amp = math.sqrt(p_info_w)
    m = constellation.m_order

    best = None
    best_metric = math.inf
    for c in range(len(PHI_INFO)):
        for labels in itertools.product(range(m), repeat=len(slots)):
            metric = 0.0
            for pos, slot in enumerate(slots):
                s = amp * constellation.points[labels[pos]]
                metric += float(np.linalg.norm(obs.y[slot] - eff_info[c] * s) ** 2)
            if metric < best_metric:
                best = (c, labels)
                best_metric = metric
    return best[0], best[1], best_metric


def direct_llr(obs, channel, split, constellation, omega, k_slots, l_slots, p_info_w):
    """Per-slot LLR recomputed from the raw definition with a vector
    log-sum-exp instead of the pairwise recursion."""
    g1 = align_group1(channel, split[0], PHI_INFO)
    eff_info, eff_power = _effective(channel, split, g1)
    amp = math.sqrt(p_info_w)
    prior = math.log(l_slots**2) - math.log((k_slots - l_slots) ** 2)

    llr = np.empty(k_slots)
    for k in range(k_slots):
        xi = []
        for c in range(len(PHI_INFO)):
            for i in range(constellation.m_order):
                s = amp * constellation.points[i]
                xi.append(-float(np.linalg.norm(obs.y[k] - eff_info[c] * s) ** 2) / obs.sigma2)
        delta_p = -float(np.linalg.norm(obs.y[k] - eff_power * omega) ** 2) / obs.sigma2
        llr[k] = prior + direct_log_sum_exp(xi) - delta_p
    return llr


def loop_bases(pow_cost, codebook, paper_compat=False):
    """Each codeword's (A,) power-slot base, one codeword at a time: the
    power costs of all K slots less those of its L slots, or 0.0 under
    ``paper_compat``."""
    total_pow = float(pow_cost.sum())
    return np.array([0.0 if paper_compat else total_pow - float(pow_cost[np.asarray(cw) - 1].sum())
                     for cw in codewords(codebook)])


def loop_joint_metric(info_cost, pow_cost, codebook, paper_compat=False):
    """The (A, J, M^L) joint-ML metric built one codeword and one phase at a
    time: the power-slot base of :func:`loop_bases`, then each slot's (M,)
    costs outer-added in slot order, earliest slot most significant."""
    j, m, _ = info_cost.shape
    metric = np.empty((len(codebook.slot_index), j, m**codebook.l_slots))
    bases = loop_bases(pow_cost, codebook, paper_compat)
    for a, cw in enumerate(codewords(codebook)):
        slots0 = np.asarray(cw, dtype=np.int64) - 1
        for c in range(j):
            t = np.array([bases[a]])
            for s0 in slots0:
                t = (t[:, None] + info_cost[c, :, s0][None, :]).ravel()
            metric[a, c, :] = t
    return metric


def recursive_llr(info_cost, pow_cost, sigma2, k_slots, l_slots, paper_compat=False):
    """Per-slot LLRs with the information evidence folded pairwise by
    :func:`jacobian_log_sum` over (phase, symbol) pairs, phase-major."""
    xi = -info_cost / sigma2
    delta_p = -pow_cost if paper_compat else -pow_cost / sigma2
    prior = math.log(l_slots**2)
    prior -= math.log((k_slots - l_slots) ** 2) if k_slots > l_slots else -math.inf
    j, m, _ = info_cost.shape
    llr = np.empty(k_slots)
    for k in range(k_slots):
        delta_i = xi[0, 0, k]
        for c in range(j):
            for i in range(m):
                if c == 0 and i == 0:
                    continue
                delta_i = jacobian_log_sum(delta_i, xi[c, i, k])
        llr[k] = prior + delta_i - delta_p[k]
    return llr


def per_call_sample_rician(spec, rows, cols, rng):
    """Rician fades with the line-of-sight term exp(j*theta_los) recomputed
    over every entry on every call, from the spec's phases alone."""
    shape = (rows, cols)
    nlos = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    los = np.exp(1j * np.broadcast_to(np.asarray(spec.los_phase, dtype=float), shape))
    k = spec.kappa
    mix = math.sqrt(k / (k + 1.0)) * los + math.sqrt(1.0 / (k + 1.0)) * nlos
    return math.sqrt(spec.path_gain) * mix


def per_call_links(model, rng):
    """The five link draws of ``ChannelModel.realize`` in its draw order,
    each from :func:`per_call_sample_rician`."""
    m, n = model.m_rx, model.n_cells
    shapes = {"h_d": (m, 1), "h_r": (n, 1), "G_d": (m, n), "h_e": (1, 1), "g_e": (n, 1)}
    return {name: per_call_sample_rician(model.specs[name], *shape, rng)
            for name, shape in shapes.items()}


def expected_dc_ris(ctx, n2):
    """The mean over blocks of the surface's per-block DC power in watts at
    ``n2`` absorbers beside ``cfg.n1`` assist cells, computed rather than
    sampled. The absorber sum of the transmitter->surface link is complex
    Gaussian: mean sqrt(g) * (sum of its LoS terms ``los`` over the
    absorbers' cells) and variance g * n2 / (kappa + 1). Its expectation of
    ``clc_dc_power`` at each slot's power, a 2-D Gauss-Hermite integral over
    the sum's real and imaginary parts, is weighted over the K - L power
    slots at ``p_high_w`` and the L information slots at ``p_low_w * |x|^2``,
    every constellation point x equally likely."""
    cfg, spec = ctx.cfg, ctx.channel_model.specs["h_r"]
    los = np.broadcast_to(spec.los, (cfg.n_cells, 1))[cfg.n1:cfg.n1 + n2, 0]
    mean = math.sqrt(spec.path_gain) * np.sum(los)
    x, w = np.polynomial.hermite.hermgauss(64)
    # S = mean + sqrt(var) * (x_i + j x_j) with weight w_i w_j / pi
    scale = math.sqrt(spec.path_gain * n2 / (spec.kappa + 1.0))
    gain = np.abs(mean + scale * (x[:, None] + 1j * x[None, :])) ** 2
    weight = w[:, None] * w[None, :] / math.pi

    def level(power_w):
        return float(np.sum(weight * clc_dc_power(gain * power_w, ctx.ris_model)))

    k, l_slots = cfg.k_slots, cfg.l_slots
    info = np.mean([level(cfg.p_low_w * abs(p) ** 2) for p in ctx.constellation.points])
    return ((k - l_slots) * level(cfg.p_high_w) + l_slots * info) / k


def rectenna_cap_w(model):
    """The most DC power a constant-linear-constant rectifier gives: its
    efficiency times the span of its linear region."""
    return model.efficiency * (model.p_sat_w - model.p_on_w)


def slot_rectenna_input(h_r2, s_k):
    """Surface rectenna input of one slot: |sum_n h_r2[n] * s_k|^2."""
    if np.size(h_r2) == 0:
        return 0.0
    return float(np.abs(np.sum(np.asarray(h_r2) * s_k)) ** 2)


def slot_eh_received(channel, split, psi, s_k):
    """Harvester sample and rectenna input of one slot under reflection
    ``psi`` of the cell split ``split``: h_e * s_k + (v_casc . psi) * s_k."""
    n1, n2 = split
    v_casc = group_cascades(channel.g_e[None, :], channel.h_r, n1, (n2,))[0, 0]
    eps = channel.h_e * s_k + (v_casc @ psi) * s_k
    return complex(eps), float(np.abs(eps) ** 2)


def broadcast_slot_costs(obs, constellation, p_info_w, omega):
    """The slot costs of ``rx.slot_costs`` as one broadcast expression: the
    real and imaginary differences (..., J, M, K, M_R) from strided views of
    the samples and candidates, squared, added and summed over the antenna
    axis by ``np.sum``; any leading point axis of the samples broadcasts."""
    scaled = math.sqrt(p_info_w) * constellation.points
    cand = (obs.eff[..., :-1, None, :] * scaled[:, None])[..., None, :]   # (..., J, M, 1, M_R)
    y = obs.y[..., None, None, :, :]                                      # (..., 1, 1, K, M_R)
    sq = (y.real - cand.real) ** 2 + (y.imag - cand.imag) ** 2
    dp = obs.y - obs.eff[..., -1:, :] * omega
    return np.sum(sq, axis=-1), np.sum(dp.real**2 + dp.imag**2, axis=-1)


def loop_constellation_points(m_order, kind):
    """Gray-labeled M-PSK or square M-QAM points, one label at a time: the
    label of PSK point k is gray(k), that of QAM point (ki, kq) is gray(ki)
    followed by gray(kq); QAM is scaled to unit average power."""
    def gray(n):
        return n ^ (n >> 1)

    points = np.zeros(m_order, dtype=complex)
    if kind == "psk" or m_order == 2:
        for k in range(m_order):
            points[gray(k)] = np.exp(2j * np.pi * k / m_order)
    else:
        side = math.isqrt(m_order)
        levels = np.arange(-(side - 1), side, 2, dtype=float)
        half = side.bit_length() - 1
        for ki in range(side):
            for kq in range(side):
                points[(gray(ki) << half) | gray(kq)] = levels[ki] + 1j * levels[kq]
        points /= np.sqrt(np.mean(np.abs(points) ** 2))
    return points
