"""Independent reference implementations used to cross-check the detectors.

These deliberately reimplement the metrics with explicit loops and
numpy-level reductions so they share no code path with the implementations
under test (beyond the fixed group-1 alignment rule, which is configuration,
not a search). The scalar :func:`jacobian_log_sum` step defines the LLR
recursion.
"""

import itertools
import math

import numpy as np

from timsr.ris import STAGE_INFO, STAGE_POWER, align_group1, reflection_vector


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


def _effective(obs, phase_pair, phase_set, group1_phase):
    ch = obs.channel
    eff_info = [
        ch.h_d + ch.f_casc @ reflection_vector(STAGE_INFO, group1_phase, th, phase_set)
        for th in phase_pair
    ]
    eff_power = ch.h_d + ch.f_casc @ reflection_vector(STAGE_POWER, group1_phase, 0.0, phase_set)
    return eff_info, eff_power


def naive_joint_search(obs, codebook, constellation, phase_pair, omega, phase_set, p_info_w):
    """Exhaustive loop minimization in (codeword, phase, symbol-vector) order
    with a strict first-found minimum. Returns (codeword, phase index,
    symbol labels, metric)."""
    g1 = align_group1(obs.channel, phase_pair)
    eff_info, eff_power = _effective(obs, phase_pair, phase_set, g1)
    amp = math.sqrt(p_info_w)
    m = constellation.m_order
    k_slots = codebook.k_slots

    best = None
    best_metric = math.inf
    for cw in codebook.codewords:
        for c in range(len(phase_pair)):
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


def naive_symbol_phase(obs, slots, constellation, phase_pair, p_info_w, phase_set):
    """Full product search over (phase, symbol vector) for fixed slots, in
    (phase, labels) order with a strict first-found minimum."""
    g1 = align_group1(obs.channel, phase_pair)
    eff_info, _ = _effective(obs, phase_pair, phase_set, g1)
    amp = math.sqrt(p_info_w)
    m = constellation.m_order

    best = None
    best_metric = math.inf
    for c in range(len(phase_pair)):
        for labels in itertools.product(range(m), repeat=len(slots)):
            metric = 0.0
            for pos, slot in enumerate(slots):
                s = amp * constellation.points[labels[pos]]
                metric += float(np.linalg.norm(obs.y[slot - 1] - eff_info[c] * s) ** 2)
            if metric < best_metric:
                best = (c, labels)
                best_metric = metric
    return best[0], best[1], best_metric


def direct_llr(obs, constellation, phase_pair, omega, phase_set, k_slots, l_slots, p_info_w):
    """Per-slot LLR recomputed from the raw definition with a vector
    log-sum-exp instead of the pairwise recursion."""
    g1 = align_group1(obs.channel, phase_pair)
    eff_info, eff_power = _effective(obs, phase_pair, phase_set, g1)
    amp = math.sqrt(p_info_w)
    prior = math.log(l_slots**2) - math.log((k_slots - l_slots) ** 2)

    llr = np.empty(k_slots)
    for k in range(k_slots):
        xi = []
        for c in range(len(phase_pair)):
            for i in range(constellation.m_order):
                s = amp * constellation.points[i]
                xi.append(-float(np.linalg.norm(obs.y[k] - eff_info[c] * s) ** 2) / obs.sigma2)
        delta_p = -float(np.linalg.norm(obs.y[k] - eff_power * omega) ** 2) / obs.sigma2
        llr[k] = prior + direct_log_sum_exp(xi) - delta_p
    return llr


def loop_joint_metric(info_cost, pow_cost, codebook, paper_compat=False):
    """The (A, J, M^L) joint-ML metric built one codeword and one phase at a
    time: the power-slot base, then each slot's (M,) costs outer-added in
    slot order, earliest slot most significant."""
    j, m, _ = info_cost.shape
    total_pow = float(pow_cost.sum())
    metric = np.empty((len(codebook.codewords), j, m**codebook.l_slots))
    for a, cw in enumerate(codebook.codewords):
        slots0 = np.asarray(cw, dtype=np.int64) - 1
        base = 0.0 if paper_compat else total_pow - float(pow_cost[slots0].sum())
        for c in range(j):
            t = np.array([base])
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


def slot_rectenna_input(h_r2, s_k):
    """Surface rectenna input of one slot: |sum_n h_r2[n] * s_k|^2."""
    if np.size(h_r2) == 0:
        return 0.0
    return float(np.abs(np.sum(np.asarray(h_r2) * s_k)) ** 2)


def slot_eh_received(channel, psi, s_k):
    """Harvester sample and rectenna input of one slot under reflection
    ``psi``: h_e * s_k + (v_casc . psi) * s_k."""
    eps = channel.h_e * s_k + (channel.v_casc @ psi) * s_k
    return complex(eps), float(np.abs(eps) ** 2)
