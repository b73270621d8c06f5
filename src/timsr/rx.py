"""Receiver-side processing: noise injection, the exhaustive joint detector,
and the low-complexity per-slot LLR pipeline.

The joint detector scores every (codeword, surface phase, symbol vector)
hypothesis over the whole block. The LLR pipeline first classifies each slot
as information-like or power-like, projects the classification onto the
legitimate codeword set, and only then runs a small symbol/phase search on
the selected slots. Enumeration orders are fixed: codewords in codebook
order, then the information-phase pair in order, then symbol vectors in
lexicographic label order with the earliest slot most significant; the
first-found minimum wins ties everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .ris import RisState, align_group1, reflection_vector, STAGE_INFO, STAGE_POWER
from .txphy import Constellation, IndexCodebook, TimFrame, codeword_to_tau, decode_frame


@dataclass
class Observation:
    """The K received vectors of one block plus what the receiver knows:
    the noise variance and the (perfectly known) channel realization."""

    y: np.ndarray
    sigma2: float
    channel: ChannelRealization

    def with_noise(self, sigma2: float, unit) -> "Observation":
        """The same block received at noise variance ``sigma2``: ``unit``
        (from :func:`unit_noise`) scaled by sqrt(sigma2 / 2) is added to the
        samples; at ``sigma2 = 0`` they stay as they are and ``unit`` may be
        None."""
        y = self.y + math.sqrt(sigma2 / 2.0) * unit if sigma2 > 0 else self.y
        return Observation(y=y, sigma2=sigma2, channel=self.channel)


def unit_noise(shape, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian noise with unit-variance real and imaginary parts;
    every real part is drawn before any imaginary part."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def observe(
    channel: ChannelRealization,
    frame: TimFrame,
    ris: RisState,
    sigma2: float,
    rng: np.random.Generator,
) -> Observation:
    """Propagate one block through the channel: direct path plus the
    surface-reflected path under the per-slot reflection vector, with
    white Gaussian noise of variance ``sigma2`` in every slot. The stream
    is drawn from only when ``sigma2 > 0``."""
    if sigma2 < 0:
        raise ValueError("noise variance cannot be negative")
    eff_info = channel.h_d + channel.f_casc @ ris.reflection(STAGE_INFO)
    eff_power = channel.h_d + channel.f_casc @ ris.reflection(STAGE_POWER)
    eff = np.where(frame.tau[:, None] == 1, eff_info[None, :], eff_power[None, :])
    clean = Observation(y=eff * frame.samples[:, None], sigma2=0.0, channel=channel)
    return clean.with_noise(sigma2, unit_noise(clean.y.shape, rng) if sigma2 > 0 else None)


def jacobian_log_sum(a: float, b: float) -> float:
    """ln(e^a + e^b) without overflow: max(a, b) + ln(1 + e^-|a-b|)."""
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    return max(a, b) + math.log1p(math.exp(-abs(a - b)))


@dataclass
class DetectionResult:
    codeword: tuple
    symbol_labels: tuple
    symbols: np.ndarray
    info_phase: float
    ris_bit: int
    ptx_bits: np.ndarray
    detector: str
    visited: int


def _slot_costs(
    obs: Observation,
    constellation: Constellation,
    phase_pair,
    omega: complex,
    phase_set,
    p_info_w: float,
    group1_phase: float,
):
    """Per-slot squared distances for every single-slot hypothesis.

    Returns ``info_cost`` of shape (J, M, K) for each (surface phase, symbol)
    pair and ``pow_cost`` of shape (K,) for the power-sample hypothesis.
    """
    ch = obs.channel
    eff_info = np.stack(
        [
            ch.h_d + ch.f_casc @ reflection_vector(STAGE_INFO, group1_phase, th, phase_set)
            for th in phase_pair
        ]
    )
    eff_power = ch.h_d + ch.f_casc @ reflection_vector(STAGE_POWER, group1_phase, 0.0, phase_set)

    scaled = math.sqrt(p_info_w) * constellation.points
    cand = eff_info[:, None, :] * scaled[None, :, None]          # (J, M, M_R)
    diff = obs.y[None, None, :, :] - cand[:, :, None, :]          # (J, M, K, M_R)
    info_cost = np.sum(diff.real**2 + diff.imag**2, axis=-1)      # (J, M, K)

    dp = obs.y - eff_power[None, :] * omega
    pow_cost = np.sum(dp.real**2 + dp.imag**2, axis=-1)           # (K,)
    return info_cost, pow_cost


def _labels_from_flat(n: int, m_order: int, l_slots: int) -> tuple:
    return tuple((n // m_order ** (l_slots - 1 - pos)) % m_order for pos in range(l_slots))


def ml_joint_detect(
    obs: Observation,
    codebook: IndexCodebook,
    constellation: Constellation,
    phase_pair,
    omega: complex,
    phase_set,
    p_info_w: float,
    paper_compat: bool = False,
) -> DetectionResult:
    """Jointly minimize the block metric over every codeword, surface phase,
    and symbol vector; hypothesized power slots are scored against the known
    power sample.

    With ``paper_compat`` only the hypothesized information slots are scored,
    dropping the power-slot terms from the metric.
    """
    group1_phase = align_group1(obs.channel, phase_pair)
    info_cost, pow_cost = _slot_costs(
        obs, constellation, phase_pair, omega, phase_set, p_info_w, group1_phase
    )
    j = len(phase_pair)
    m = constellation.m_order
    l = codebook.l_slots
    n_sym = m**l
    total_pow = float(pow_cost.sum())

    metric = np.empty((len(codebook.codewords), j, n_sym))
    for a, cw in enumerate(codebook.codewords):
        slots0 = np.asarray(cw, dtype=np.int64) - 1
        base = 0.0 if paper_compat else total_pow - float(pow_cost[slots0].sum())
        for c in range(j):
            t = np.array([base])
            for s0 in slots0:
                t = (t[:, None] + info_cost[c, :, s0][None, :]).ravel()
            metric[a, c, :] = t

    # C-order flat argmin == first minimum in (codeword, phase, symbols) order.
    a, c, n = np.unravel_index(int(np.argmin(metric.reshape(-1))), metric.shape)
    codeword = codebook.codewords[a]
    labels = _labels_from_flat(n, m, l)
    symbols = constellation.points[list(labels)]
    bits = decode_frame(codeword_to_tau(codeword, codebook.k_slots), symbols, codebook, constellation)
    return DetectionResult(
        codeword=codeword,
        symbol_labels=labels,
        symbols=symbols,
        info_phase=float(phase_pair[c]),
        ris_bit=int(c),
        ptx_bits=bits,
        detector="ml",
        visited=metric.size,
    )


def llr_per_slot(
    obs: Observation,
    constellation: Constellation,
    phase_pair,
    omega: complex,
    phase_set,
    k_slots: int,
    l_slots: int,
    p_info_w: float,
    paper_compat: bool = False,
) -> np.ndarray:
    """Per-slot log-likelihood ratio of information versus power.

    For each slot the information evidence accumulates ln-sum-exp over all
    (surface phase, symbol) pairs via :func:`jacobian_log_sum`; the power
    evidence is the single power-sample metric. With ``paper_compat`` the
    power term keeps its literal unscaled form instead of the 1/sigma^2
    Gaussian log-likelihood scaling.
    """
    if obs.sigma2 <= 0:
        raise ValueError("the LLR detector needs a positive noise variance")
    group1_phase = align_group1(obs.channel, phase_pair)
    info_cost, pow_cost = _slot_costs(
        obs, constellation, phase_pair, omega, phase_set, p_info_w, group1_phase
    )
    xi = -info_cost / obs.sigma2
    delta_p = -pow_cost if paper_compat else -pow_cost / obs.sigma2

    prior = math.log(l_slots**2)
    prior -= math.log((k_slots - l_slots) ** 2) if k_slots > l_slots else -math.inf

    j = len(phase_pair)
    m = constellation.m_order
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


def select_info_slots(llr: np.ndarray, codebook: IndexCodebook) -> tuple:
    """Codeword with the largest LLR sum over its slots, searched over the
    legitimate set only; ties resolve to the earliest codeword."""
    sums = llr[codebook.slot_index].sum(axis=1)
    return codebook.codewords[int(np.argmax(sums))]


def ml_symbol_phase(
    obs: Observation,
    slots,
    constellation: Constellation,
    phase_pair,
    p_info_w: float,
    phase_set,
):
    """Joint symbol/phase decision on the already-selected information slots.

    For each candidate surface phase the per-slot symbol search factorizes,
    so only J*M*L metrics are evaluated; the result equals a full search
    over all symbol vectors and phases.
    """
    group1_phase = align_group1(obs.channel, phase_pair)
    info_cost, _ = _slot_costs(
        obs, constellation, phase_pair, 0.0, phase_set, p_info_w, group1_phase
    )
    slots0 = np.asarray(slots, dtype=np.int64) - 1
    l = len(slots0)

    best_c, best_labels, best_total = 0, None, math.inf
    for c in range(len(phase_pair)):
        costs = info_cost[c][:, slots0]                 # (M, L)
        labels = np.argmin(costs, axis=0)               # first minimum per slot
        total = float(costs[labels, np.arange(l)].sum())
        if total < best_total:
            best_c, best_labels, best_total = c, labels, total
    visited = len(phase_pair) * constellation.m_order * l
    return tuple(int(x) for x in best_labels), float(phase_pair[best_c]), best_c, visited


def llr_detect(
    obs: Observation,
    codebook: IndexCodebook,
    constellation: Constellation,
    phase_pair,
    omega: complex,
    phase_set,
    p_info_w: float,
    paper_compat: bool = False,
) -> DetectionResult:
    """Low-complexity pipeline: per-slot LLRs, legitimate-set slot selection,
    then the factorized symbol/phase search and bit recovery. The reported
    hypothesis count is the K*(J*M + 1) metric evaluations of the LLR stage."""
    llr = llr_per_slot(
        obs,
        constellation,
        phase_pair,
        omega,
        phase_set,
        codebook.k_slots,
        codebook.l_slots,
        p_info_w,
        paper_compat,
    )
    codeword = select_info_slots(llr, codebook)
    labels, info_phase, c, _ = ml_symbol_phase(
        obs, codeword, constellation, phase_pair, p_info_w, phase_set
    )
    symbols = constellation.points[list(labels)]
    bits = decode_frame(codeword_to_tau(codeword, codebook.k_slots), symbols, codebook, constellation)
    visited = codebook.k_slots * (len(phase_pair) * constellation.m_order + 1)
    return DetectionResult(
        codeword=codeword,
        symbol_labels=labels,
        symbols=symbols,
        info_phase=info_phase,
        ris_bit=int(c),
        ptx_bits=bits,
        detector="llr",
        visited=visited,
    )
