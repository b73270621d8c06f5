"""Receiver-side processing: noise injection, the exhaustive joint detector,
and the low-complexity per-slot LLR pipeline.

One :class:`ReceiverContext` per block holds what the receiver derives
from the channel and the surface assist phase alone: the effective receive
channels and the noise-free sample of every (phase, symbol) pair. At each
noise variance the slot costs are computed once from it, and both detectors
are array kernels over those costs. A detector called without a context
builds one from the observation and runs the same kernel.

The joint detector scores every (codeword, surface phase, symbol vector)
hypothesis over the whole block from the gathered slot costs of each
codeword. The LLR pipeline first classifies each slot as information-like
or power-like, projects the classification onto the legitimate codeword
set, and only then runs a small symbol/phase search on the selected slots.
Enumeration orders are fixed: codewords in codebook order, then the
information-phase pair in order, then symbol vectors in lexicographic label
order with the earliest slot most significant; the first-found minimum wins
ties everywhere. Every kernel adds its terms in the order of a loop over
the hypotheses, so each metric equals that loop's value bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .ris import RisState, align_group1, reflection_vector, STAGE_INFO, STAGE_POWER
# decode_frame is the public inverse of block_bits; perfbench/spans.py looks
# it up here by name.
from .txphy import Constellation, IndexCodebook, TimFrame, block_bits, decode_frame  # noqa: F401


@dataclass(frozen=True)
class ReceiverContext:
    """Noise-free receiver quantities of one block: the effective receive
    channels ``eff_info`` (J, M_R) under each information phase and
    ``eff_power`` (M_R,) under the power phase, and the information sample
    ``cand`` (J, M, M_R) of every (phase, symbol) pair at power p_info."""

    eff_info: np.ndarray
    eff_power: np.ndarray
    cand: np.ndarray

    def slot_costs(self, y: np.ndarray, omega: complex):
        """Squared distances of the K received vectors to every single-slot
        hypothesis: ``info_cost`` (J, M, K) for each (phase, symbol) pair and
        ``pow_cost`` (K,) for the power sample ``omega``."""
        diff = y[None, None, :, :] - self.cand[:, :, None, :]          # (J, M, K, M_R)
        info_cost = np.sum(diff.real**2 + diff.imag**2, axis=-1)
        dp = y - self.eff_power[None, :] * omega
        return info_cost, np.sum(dp.real**2 + dp.imag**2, axis=-1)


def effective_channels(channel: ChannelRealization, group1_phase: float, phase_pair, phase_set):
    """Direct plus reflected receive channel under each information phase
    (J, M_R) and under the power phase (M_R,)."""
    def eff(stage, phase):
        psi = reflection_vector(stage, group1_phase, phase, phase_set)
        return channel.h_d + channel.f_casc @ psi

    return np.stack([eff(STAGE_INFO, th) for th in phase_pair]), eff(STAGE_POWER, 0.0)


def receiver_context(channel: ChannelRealization, group1_phase: float, phase_pair, phase_set,
                     constellation: Constellation, p_info_w: float) -> ReceiverContext:
    """The block's :class:`ReceiverContext` for the given assist phase."""
    eff_info, eff_power = effective_channels(channel, group1_phase, phase_pair, phase_set)
    scaled = math.sqrt(p_info_w) * constellation.points
    return ReceiverContext(eff_info, eff_power, eff_info[:, None, :] * scaled[None, :, None])


def _slot_costs(obs, omega, phase_pair, phase_set, constellation, p_info_w, context=None):
    """The observation's slot costs from the block's ``context`` or, without
    one, from the observed channel with the assist group aligned here."""
    if context is None:
        group1_phase = align_group1(obs.channel, phase_pair)
        context = receiver_context(obs.channel, group1_phase, phase_pair, phase_set,
                                   constellation, p_info_w)
    return context.slot_costs(obs.y, omega)


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


def observe(channel: ChannelRealization, frame: TimFrame, ris: RisState, sigma2: float,
            rng: np.random.Generator, context: ReceiverContext | None = None) -> Observation:
    """Propagate one block through the channel: direct path plus the
    surface-reflected path under the per-slot reflection vector, with
    white Gaussian noise of variance ``sigma2`` in every slot. The stream
    is drawn from only when ``sigma2 > 0``. The effective channels come
    from the block's ``context`` when one is given."""
    if sigma2 < 0:
        raise ValueError("noise variance cannot be negative")
    ps = ris.phase_set
    eff_info, eff_power = (effective_channels(channel, ris.group1_phase, ps.phi_info, ps)
                           if context is None else (context.eff_info, context.eff_power))
    eff = np.where(frame.tau[:, None] == 1, eff_info[ris.ris_bit][None, :], eff_power[None, :])
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


def _result(codebook, constellation, alpha, labels, phase_pair, c, detector, visited):
    labels = tuple(int(x) for x in labels)
    return DetectionResult(
        codeword=codebook.codewords[alpha],
        symbol_labels=labels,
        symbols=constellation.points[list(labels)],
        info_phase=float(phase_pair[c]),
        ris_bit=int(c),
        ptx_bits=block_bits(alpha, labels, codebook, constellation),
        detector=detector,
        visited=visited,
    )


def joint_metric(info_cost, pow_cost, slot_index, paper_compat: bool = False) -> np.ndarray:
    """Block metric of every (codeword, phase, symbol vector) hypothesis,
    shape (A, J, M^L) in enumeration order. Each codeword's power-slot base
    (zero under ``paper_compat``) gets its (J, M, L) gathered slot costs
    added one slot position at a time, earliest slot first."""
    n_cw = len(slot_index)
    gathered = np.moveaxis(info_cost[:, :, slot_index], 2, 0)          # (A, J, M, L)
    base = np.zeros(n_cw) if paper_compat else float(pow_cost.sum()) - pow_cost[slot_index].sum(1)
    metric = base[:, None, None]
    for pos in range(slot_index.shape[1]):
        metric = metric[..., None] + gathered[:, :, None, :, pos]
        metric = metric.reshape(n_cw, gathered.shape[1], -1)
    return metric


def ml_joint_detect(obs: Observation, codebook: IndexCodebook, constellation: Constellation,
                    phase_pair, omega: complex, phase_set, p_info_w: float,
                    paper_compat: bool = False, context: ReceiverContext | None = None,
                    ) -> DetectionResult:
    """Jointly minimize the block metric over every codeword, surface phase,
    and symbol vector; hypothesized power slots are scored against the known
    power sample.

    With ``paper_compat`` only the hypothesized information slots are scored,
    dropping the power-slot terms from the metric.
    """
    info_cost, pow_cost = _slot_costs(obs, omega, phase_pair, phase_set, constellation, p_info_w,
                                      context)
    metric = joint_metric(info_cost, pow_cost, codebook.slot_index, paper_compat)
    # C-order flat argmin == first minimum in (codeword, phase, symbols) order.
    a, c, n = np.unravel_index(int(np.argmin(metric.reshape(-1))), metric.shape)
    labels = np.unravel_index(n, (constellation.m_order,) * codebook.l_slots)
    return _result(codebook, constellation, a, labels, phase_pair, c, "ml", metric.size)


def llr_from_costs(info_cost, pow_cost, sigma2, k_slots, l_slots, paper_compat=False):
    """Per-slot LLRs from the slot costs of one observation.

    ``np.logaddexp.reduce`` folds the J*M (phase, symbol) terms in order,
    phase-major, with the same max + ln(1 + e^-|a-b|) step and the same
    handling of -inf as :func:`jacobian_log_sum`. The prior
    ln(L^2 / (K-L)^2) is added to every slot; every codeword has exactly L
    slots, so it shifts every codeword's LLR sum by the same L times the
    prior and, rounding aside, cannot change the selected codeword.
    """
    xi = -info_cost / sigma2
    delta_p = -pow_cost if paper_compat else -pow_cost / sigma2

    prior = math.log(l_slots**2)
    prior -= math.log((k_slots - l_slots) ** 2) if k_slots > l_slots else -math.inf
    return prior + np.logaddexp.reduce(xi.reshape(-1, k_slots), axis=0) - delta_p


def llr_per_slot(obs: Observation, constellation: Constellation, phase_pair, omega: complex,
                 phase_set, k_slots: int, l_slots: int, p_info_w: float,
                 paper_compat: bool = False, costs=None) -> np.ndarray:
    """Per-slot log-likelihood ratio of information versus power.

    For each slot the information evidence is the ln-sum-exp over all
    (surface phase, symbol) pairs; the power evidence is the single
    power-sample metric. With ``paper_compat`` the power term keeps its
    literal unscaled form instead of the 1/sigma^2 Gaussian log-likelihood
    scaling. ``costs`` are the observation's slot costs when the caller
    already has them.
    """
    if obs.sigma2 <= 0:
        raise ValueError("the LLR detector needs a positive noise variance")
    if costs is None:
        costs = _slot_costs(obs, omega, phase_pair, phase_set, constellation, p_info_w)
    return llr_from_costs(*costs, obs.sigma2, k_slots, l_slots, paper_compat)


def select_info_slots(llr: np.ndarray, codebook: IndexCodebook) -> tuple:
    """Codeword with the largest LLR sum over its slots, searched over the
    legitimate set only; ties resolve to the earliest codeword."""
    sums = llr[codebook.slot_index].sum(axis=1)
    return codebook.codewords[int(np.argmax(sums))]


def ml_symbol_phase(obs: Observation, slots, constellation: Constellation, phase_pair,
                    p_info_w: float, phase_set, info_cost=None):
    """Joint symbol/phase decision on the already-selected information slots.

    For each candidate surface phase the per-slot symbol search factorizes,
    so only J*M*L metrics are evaluated; the result equals a full search
    over all symbol vectors and phases. ``info_cost`` are the observation's
    information-slot costs when the caller already has them.
    """
    if info_cost is None:
        info_cost, _ = _slot_costs(obs, 0.0, phase_pair, phase_set, constellation, p_info_w)
    costs = info_cost[:, :, np.asarray(slots, dtype=np.int64) - 1]      # (J, M, L)
    labels = np.argmin(costs, axis=1)                  # first minimum per slot
    c = int(np.argmin(costs.min(axis=1).sum(axis=1)))  # first minimum over phases
    return tuple(int(x) for x in labels[c]), float(phase_pair[c]), c, costs.size


def llr_detect(obs: Observation, codebook: IndexCodebook, constellation: Constellation,
               phase_pair, omega: complex, phase_set, p_info_w: float,
               paper_compat: bool = False, context: ReceiverContext | None = None,
               ) -> DetectionResult:
    """Low-complexity pipeline: per-slot LLRs, legitimate-set slot selection,
    then the factorized symbol/phase search and bit recovery, all from one
    set of slot costs. The reported hypothesis count is the K*(J*M + 1)
    metric evaluations of the LLR stage."""
    costs = _slot_costs(obs, omega, phase_pair, phase_set, constellation, p_info_w, context)
    llr = llr_per_slot(obs, constellation, phase_pair, omega, phase_set, codebook.k_slots,
                       codebook.l_slots, p_info_w, paper_compat, costs)
    codeword = select_info_slots(llr, codebook)
    labels, _, c, _ = ml_symbol_phase(obs, codeword, constellation, phase_pair, p_info_w,
                                      phase_set, costs[0])
    visited = codebook.k_slots * (len(phase_pair) * constellation.m_order + 1)
    return _result(codebook, constellation, codebook.index_of(codeword), labels, phase_pair, c,
                   "llr", visited)
