"""Receiver-side processing: noise injection, the exhaustive joint detector,
and the low-complexity per-slot LLR pipeline.

One :class:`ReceiverContext` per block holds what the receiver derives
from the channel and the surface assist phase alone: the effective receive
channels and the noise-free sample of every (phase, symbol) pair. The slot
costs are computed once from it, and both detectors are array kernels over
those costs. A detector called without a context builds one from the
observation and runs the same kernel.

The kernels carry a leading point axis: a block received at S noise
variances is one stacked :class:`Observation`, detected in one call into a
:class:`DetectionResult` with one decision per point; an unbatched
observation is the S = 1 case, with the axis dropped. The joint-ML metric
alone is built and searched one point at a time: stacked, its memory grows
S-fold (7 x 32,768 floats for (8,4) on a 7-point grid) and it ran slower.

The joint detector scores every (codeword, surface phase, symbol vector)
hypothesis over the whole block from the gathered slot costs of each
codeword. The LLR pipeline first classifies each slot as information-like
or power-like, projects the classification onto the legitimate codeword
set, and only then runs a small symbol/phase search on the selected slots.
Enumeration orders are fixed: codewords in codebook order, then the
information-phase pair in order, then symbol vectors in lexicographic label
order with the earliest slot most significant; the first-found minimum wins
ties everywhere. Every kernel adds its terms in the order of a loop over
the hypotheses, so each metric equals that loop's value bit for bit, and
each point's decision equals that of detecting the point alone.
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
        """Squared distances of the received vectors ``y`` (..., K, M_R) to
        every single-slot hypothesis: ``info_cost`` (..., J, M, K) for each
        (phase, symbol) pair and ``pow_cost`` (..., K) for the power sample
        ``omega``."""
        diff = y[..., None, None, :, :] - self.cand[:, :, None, :]     # (..., J, M, K, M_R)
        info_cost = np.sum(diff.real**2 + diff.imag**2, axis=-1)
        dp = y - self.eff_power * omega
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
    the noise variance and the (perfectly known) channel realization; a
    stacked observation holds samples (S, K, M_R) and variances (S,)."""

    y: np.ndarray
    sigma2: float | np.ndarray
    channel: ChannelRealization

    def stacked(self) -> "Observation":
        """This observation with a leading point axis (S = 1 when unbatched)."""
        return self if self.y.ndim == 3 else Observation(
            self.y[None], np.reshape(self.sigma2, 1), self.channel)

    def with_noise(self, sigma2, unit) -> "Observation":
        """The same block received at noise variance ``sigma2``: ``unit``
        (from :func:`unit_noise`) scaled by sqrt(sigma2 / 2) is added to the
        samples. A sequence of S variances gives one stacked observation,
        one row per variance. Rows at ``sigma2 = 0`` keep the samples as
        they are, and ``unit`` may be None when no variance is positive."""
        s2 = np.asarray(sigma2, dtype=float)
        scale = np.sqrt(s2 / 2.0)[..., None, None]
        noisy = self.y + scale * unit if np.any(s2 > 0) else self.y
        y = np.where(scale > 0, noisy, self.y)
        return Observation(y=y, sigma2=s2 if s2.ndim else sigma2, channel=self.channel)


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
    return clean.with_noise(sigma2, unit_noise(clean.y.shape, rng)) if sigma2 > 0 else clean


def jacobian_log_sum(a: float, b: float) -> float:
    """ln(e^a + e^b) without overflow: max(a, b) + ln(1 + e^-|a-b|)."""
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    return max(a, b) + math.log1p(math.exp(-abs(a - b)))


@dataclass
class DetectionResult:
    """One block's decision. A stacked observation's result has a leading
    point axis on each per-point field: ``codeword`` (S, L) slots, labels and
    symbols (S, L), phase and bit (S,), ``ptx_bits`` (S, eta); ``visited``
    sums over the points."""

    codeword: tuple
    symbol_labels: tuple
    symbols: np.ndarray
    info_phase: float
    ris_bit: int
    ptx_bits: np.ndarray
    detector: str
    visited: int


def _result(obs, codebook, constellation, alpha, labels, phase_pair, c, detector, visited):
    """Each point's detection from its codeword index, labels and phase index;
    the point axis is dropped for an unbatched ``obs``."""
    bits = block_bits(alpha, labels, codebook, constellation)
    if obs.y.ndim == 3:
        return DetectionResult(codebook.slot_index[alpha] + 1, labels, constellation.points[labels],
                               np.asarray(phase_pair)[c], c, bits, detector, visited)
    a, labels, c = int(alpha[0]), tuple(int(x) for x in labels[0]), int(c[0])
    return DetectionResult(codebook.codewords[a], labels, constellation.points[list(labels)],
                           float(phase_pair[c]), c, bits[0], detector, visited)


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
    power sample. The slot costs of every point are computed at once; the
    metric is built and searched one point at a time.

    With ``paper_compat`` only the hypothesized information slots are scored,
    dropping the power-slot terms from the metric.
    """
    costs = _slot_costs(obs.stacked(), omega, phase_pair, phase_set, constellation, p_info_w,
                        context)
    shape = (len(codebook.codewords), len(phase_pair)) + (constellation.m_order,) * codebook.l_slots
    # C-order flat argmin == first minimum in (codeword, phase, symbols) order.
    flat = [int(np.argmin(joint_metric(*point, codebook.slot_index, paper_compat)))
            for point in zip(*costs)]
    a, c, *labels = np.unravel_index(flat, shape)
    return _result(obs, codebook, constellation, a, np.stack(labels, axis=-1), phase_pair, c, "ml",
                   len(flat) * math.prod(shape))


def llr_from_costs(info_cost, pow_cost, sigma2, k_slots, l_slots, paper_compat=False):
    """Per-slot LLRs from slot costs (..., J, M, K) and (..., K) at noise
    variance ``sigma2``, a scalar or one variance per leading point (S,).

    ``np.logaddexp.reduce`` folds the J*M (phase, symbol) terms in order,
    phase-major, with the same max + ln(1 + e^-|a-b|) step and the same
    handling of -inf as :func:`jacobian_log_sum`. The prior
    ln(L^2 / (K-L)^2) is added to every slot; every codeword has exactly L
    slots, so it shifts every codeword's LLR sum by the same L times the
    prior and, rounding aside, cannot change the selected codeword.
    """
    sigma2 = np.reshape(sigma2, np.shape(sigma2) + (1, 1, 1))
    xi = -info_cost / sigma2
    delta_p = -pow_cost if paper_compat else -pow_cost / sigma2[..., 0, 0]

    prior = math.log(l_slots**2)
    prior -= math.log((k_slots - l_slots) ** 2) if k_slots > l_slots else -math.inf
    lse = np.logaddexp.reduce(xi.reshape(xi.shape[:-3] + (-1, k_slots)), axis=-2)
    return prior + lse - delta_p


def llr_per_slot(obs: Observation, constellation: Constellation, phase_pair, omega: complex,
                 phase_set, k_slots: int, l_slots: int, p_info_w: float,
                 paper_compat: bool = False, costs=None) -> np.ndarray:
    """Per-slot log-likelihood ratio of information versus power, (K,) or
    (S, K) for a stacked observation.

    For each slot the information evidence is the ln-sum-exp over all
    (surface phase, symbol) pairs; the power evidence is the single
    power-sample metric. With ``paper_compat`` the power term keeps its
    literal unscaled form instead of the 1/sigma^2 Gaussian log-likelihood
    scaling. ``costs`` are the observation's slot costs when the caller
    already has them.
    """
    if np.any(np.asarray(obs.sigma2) <= 0):
        raise ValueError("the LLR detector needs a positive noise variance")
    if costs is None:
        costs = _slot_costs(obs, omega, phase_pair, phase_set, constellation, p_info_w)
    return llr_from_costs(*costs, obs.sigma2, k_slots, l_slots, paper_compat)


def select_info_slots(llr: np.ndarray, codebook: IndexCodebook):
    """Codeword with the largest LLR sum over its slots, searched over the
    legitimate set only; ties resolve to the earliest codeword. For LLR rows
    (S, K) the result is each row's codeword index (S,)."""
    alpha = np.argmax(llr[..., codebook.slot_index].sum(axis=-1), axis=-1)
    return alpha if llr.ndim > 1 else codebook.codewords[int(alpha)]


def ml_symbol_phase(obs: Observation, slots, constellation: Constellation, phase_pair,
                    p_info_w: float, phase_set, info_cost=None):
    """Joint symbol/phase decision on the already-selected information slots.

    For each candidate surface phase the per-slot symbol search factorizes,
    so only J*M*L metrics are evaluated; the result equals a full search
    over all symbol vectors and phases. ``info_cost`` are the observation's
    information-slot costs when the caller already has them. Slots (S, L)
    and costs (S, J, M, K) give one decision per point.
    """
    if info_cost is None:
        info_cost, _ = _slot_costs(obs, 0.0, phase_pair, phase_set, constellation, p_info_w)
    slots0 = np.asarray(slots, dtype=np.int64) - 1
    costs = np.take_along_axis(info_cost, slots0[..., None, None, :], axis=-1)   # (..., J, M, L)
    labels = np.argmin(costs, axis=-2)                           # first minimum per slot
    c = np.argmin(costs.min(axis=-2).sum(axis=-1), axis=-1)      # first minimum over phases
    labels = np.take_along_axis(labels, c[..., None, None], axis=-2)[..., 0, :]
    if c.ndim:
        return labels, np.asarray(phase_pair)[c], c, costs.size
    return tuple(int(x) for x in labels), float(phase_pair[c]), int(c), costs.size


def llr_detect(obs: Observation, codebook: IndexCodebook, constellation: Constellation,
               phase_pair, omega: complex, phase_set, p_info_w: float,
               paper_compat: bool = False, context: ReceiverContext | None = None,
               ) -> DetectionResult:
    """Low-complexity pipeline: per-slot LLRs, legitimate-set slot selection,
    then the factorized symbol/phase search and bit recovery, all from one
    set of slot costs for every point at once. The reported hypothesis count
    is the K*(J*M + 1) metric evaluations of the LLR stage per point."""
    points = obs.stacked()
    costs = _slot_costs(points, omega, phase_pair, phase_set, constellation, p_info_w, context)
    llr = llr_per_slot(points, constellation, phase_pair, omega, phase_set, codebook.k_slots,
                       codebook.l_slots, p_info_w, paper_compat, costs)
    alpha = select_info_slots(llr, codebook)
    labels, _, c, _ = ml_symbol_phase(points, codebook.slot_index[alpha] + 1, constellation,
                                      phase_pair, p_info_w, phase_set, costs[0])
    visited = len(points.y) * codebook.k_slots * (len(phase_pair) * constellation.m_order + 1)
    return _result(obs, codebook, constellation, alpha, labels, phase_pair, c, "llr", visited)
