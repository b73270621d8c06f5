"""Receiver-side processing: noise injection, the exhaustive joint detector,
and the low-complexity per-slot LLR pipeline.

The receiver knows the channel and the block's surface state. :func:`observe`
takes the effective receive channels, one per reflection row ``psi`` of the
surface state (each information phase, then the power phase), from
:func:`timsr.ris.received`, where the received-signal model is stated once
over the cascades of the two reflecting groups, and the :class:`Observation`
carries them as ``eff``.
:func:`slot_costs` scores the received samples against them; every detector
stage is an array kernel over those slot costs.

Every kernel takes arrays with any number of leading axes, none included,
and returns arrays with those axes. B blocks received at S noise variances
are one :class:`Observation` with samples (B, S, K, M_R), detected in one
call with one decision per (block, point) row; one block at one variance
has samples (K, M_R) and decisions with no leading axis. :func:`observe` is
noiseless: noise enters only through :meth:`Observation.with_noise`, as
unit noise drawn by the trials' streams.

The joint detector finds the least metric over every (codeword, surface
phase, symbol vector) hypothesis without enumerating them
(:func:`joint_search`). The LLR pipeline classifies each slot as
information-like or power-like, projects that onto the legitimate codeword
set, then runs a small symbol/phase search on the selected slots. Both
decide indices only (:class:`DetectionResult`): the codeword's row in the
codebook, the symbol labels and the information phase, whose index is the
surface bit. The number J of information phases is that of the
observation's ``eff`` rows, less the power row.
Enumeration orders are fixed: codewords in codebook order, then the
information phases in order, then symbol vectors in lexicographic label
order with the earliest slot most significant; the first-found minimum wins
ties everywhere. Every kernel adds its terms in the order of a loop over
the hypotheses, so each metric equals that loop's value bit for bit, and
each row's decision equals that of detecting the row alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, group_cascades
from .ris import RisState, received
# Not called here: the "ris.align" span of perfbench/spans.py looks it up in this module.
from .ris import align_group1  # noqa: F401
from .txphy import Constellation, IndexCodebook, TimFrame, block_bits
# Not called here: the "txphy.decode" span of perfbench/spans.py looks it up in this module.
from .txphy import decode_frame  # noqa: F401


@dataclass
class Observation:
    """The received vectors y (..., K, M_R) of blocks plus what the receiver
    knows: the noise variance and the effective receive channels ``eff``
    (..., J+1, M_R) of :func:`timsr.ris.received`, one row per reflection
    row ``psi`` of the surface state: each information phase, then the
    power phase. Variances (S,) give the samples a point axis ahead of the
    K slots that ``eff`` lacks."""

    y: np.ndarray
    sigma2: float | np.ndarray
    eff: np.ndarray

    def with_noise(self, sigma2, unit) -> "Observation":
        """The same blocks received at noise variance ``sigma2``: ``unit``
        (from :func:`unit_noise`, shaped like the samples) scaled by
        sqrt(sigma2 / 2) is added to the samples. A sequence of S variances
        adds a point axis, one row per variance. Rows at ``sigma2 = 0``
        keep the samples as they are."""
        s2 = np.asarray(sigma2, dtype=float)
        if not np.all(s2 >= 0):
            raise ValueError(f"noise variance must be >= 0, got {sigma2}")
        point = (Ellipsis, None, slice(None), slice(None)) if s2.ndim else Ellipsis
        y = self.y[point]
        scale = np.sqrt(s2 / 2.0)[..., None, None]
        noisy = y + scale * unit[point] if np.any(s2 > 0) else y
        return Observation(np.where(scale > 0, noisy, y), s2, self.eff)


def unit_noise(shape, normals) -> np.ndarray:
    """Complex Gaussian noise (..., *shape) with unit-variance real and
    imaginary parts from standard normals (..., 2, *shape), real parts
    first: one stream's ``standard_normal((2, *shape))`` is one block's
    noise."""
    z = np.moveaxis(normals, -1 - len(shape), 0)
    return z[0] + 1j * z[1]


def observe(channel: ChannelRealization, split, frame: TimFrame,
            ris: RisState) -> Observation:
    """The noiseless samples of blocks at the receive antennas under the
    cell split ``(n1, n2)``, with the effective channels that
    :func:`timsr.ris.received` builds for them carried on the observation."""
    eff, y = received(channel.h_d, group_cascades(channel.G_d, channel.h_r, split), ris,
                      frame.tau, frame.samples)
    return Observation(y, 0.0, eff)


def slot_costs(obs: Observation, constellation: Constellation, p_info_w: float, omega: complex):
    """Squared distances of the received vectors ``obs.y`` (..., K, M_R) to
    every single-slot hypothesis: ``info_cost`` (..., J, M, K) for each
    (phase, symbol) pair at power ``p_info_w`` and ``pow_cost`` (..., K)
    for the power sample ``omega``. Every complex difference
    (..., J, M, K, M_R) is formed at once, the count that
    ``config.trial_values`` bounds, and ``np.sum`` adds the squared
    magnitudes over the contiguous antenna axis in numpy's own order."""
    eff = obs.eff[..., None, :, :] if obs.y.ndim > obs.eff.ndim else obs.eff    # point axis
    cand = eff[..., :-1, None, :] * (math.sqrt(p_info_w) * constellation.points)[:, None]
    d = obs.y[..., None, None, :, :] - cand[..., None, :]                  # (..., J, M, K, M_R)
    dp = obs.y - eff[..., -1:, :] * omega
    return np.sum(d.real**2 + d.imag**2, axis=-1), np.sum(dp.real**2 + dp.imag**2, axis=-1)


@dataclass
class DetectionResult:
    """The decision of each row of an observation, with its leading axes on
    every per-row field: the codeword index ``alpha`` (...), the symbol
    labels (..., L) in ascending slot order, the index of the information
    phase, which is the surface bit (...), and the data bits ``ptx_bits``
    (..., eta) that the codeword and labels carry; ``visited`` sums the
    hypotheses over the rows."""

    alpha: np.ndarray
    symbol_labels: np.ndarray
    ris_bit: np.ndarray
    ptx_bits: np.ndarray
    visited: int


def joint_search(info_cost, pow_cost, slot_index, paper_compat: bool = False):
    """Indices (codeword, phase, labels (L,)) of the first least-metric
    hypothesis for each row of slot costs (..., J, M, K) and (..., K).

    A metric is the codeword's power-slot base (zero under ``paper_compat``)
    plus its L slot costs, added earliest slot first. Rounded addition is
    monotone, so each (codeword, phase) has the least metric base + least
    cost of each slot, bit for bit; the first pair at the global least holds
    the first least hypothesis, whose labels are, slot by slot, the first
    symbol whose least completion still reaches it. No (codeword, phase,
    symbol vector) tensor is built."""
    n_cw, l_slots = slot_index.shape
    base = (np.zeros(pow_cost.shape[:-1] + (n_cw,)) if paper_compat
            else pow_cost.sum(-1)[..., None] - pow_cost[..., slot_index].sum(-1))    # (..., A)
    least = np.moveaxis(info_cost.min(axis=-2)[..., slot_index], -3, -2)          # (..., A, J, L)
    total = base[..., None]
    for pos in range(l_slots):
        total = total + least[..., pos]
    flat = np.argmin(total.reshape(total.shape[:-2] + (-1,)), axis=-1)
    alpha, c = np.divmod(flat, least.shape[-2])
    target = np.take_along_axis(total.reshape(flat.shape + (-1,)), flat[..., None], -1)

    costs = np.take_along_axis(info_cost, c[..., None, None, None], -3)[..., 0, :, :]
    costs = np.take_along_axis(costs, slot_index[alpha][..., None, :], -1)         # (..., M, L)
    tail = costs.min(axis=-2)
    partial = np.take_along_axis(base, alpha[..., None], -1)
    labels = []
    for pos in range(l_slots):
        step = partial + costs[..., pos]                                             # (..., M)
        reach = step
        for later in range(pos + 1, l_slots):
            reach = reach + tail[..., later, None]
        labels.append(np.argmax(reach == target, axis=-1))
        partial = np.take_along_axis(step, labels[-1][..., None], -1)
    return alpha, c, np.stack(labels, axis=-1)


def ml_joint_detect(obs: Observation, codebook: IndexCodebook, constellation: Constellation,
                    omega: complex, p_info_w: float, paper_compat: bool = False) -> DetectionResult:
    """Jointly minimize the block metric over every codeword, surface phase,
    and symbol vector; hypothesized power slots are scored against the known
    power sample. Every row is searched at once by :func:`joint_search`;
    the reported count is the |A|*J*M^L hypotheses per row it covers.

    With ``paper_compat`` only the hypothesized information slots are scored,
    dropping the power-slot terms from the metric.
    """
    info_cost, pow_cost = slot_costs(obs, constellation, p_info_w, omega)
    alpha, c, labels = joint_search(info_cost, pow_cost, codebook.slot_index, paper_compat)
    visited = (alpha.size * len(codebook.slot_index) * info_cost.shape[-3]
               * constellation.m_order**codebook.l_slots)
    return DetectionResult(alpha, labels, c, block_bits(alpha, labels, codebook, constellation),
                           visited)


def llr_per_slot(info_cost, pow_cost, sigma2, k_slots: int, l_slots: int,
                 paper_compat: bool = False) -> np.ndarray:
    """Per-slot log-likelihood ratio of information versus power from slot
    costs (..., J, M, K) and (..., K) at noise variance ``sigma2``, a scalar
    or one variance per leading point (S,); the result is (..., K).

    For each slot the information evidence is the ln-sum-exp over all
    (surface phase, symbol) pairs; ``np.logaddexp.reduce`` folds the J*M
    terms in order, phase-major, with the max + ln(1 + e^-|a-b|) step of the
    pairwise Jacobian logarithm and its handling of -inf. The power
    evidence is the single power-sample metric. With ``paper_compat`` the
    power term keeps its literal unscaled form instead of the 1/sigma^2
    Gaussian log-likelihood scaling. The prior ln(L^2 / (K-L)^2) is added
    to every slot; every codeword has exactly L slots, so it shifts every
    codeword's LLR sum by the same L times the prior and, rounding aside,
    cannot change the selected codeword.
    """
    if np.any(np.asarray(sigma2) <= 0):
        raise ValueError("the LLR detector needs a positive noise variance")
    sigma2 = np.reshape(sigma2, np.shape(sigma2) + (1, 1, 1))
    xi = -info_cost / sigma2
    delta_p = -pow_cost if paper_compat else -pow_cost / sigma2[..., 0, 0]

    prior = math.log(l_slots**2)
    prior -= math.log((k_slots - l_slots) ** 2) if k_slots > l_slots else -math.inf
    lse = np.logaddexp.reduce(xi.reshape(xi.shape[:-3] + (-1, k_slots)), axis=-2)
    return prior + lse - delta_p


def select_info_slots(llr: np.ndarray, codebook: IndexCodebook):
    """Index of the codeword with the largest LLR sum over its slots,
    searched over the legitimate set only; ties resolve to the earliest
    codeword. LLRs (..., K) give each row's codeword index (...)."""
    return np.argmax(llr[..., codebook.slot_index].sum(axis=-1), axis=-1)


def ml_symbol_phase(info_cost, slots):
    """Joint symbol/phase decision on the already-selected information slots
    from the information-slot costs (..., J, M, K).

    For each candidate surface phase the per-slot symbol search factorizes,
    so only J*M*L metrics are evaluated per row; the result equals a full
    search over all symbol vectors and phases. 0-based slots (..., L) and
    costs (..., J, M, K) give labels (..., L) and phase indices (...).
    """
    costs = np.take_along_axis(info_cost, np.asarray(slots)[..., None, None, :], axis=-1)
    labels = np.argmin(costs, axis=-2)                           # first minimum per slot
    c = np.argmin(costs.min(axis=-2).sum(axis=-1), axis=-1)      # first minimum over phases
    labels = np.take_along_axis(labels, c[..., None, None], axis=-2)[..., 0, :]
    return labels, c


def llr_detect(obs: Observation, codebook: IndexCodebook, constellation: Constellation,
               omega: complex, p_info_w: float, paper_compat: bool = False) -> DetectionResult:
    """Low-complexity pipeline: per-slot LLRs, legitimate-set slot selection,
    then the factorized symbol/phase search and bit recovery, all from one
    set of slot costs for every point at once. The reported hypothesis count
    is the K*(J*M + 1) metric evaluations of the LLR stage per point."""
    info_cost, pow_cost = slot_costs(obs, constellation, p_info_w, omega)
    llr = llr_per_slot(info_cost, pow_cost, obs.sigma2, codebook.k_slots, codebook.l_slots,
                       paper_compat)
    alpha = select_info_slots(llr, codebook)
    labels, c = ml_symbol_phase(info_cost, codebook.slot_index[alpha])
    visited = alpha.size * codebook.k_slots * (info_cost.shape[-3] * constellation.m_order + 1)
    return DetectionResult(alpha, labels, c, block_bits(alpha, labels, codebook, constellation),
                           visited)
