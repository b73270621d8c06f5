"""Receiver-side processing: noise injection, the exhaustive joint detector,
and the low-complexity per-slot LLR pipeline.

The receiver knows the channel and the block's surface state. :func:`observe`
takes the effective receive channels, one per reflection row ``psi`` of the
surface state (each information phase, then the power phase), from
:func:`timsr.ris.received`, where the received-signal model is stated once
over the cascades of the two reflecting groups, and the :class:`Observation`
carries them as ``eff``.
:func:`slot_costs` scores the received samples against them, one receive
antenna at a time, in ``np.sum``'s order over the antennas; every detector
stage is an array kernel over those slot costs.

Every kernel takes arrays with any number of leading axes, none included,
and returns arrays with those axes, grid points first, then blocks: B blocks
received at S noise variances are one :class:`Observation` with samples
(S, B, K, M_R) against channels (B, J+1, M_R), detected in one call with
one decision per (point, block) row; one block at one variance has samples
(K, M_R) and decisions with no leading axis. :func:`observe` is
noiseless (its observation carries sigma2 = 0, which only the joint detector
accepts): noise enters only through :meth:`Observation.with_noise`, at
positive variances, as unit noise drawn by the trials' streams.

The joint detector finds the least metric over every (codeword, surface
phase, symbol vector) hypothesis without enumerating them
(:func:`joint_search`). The LLR pipeline classifies each slot as
information-like or power-like, projects that onto the legitimate codeword
set, then runs the joint search restricted to the codeword it selected. Both
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

import functools
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
    power phase. Variances (S,) give the samples a leading point axis,
    ahead of the blocks' axes, that ``eff`` lacks."""

    y: np.ndarray
    sigma2: float | np.ndarray
    eff: np.ndarray

    def with_noise(self, sigma2, unit) -> "Observation":
        """The same blocks received at noise variance ``sigma2`` > 0: ``unit``
        (from :func:`unit_noise`, shaped like the samples) scaled by
        sqrt(sigma2 / 2) is added to the samples. A sequence of S variances
        adds a leading point axis, one row per variance."""
        s2 = np.asarray(sigma2, dtype=float)
        if not np.all(s2 > 0):
            raise ValueError(f"noise variance must be > 0, got {sigma2}")
        noisy = np.sqrt(s2 / 2.0).reshape(s2.shape + (1,) * unit.ndim) * unit
        noisy += self.y                 # in place: one array per call, not two
        return Observation(noisy, s2, self.eff)


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
    n1, n2 = split
    eff, y = received(channel.h_d, group_cascades(channel.G_d, channel.h_r, n1, (n2,))[0], ris,
                      frame.tau, frame.samples)
    return Observation(y, 0.0, eff)


def slot_costs(obs: Observation, constellation: Constellation, p_info_w: float, omega: complex):
    """Squared distances of the received vectors ``obs.y`` (..., K, M_R),
    points then blocks, to every single-slot hypothesis, the channels
    ``obs.eff`` broadcast: ``info_cost`` (..., J, M, K) for each
    (phase, symbol) pair at power ``p_info_w`` and ``pow_cost`` (..., K)
    for the power sample ``omega``. The differences are formed one receive
    antenna at a time (one step of 8 antennas from 8 antennas up), as two
    real arrays (..., J, M, K) of their real and imaginary parts, each part
    equal to that of the complex difference; they are squared and added in
    place, and each antenna's squared distance is added into a running sum
    in the order in which ``np.sum`` adds a contiguous antenna axis, so
    every cost equals that sum bit for bit. No (..., J, M, K, M_R) array is
    built."""
    cand = obs.eff[..., :-1, None, :] * (math.sqrt(p_info_w) * constellation.points)[:, None]
    return (_summed_squares(obs.y[..., None, None, :, :], cand[..., None, :]),
            _summed_squares(obs.y, obs.eff[..., -1:, :] * omega))


_LANES, _BLOCK = 8, 128     # numpy's pairwise sum: its unroll width and its block


def _summed_squares(y, c, start=0, n=None):
    """|y - c|^2 summed over antennas ``start`` to ``start + n - 1`` of the
    last axis (all by default) in the order of numpy's pairwise sum: a left
    fold below 8 antennas; up to 128, 8 running lanes, fed one step of 8
    antennas at a time, combined as ((l0 + l1) + (l2 + l3)) + ((l4 + l5) +
    (l6 + l7)), and then the antennas left over one by one; above 128, two
    halves, the first a multiple of 8, each summed so and then added. Every
    step after the first squares into one scratch array."""
    n = y.shape[-1] if n is None else n
    if n > _BLOCK:
        half = n // 2 - n // 2 % _LANES
        return _summed_squares(y, c, start, half) + _summed_squares(y, c, start + half, n - half)
    stop, rest = start + n, start + n - n % _LANES
    if n >= _LANES:
        lanes = _squares(y, c, slice(start, start + _LANES))
        scratch = np.empty((2,) + lanes.shape)
        for at in range(start + _LANES, rest, _LANES):
            lanes += _squares(y, c, slice(at, at + _LANES), *scratch)
        lane = [lanes[..., i] for i in range(_LANES)]
        total = (((lane[0] + lane[1]) + (lane[2] + lane[3]))
                 + ((lane[4] + lane[5]) + (lane[6] + lane[7])))
    else:
        total, rest = _squares(y, c, start), start + 1
    if rest < stop:
        scratch = np.empty((2,) + total.shape)
        for at in range(rest, stop):
            total += _squares(y, c, at, *scratch)
    return total


def _squares(y, c, at, re=None, im=None):
    """|y - c|^2 at the antennas ``at`` (an index or a slice of the last
    axis): the real and the imaginary differences as two real arrays, fresh
    or the given ``re`` and ``im``, squared and added in place into ``re``."""
    yy, cc = y[..., at], c[..., at]
    re = np.subtract(yy.real, cc.real, out=re)
    im = np.subtract(yy.imag, cc.imag, out=im)
    re *= re
    im *= im
    re += im
    return re


@dataclass
class DetectionResult:
    """The decision of each row of an observation, with its leading axes
    (points, then blocks) on every per-row field: the codeword index
    ``alpha`` (...), the symbol labels (..., L) in ascending slot order, the
    index of the information phase, which is the surface bit (...), and the
    data bits ``ptx_bits`` (..., eta) that the codeword and labels carry;
    ``visited`` sums the hypotheses over the rows."""

    alpha: np.ndarray
    symbol_labels: np.ndarray
    ris_bit: np.ndarray
    ptx_bits: np.ndarray
    visited: int


def joint_search(info_cost, base, slot_index):
    """Indices (codeword, phase, labels (L,)) of the first least-metric
    hypothesis for each row of slot costs (..., J, M, K) and codeword bases
    (..., A), with the bases' leading axes (the costs' may be flattened).

    A metric is the codeword's base plus its L slot costs, added earliest
    slot first. Rounded addition is monotone, so each (codeword, phase) has
    the least metric base + least cost of each slot, bit for bit; the first
    pair at the global least holds the first least hypothesis, whose labels
    are, slot by slot, the first symbol whose least completion still
    reaches it. The slot minima are added one slot at a time, so the largest
    array is the (rows, A, J) sum; no (codeword, phase, slot) or (codeword,
    phase, symbol vector) tensor is built. The sum is searched as it lies,
    codeword-major: its least over phases, the first codeword at the least
    of those, then the first phase at that codeword; like one argmin over
    the flattened pairs, this takes the first NaN pair if any. Each least
    over the short symbol or phase axis folds ``np.minimum``: ``min`` bit
    for bit, not one output at a time."""
    lead, l_slots = np.shape(base)[:-1], slot_index.shape[1]
    info_cost = info_cost.reshape((-1,) + info_cost.shape[-3:])                 # (rows, J, M, K)
    base = base.reshape(-1, base.shape[-1])                                     # (rows, A)
    least = functools.reduce(np.minimum, np.moveaxis(info_cost, -2, 0))          # (rows, J, K)
    total = base[..., None]
    for pos in range(l_slots):
        total = total + np.swapaxes(least[..., slot_index[:, pos]], -1, -2)      # (rows, A, J)
    low = functools.reduce(np.minimum, np.moveaxis(total, -1, 0))                # (rows, A)
    alpha = np.argmin(low, axis=-1)
    row = np.arange(len(alpha))
    c = np.argmin(total[row, alpha], axis=-1)
    costs = info_cost[row[:, None], c[:, None], :, slot_index[alpha]]           # (rows, L, M)
    tail = functools.reduce(np.minimum, np.moveaxis(costs, -1, 0))               # (rows, L)
    partial, target = base[row, alpha], low[row, alpha]
    labels = []
    for pos in range(l_slots):
        step = partial[:, None] + costs[:, pos]                                  # (rows, M)
        reach = step
        for later in range(pos + 1, l_slots):
            reach = reach + tail[:, later, None]
        labels.append(np.argmax(reach == target[:, None], axis=-1))
        partial = step[row, labels[-1]]
    return alpha.reshape(lead), c.reshape(lead), np.stack(labels, -1).reshape(lead + (l_slots,))


def ml_joint_detect(obs: Observation, codebook: IndexCodebook, constellation: Constellation,
                    omega: complex, p_info_w: float, paper_compat: bool = False) -> DetectionResult:
    """Jointly minimize the block metric over every codeword, surface phase,
    and symbol vector; hypothesized power slots are scored against the known
    power sample. Every row is searched at once by :func:`joint_search`;
    the reported count is the |A|*J*M^L hypotheses per row it covers.

    With ``paper_compat`` only the hypothesized information slots are scored,
    dropping the power-slot terms (each codeword's base) from the metric.
    """
    info_cost, pow_cost = slot_costs(obs, constellation, p_info_w, omega)
    base = pow_cost.sum(-1)[..., None] - pow_cost[..., codebook.slot_index].sum(-1)  # (..., A)
    alpha, c, labels = joint_search(info_cost, np.zeros_like(base) if paper_compat else base,
                                    codebook.slot_index)
    visited = (alpha.size * len(codebook.slot_index) * info_cost.shape[-3]
               * constellation.m_order**codebook.l_slots)
    return DetectionResult(alpha, labels, c, block_bits(alpha, labels, codebook, constellation),
                           visited)


def llr_per_slot(info_cost, pow_cost, sigma2, k_slots: int, l_slots: int,
                 paper_compat: bool = False) -> np.ndarray:
    """Per-slot log-likelihood ratio of information versus power from slot
    costs (..., J, M, K) and (..., K) at noise variance ``sigma2``, a scalar
    or one per point (S,), the costs' first axis; the result is (..., K).

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
    if not np.all(np.asarray(sigma2) > 0):
        raise ValueError("the LLR detector needs a positive noise variance")
    sigma2 = np.reshape(sigma2, np.shape(sigma2) + (1,) * (pow_cost.ndim - np.ndim(sigma2)))
    xi = -info_cost / sigma2[..., None, None]
    delta_p = -pow_cost if paper_compat else -pow_cost / sigma2

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
    """Labels (..., L) and phase indices (...) on the selected 0-based slots
    (..., L) from the information-slot costs (..., J, M, K): those of
    :func:`joint_search` over that one codeword with a zero base, so bit for
    bit those of a full search over every symbol vector and phase."""
    flat = np.reshape(slots, (-1, np.shape(slots)[-1]))
    rows = info_cost.reshape((-1,) + info_cost.shape[-3:])
    costs = rows[np.arange(len(flat))[:, None], :, :, flat]                      # (rows, L, J, M)
    _, c, labels = joint_search(np.moveaxis(costs, 1, -1), np.zeros(np.shape(slots)[:-1] + (1,)),
                                np.arange(flat.shape[1])[None])
    return labels, c


def llr_detect(obs: Observation, codebook: IndexCodebook, constellation: Constellation,
               omega: complex, p_info_w: float, paper_compat: bool = False) -> DetectionResult:
    """Low-complexity pipeline: per-slot LLRs, legitimate-set slot selection,
    then the joint search over the selected codeword and bit recovery, all from one
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
