"""Receiver-side processing: noise injection, the exhaustive joint detector,
and the low-complexity per-slot LLR pipeline.

The receiver knows the channel and the block's surface state. :func:`observe`
computes the effective receive channels h_d + F psi once, one per reflection
row ``psi`` of the surface state (each information phase, then the power
phase), and the :class:`Observation` carries them as ``eff``.
:func:`slot_costs` scores the received samples against them; every detector
stage is an array kernel over those slot costs.

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
from .ris import RisState
# Not called here: the "ris.align" span of perfbench/spans.py looks it up in this module.
from .ris import align_group1  # noqa: F401
from .txphy import Constellation, IndexCodebook, TimFrame, block_bits
# Not called here: the "txphy.decode" span of perfbench/spans.py looks it up in this module.
from .txphy import decode_frame  # noqa: F401


@dataclass
class Observation:
    """The K received vectors of one block plus what the receiver knows:
    the noise variance and the effective receive channels ``eff`` (J+1, M_R)
    h_d + F psi, one row per reflection row ``psi`` of the surface state:
    each information phase, then the power phase. A stacked observation
    holds samples (S, K, M_R) and variances (S,)."""

    y: np.ndarray
    sigma2: float | np.ndarray
    eff: np.ndarray

    def stacked(self) -> "Observation":
        """This observation with a leading point axis (S = 1 when unbatched)."""
        return self if self.y.ndim == 3 else Observation(
            self.y[None], np.reshape(self.sigma2, 1), self.eff)

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
        return Observation(y, s2 if s2.ndim else sigma2, self.eff)


def unit_noise(shape, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian noise with unit-variance real and imaginary parts;
    every real part is drawn before any imaginary part."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def observe(channel: ChannelRealization, frame: TimFrame, ris: RisState, sigma2: float,
            rng: np.random.Generator) -> Observation:
    """Propagate one block through the channel: direct path plus the
    surface-reflected path, under the block's information row of ``ris.psi``
    in information slots and the power row elsewhere, with white Gaussian
    noise of variance ``sigma2`` in every slot. The stream is drawn from
    only when ``sigma2 > 0``. The effective channels h_d + F psi are built
    here, one per row of ``psi``, and carried on the observation."""
    if sigma2 < 0:
        raise ValueError("noise variance cannot be negative")
    eff = np.stack([channel.h_d + channel.f_casc @ row for row in ris.psi])
    y = np.where(frame.tau[:, None] == 1, eff[ris.ris_bit], eff[-1]) * frame.samples[:, None]
    clean = Observation(y, 0.0, eff)
    return clean.with_noise(sigma2, unit_noise(y.shape, rng)) if sigma2 > 0 else clean


def slot_costs(obs: Observation, constellation: Constellation, p_info_w: float, omega: complex):
    """Squared distances of the received vectors ``obs.y`` (..., K, M_R) to
    every single-slot hypothesis: ``info_cost`` (..., J, M, K) for each
    (phase, symbol) pair at power ``p_info_w`` and ``pow_cost`` (..., K)
    for the power sample ``omega``."""
    scaled = math.sqrt(p_info_w) * constellation.points
    cand = obs.eff[:-1, None, :] * scaled[None, :, None]                 # (J, M, M_R)
    diff = obs.y[..., None, None, :, :] - cand[:, :, None, :]            # (..., J, M, K, M_R)
    info_cost = np.sum(diff.real**2 + diff.imag**2, axis=-1)
    dp = obs.y - obs.eff[-1] * omega
    return info_cost, np.sum(dp.real**2 + dp.imag**2, axis=-1)


@dataclass
class DetectionResult:
    """One block's decision. A stacked observation's result has a leading
    point axis on each per-point field: ``codeword`` (S, L) slots, labels and
    symbols (S, L), phase and bit (S,), ``ptx_bits`` (S, eta); ``visited``
    sums over the points."""

    codeword: tuple | np.ndarray
    symbol_labels: tuple | np.ndarray
    symbols: np.ndarray
    info_phase: float | np.ndarray
    ris_bit: int | np.ndarray
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
                    phase_pair, omega: complex, p_info_w: float,
                    paper_compat: bool = False) -> DetectionResult:
    """Jointly minimize the block metric over every codeword, surface phase,
    and symbol vector; hypothesized power slots are scored against the known
    power sample. The slot costs of every point are computed at once; the
    metric is built and searched one point at a time.

    With ``paper_compat`` only the hypothesized information slots are scored,
    dropping the power-slot terms from the metric.
    """
    costs = slot_costs(obs.stacked(), constellation, p_info_w, omega)
    shape = (len(codebook.codewords), len(phase_pair)) + (constellation.m_order,) * codebook.l_slots
    # C-order flat argmin == first minimum in (codeword, phase, symbols) order.
    flat = [int(np.argmin(joint_metric(*point, codebook.slot_index, paper_compat)))
            for point in zip(*costs)]
    a, c, *labels = np.unravel_index(flat, shape)
    return _result(obs, codebook, constellation, a, np.stack(labels, axis=-1), phase_pair, c, "ml",
                   len(flat) * math.prod(shape))


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
    """Codeword with the largest LLR sum over its slots, searched over the
    legitimate set only; ties resolve to the earliest codeword. For LLR rows
    (S, K) the result is each row's codeword index (S,)."""
    alpha = np.argmax(llr[..., codebook.slot_index].sum(axis=-1), axis=-1)
    return alpha if llr.ndim > 1 else codebook.codewords[int(alpha)]


def ml_symbol_phase(info_cost, slots, phase_pair):
    """Joint symbol/phase decision on the already-selected information slots
    from the information-slot costs (..., J, M, K).

    For each candidate surface phase the per-slot symbol search factorizes,
    so only J*M*L metrics are evaluated; the result equals a full search
    over all symbol vectors and phases. Slots (S, L) and costs (S, J, M, K)
    give one decision per point.
    """
    slots0 = np.asarray(slots, dtype=np.int64) - 1
    costs = np.take_along_axis(info_cost, slots0[..., None, None, :], axis=-1)   # (..., J, M, L)
    labels = np.argmin(costs, axis=-2)                           # first minimum per slot
    c = np.argmin(costs.min(axis=-2).sum(axis=-1), axis=-1)      # first minimum over phases
    labels = np.take_along_axis(labels, c[..., None, None], axis=-2)[..., 0, :]
    if c.ndim:
        return labels, np.asarray(phase_pair)[c], c, costs.size
    return tuple(int(x) for x in labels), float(phase_pair[c]), int(c), costs.size


def llr_detect(obs: Observation, codebook: IndexCodebook, constellation: Constellation,
               phase_pair, omega: complex, p_info_w: float,
               paper_compat: bool = False) -> DetectionResult:
    """Low-complexity pipeline: per-slot LLRs, legitimate-set slot selection,
    then the factorized symbol/phase search and bit recovery, all from one
    set of slot costs for every point at once. The reported hypothesis count
    is the K*(J*M + 1) metric evaluations of the LLR stage per point."""
    points = obs.stacked()
    info_cost, pow_cost = slot_costs(points, constellation, p_info_w, omega)
    llr = llr_per_slot(info_cost, pow_cost, points.sigma2, codebook.k_slots, codebook.l_slots,
                       paper_compat)
    alpha = select_info_slots(llr, codebook)
    labels, _, c, _ = ml_symbol_phase(info_cost, codebook.slot_index[alpha] + 1, phase_pair)
    visited = len(points.y) * codebook.k_slots * (len(phase_pair) * constellation.m_order + 1)
    return _result(obs, codebook, constellation, alpha, labels, phase_pair, c, "llr", visited)
