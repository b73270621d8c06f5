"""Time-index modulation at the transmitter: constellations, slot-index
codebooks, and block encode/decode.

A block of K slots carries L information symbols at the slots named by an
index codeword (conveying the index bits) and a deterministic power sample
omega in the remaining K - L slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

# Hand-fixed mapping for the (K=4, L=2) codebook preset: bit patterns
# 00, 01, 10, 11 in order; {1,2} and {3,4} are excluded.
TABLE1_CODEWORDS = ((1, 3), (1, 4), (2, 4), (2, 3))


def bits_to_int(bits) -> int:
    """Big-endian bit sequence to integer (bits[0] is the MSB)."""
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def int_to_bits(value: int, width: int) -> np.ndarray:
    """Integer to big-endian bit vector of the given width."""
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.int64)


def _bit_table(count: int, width: int) -> np.ndarray:
    """Row v holds :func:`int_to_bits` (v, width), for v = 0..count-1."""
    table = (np.arange(count, dtype=np.int64)[:, None] >> np.arange(width - 1, -1, -1)) & 1
    table.setflags(write=False)
    return table


def _gray(n: int) -> int:
    return n ^ (n >> 1)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Constellation:
    """Unit-average-power symbol set; ``points[label]`` is the symbol whose
    Gray-coded bit label equals ``label``, and ``label_bits[label]`` holds
    that label's log2(M) bits."""

    m_order: int
    kind: str
    points: np.ndarray
    label_bits: np.ndarray = field(repr=False, compare=False, default=None)

    @property
    def bits_per_symbol(self) -> int:
        return self.m_order.bit_length() - 1

    def nearest_label(self, sample: complex) -> int:
        return int(np.argmin(np.abs(self.points - sample)))


def build_constellation(m_order: int, kind: str = "qam") -> Constellation:
    """Build a Gray-labeled M-PSK or square M-QAM constellation.

    The point set is scaled so the average power over all M points is
    exactly 1. QAM is supported for M = 2 (degenerates to BPSK) and square
    orders (4, 16, 64, ...); PSK for any power of two.
    """
    if not _is_power_of_two(m_order) or m_order < 2:
        raise ValueError(f"constellation order must be a power of two >= 2, got {m_order}")
    if kind not in ("psk", "qam"):
        raise ValueError(f"unknown constellation kind {kind!r}")

    points = np.zeros(m_order, dtype=complex)
    if kind == "psk" or m_order == 2:
        for k in range(m_order):
            points[_gray(k)] = np.exp(2j * np.pi * k / m_order)
    else:
        side = math.isqrt(m_order)
        if side * side != m_order or not _is_power_of_two(side):
            raise ValueError(f"square QAM needs M in (4, 16, 64, ...), got {m_order}")
        levels = np.arange(-(side - 1), side, 2, dtype=float)
        half = side.bit_length() - 1
        for ki in range(side):
            for kq in range(side):
                label = (_gray(ki) << half) | _gray(kq)
                points[label] = levels[ki] + 1j * levels[kq]
        points /= np.sqrt(np.mean(np.abs(points) ** 2))
    points.setflags(write=False)
    bps = m_order.bit_length() - 1
    return Constellation(m_order, kind, points, _bit_table(m_order, bps))


@dataclass(frozen=True)
class IndexCodebook:
    """The legitimate slot-index selections for one (K, L) layout.

    ``codewords[a]`` is the strictly increasing 1-based index tuple selected
    by the index-bit pattern with integer value ``a``; ``slot_index[a]``
    holds the same slots 0-based and ``index_bits[a]`` that bit pattern, one
    row per codeword.
    """

    k_slots: int
    l_slots: int
    codewords: tuple
    bits_index: int
    strategy: str
    _index: dict = field(repr=False, compare=False, default_factory=dict)
    slot_index: np.ndarray = field(repr=False, compare=False, default=None)
    index_bits: np.ndarray = field(repr=False, compare=False, default=None)

    def index_of(self, codeword) -> int:
        try:
            return self._index[tuple(codeword)]
        except KeyError:
            raise ValueError(
                f"time-index selection {tuple(codeword)} is not a legitimate codeword"
            ) from None

    def codeword_for_bits(self, bits) -> tuple:
        return self.codewords[bits_to_int(bits)]


def _make_codebook(k_slots, l_slots, codewords, bits_index, strategy) -> IndexCodebook:
    lookup = {cw: i for i, cw in enumerate(codewords)}
    slot_index = np.array(codewords, dtype=np.int64) - 1
    slot_index.setflags(write=False)
    return IndexCodebook(
        k_slots=k_slots,
        l_slots=l_slots,
        codewords=tuple(codewords),
        bits_index=bits_index,
        strategy=strategy,
        _index=lookup,
        slot_index=slot_index,
        index_bits=_bit_table(len(codewords), bits_index),
    )


def build_codebook(k_slots: int, l_slots: int, strategy: str = "lexicographic") -> IndexCodebook:
    """Build the legitimate set of 2^floor(log2 C(K, L)) index codewords.

    ``lexicographic`` keeps the first 2^(index bits) L-combinations of
    {1..K} in lexicographic order; ``table1`` is the hand-fixed preset for
    (K, L) = (4, 2).
    """
    if not 1 <= l_slots < k_slots:
        raise ValueError(f"need 1 <= L < K, got L={l_slots}, K={k_slots}")
    bits_index = int(math.floor(math.log2(math.comb(k_slots, l_slots))))
    if strategy == "table1":
        if (k_slots, l_slots) != (4, 2):
            raise ValueError("the table1 preset is defined only for K=4, L=2")
        codewords = TABLE1_CODEWORDS
    elif strategy == "lexicographic":
        count = 1 << bits_index
        codewords = []
        for cw in combinations(range(1, k_slots + 1), l_slots):
            codewords.append(cw)
            if len(codewords) == count:
                break
    else:
        raise ValueError(f"unknown codebook strategy {strategy!r}")
    return _make_codebook(k_slots, l_slots, codewords, bits_index, strategy)


def build_benchmark_codebook(k_slots: int, l_slots: int) -> IndexCodebook:
    """Degenerate codebook for the no-index-modulation reference scheme: the
    first L slots always carry information, so no index bits are conveyed."""
    if not 1 <= l_slots <= k_slots:
        raise ValueError(f"need 1 <= L <= K, got L={l_slots}, K={k_slots}")
    return _make_codebook(
        k_slots, l_slots, (tuple(range(1, l_slots + 1)),), 0, "benchmark"
    )


def codeword_to_tau(codeword, k_slots: int) -> np.ndarray:
    """0/1 slot-activity vector of length K with ones at the codeword slots."""
    tau = np.zeros(k_slots, dtype=np.int64)
    tau[np.asarray(codeword, dtype=np.int64) - 1] = 1
    return tau


@dataclass(frozen=True)
class TimFrame:
    """One encoded block: slot-activity vector, the K transmit samples, and
    the bits they carry."""

    tau: np.ndarray
    samples: np.ndarray
    index_bits: np.ndarray
    info_bits: np.ndarray
    codeword: tuple
    p_info_w: float
    p_power_w: float
    omega: complex

    @property
    def bits(self) -> np.ndarray:
        return np.concatenate([self.index_bits, self.info_bits])


def encode_block(
    bits,
    codebook: IndexCodebook,
    constellation: Constellation,
    p_info_w: float,
    p_power_w: float,
    omega_phase: float = 0.0,
) -> TimFrame:
    """Map eta = eta_index + L*log2(M) bits to a block of K samples.

    The leading index bits select the codeword; the remaining bits fill the
    selected slots in ascending slot order, log2(M) bits per symbol, scaled
    to power ``p_info_w``. All other slots carry the deterministic power
    sample omega with |omega|^2 = ``p_power_w``.
    """
    if p_power_w < p_info_w:
        raise ValueError("power-stage level must satisfy p_power_w >= p_info_w")
    bits = np.asarray(bits, dtype=np.int64)
    bps = constellation.bits_per_symbol
    eta = codebook.bits_index + codebook.l_slots * bps
    if bits.shape != (eta,):
        raise ValueError(f"expected {eta} bits, got shape {bits.shape}")

    index_bits = bits[: codebook.bits_index]
    info_bits = bits[codebook.bits_index :]
    codeword = codebook.codeword_for_bits(index_bits)
    omega = math.sqrt(p_power_w) * np.exp(1j * omega_phase)

    samples = np.full(codebook.k_slots, omega, dtype=complex)
    amp = math.sqrt(p_info_w)
    for pos, slot in enumerate(codeword):
        label = bits_to_int(info_bits[pos * bps : (pos + 1) * bps])
        samples[slot - 1] = amp * constellation.points[label]
    samples.setflags(write=False)

    return TimFrame(
        tau=codeword_to_tau(codeword, codebook.k_slots),
        samples=samples,
        index_bits=index_bits,
        info_bits=info_bits,
        codeword=codeword,
        p_info_w=p_info_w,
        p_power_w=p_power_w,
        omega=complex(omega),
    )


def block_bits(alpha: int, labels, codebook: IndexCodebook, constellation: Constellation):
    """The eta bits of codeword ``alpha`` carrying symbol ``labels`` (in
    ascending slot order), read from the codebook and label bit tables."""
    return np.concatenate(
        [codebook.index_bits[alpha], constellation.label_bits[list(labels)].ravel()]
    )


def decode_frame(tau, symbols, codebook: IndexCodebook, constellation: Constellation) -> np.ndarray:
    """Invert :func:`encode_block` from a slot-activity vector and the L
    recovered unit-power symbols (in ascending slot order).

    Raises ``ValueError`` if ``tau`` does not match a codeword; detectors are
    expected never to produce one.
    """
    codeword = tuple(int(i) + 1 for i in np.flatnonzero(np.asarray(tau)))
    labels = [constellation.nearest_label(s) for s in np.asarray(symbols, dtype=complex)]
    return block_bits(codebook.index_of(codeword), labels, codebook, constellation)
