"""Time-index modulation at the transmitter: constellations, slot-index
codebooks, and block encode/decode.

A block of K slots carries L information symbols at the slots named by an
index codeword (conveying the index bits) and a deterministic power sample
omega in the remaining K - L slots. A codeword is its index ``alpha``, the
integer value of the index bits, and ``codebook.slot_index[alpha]`` holds
its 0-based slots; a symbol is its label. An encoded frame holds only what
goes on air: the slot mask, the samples and omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations, islice

import numpy as np

# Hand-fixed mapping for the (K=4, L=2) codebook preset: bit patterns
# 00, 01, 10, 11 in order; {1,2} and {3,4} are excluded.
TABLE1_CODEWORDS = ((1, 3), (1, 4), (2, 4), (2, 3))

CONSTELLATION_KINDS = ("qam", "psk")
CODEBOOK_STRATEGIES = ("lexicographic", "table1")


def bits_to_int(bits):
    """Big-endian bit sequence to integer (bits[0] is the MSB); rows of bits
    (..., n) give one integer per row."""
    bits = np.asarray(bits, dtype=np.int64)
    return bits @ (1 << np.arange(bits.shape[-1] - 1, -1, -1, dtype=np.int64))


def int_to_bits(values, width: int) -> np.ndarray:
    """Integers to big-endian bit vectors of the given width: values (...)
    give bits (..., width), bits[..., 0] the MSB."""
    return (np.asarray(values, dtype=np.int64)[..., None] >> np.arange(width - 1, -1, -1)) & 1


def index_bit_count(k_slots: int, l_slots: int) -> int:
    """floor(log2 C(K, L)) in exact integers: a (K, L) codebook's index bits."""
    return math.comb(k_slots, l_slots).bit_length() - 1


@dataclass(frozen=True, eq=False)
class Constellation:
    """Unit-average-power symbol set; ``points[label]`` is the symbol whose
    Gray-coded bit label equals ``label``, an integer of log2(M) bits. A
    constellation equals only itself: its array is not compared."""

    m_order: int
    points: np.ndarray

    @property
    def bits_per_symbol(self) -> int:
        return self.m_order.bit_length() - 1


def build_constellation(m_order: int, kind: str = "qam") -> Constellation:
    """Build a Gray-labeled M-PSK or square M-QAM constellation.

    The point set is scaled so the average power over all M points is
    exactly 1. QAM is supported for M = 2 (degenerates to BPSK) and square
    orders (4, 16, 64, ...); PSK for any power of two.
    """
    points = np.zeros(m_order, dtype=complex)
    if kind == "psk" or m_order == 2:
        k = np.arange(m_order)
        points[k ^ (k >> 1)] = np.exp(2j * np.pi * k / m_order)
    else:
        side = math.isqrt(m_order)
        levels = np.arange(-(side - 1), side, 2, dtype=float)
        k = np.arange(side)
        gray = k ^ (k >> 1)
        labels = (gray[:, None] << (side.bit_length() - 1)) | gray          # (in-phase, quadrature)
        points[labels] = levels[:, None] + 1j * levels
        points /= np.sqrt(np.mean(np.abs(points) ** 2))
    points.setflags(write=False)
    return Constellation(m_order, points)


@dataclass(frozen=True, eq=False)
class IndexCodebook:
    """The legitimate slot-index selections for one (K, L) layout.

    ``slot_index[a]`` holds the strictly increasing 0-based slots (L,) that
    the index-bit pattern with integer value ``a`` selects, one row per
    codeword; the pattern's bits are :func:`int_to_bits` (a, bits_index).
    A codebook equals only itself: its array is not compared.
    """

    k_slots: int
    l_slots: int
    bits_index: int
    slot_index: np.ndarray = field(repr=False)


def _make_codebook(k_slots, l_slots, bits_index, slot_index) -> IndexCodebook:
    slot_index = np.asarray(slot_index, dtype=np.int64).reshape(-1, l_slots)
    slot_index.setflags(write=False)
    return IndexCodebook(k_slots, l_slots, bits_index, slot_index)


def build_codebook(k_slots: int, l_slots: int, strategy: str = "lexicographic") -> IndexCodebook:
    """Build the legitimate set of 2^floor(log2 C(K, L)) index codewords.

    ``lexicographic`` keeps the first 2^(index bits) L-combinations of
    {1..K} in lexicographic order; ``table1`` is the hand-fixed preset for
    (K, L) = (4, 2).
    """
    bits_index = index_bit_count(k_slots, l_slots)
    if strategy == "table1":
        slot_index = np.array(TABLE1_CODEWORDS) - 1
    else:
        n_cw = 1 << bits_index
        stream = chain.from_iterable(islice(combinations(range(k_slots), l_slots), n_cw))
        slot_index = np.fromiter(stream, dtype=np.int64, count=n_cw * l_slots)
    return _make_codebook(k_slots, l_slots, bits_index, slot_index)


def build_benchmark_codebook(k_slots: int, l_slots: int) -> IndexCodebook:
    """Degenerate codebook for the no-index-modulation reference scheme: the
    first L slots always carry information, so no index bits are conveyed."""
    return _make_codebook(k_slots, l_slots, 0, np.arange(l_slots))


@dataclass(frozen=True)
class TimFrame:
    """Encoded blocks as they go on air: the slot mask ``tau`` (..., K), true
    at the slots that carry information, the K transmit samples (..., K) and
    the power sample ``omega`` in every other slot."""

    tau: np.ndarray
    samples: np.ndarray
    omega: complex


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
    sample omega with |omega|^2 = ``p_power_w``. Bits (..., eta) give the
    slot mask, true at the codeword's slots ``codebook.slot_index[alpha]``,
    and the samples, both (..., K).
    """
    bits = np.asarray(bits, dtype=np.int64)
    bps = constellation.bits_per_symbol

    alpha = bits_to_int(bits[..., : codebook.bits_index])
    labels = bits_to_int(bits[..., codebook.bits_index :].reshape(bits.shape[:-1] + (-1, bps)))
    slots = codebook.slot_index[alpha]
    omega = math.sqrt(p_power_w) * np.exp(1j * omega_phase)

    samples = np.full(bits.shape[:-1] + (codebook.k_slots,), omega, dtype=complex)
    np.put_along_axis(samples, slots, math.sqrt(p_info_w) * constellation.points[labels], -1)
    samples.setflags(write=False)
    tau = np.zeros(samples.shape, dtype=bool)
    np.put_along_axis(tau, slots, True, -1)
    return TimFrame(tau, samples, complex(omega))


def block_bits(alpha, labels, codebook: IndexCodebook, constellation: Constellation):
    """The eta bits of codeword ``alpha`` carrying symbol ``labels`` (in
    ascending slot order): the index bits of ``alpha``, then each label's
    bits; indices ``alpha`` (S,) with labels (S, L) give bits (S, eta)."""
    labels = np.asarray(labels)
    symbol_bits = int_to_bits(labels, constellation.bits_per_symbol)
    return np.concatenate([int_to_bits(alpha, codebook.bits_index),
                           symbol_bits.reshape(labels.shape[:-1] + (-1,))], axis=-1)


def decode_frame(tau, symbols, codebook: IndexCodebook, constellation: Constellation) -> np.ndarray:
    """Invert :func:`encode_block` from a slot mask (K,) and the L recovered
    unit-power symbols (in ascending slot order).

    Raises ``ValueError`` if ``tau`` does not match a codeword; detectors are
    expected never to produce one.
    """
    slots = np.flatnonzero(np.asarray(tau))
    rows = (np.flatnonzero((codebook.slot_index == slots).all(axis=-1))
            if slots.size == codebook.l_slots else ())
    if len(rows) == 0:
        raise ValueError(f"time-index selection {tuple((slots + 1).tolist())} is not a "
                         f"legitimate codeword")
    symbols = np.asarray(symbols, dtype=complex)
    labels = np.argmin(np.abs(constellation.points - symbols[:, None]), axis=-1)
    return block_bits(rows[0], labels, codebook, constellation)
