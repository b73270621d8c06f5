import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import codeword_index, codewords, loop_constellation_points
from timsr.txphy import (
    TABLE1_CODEWORDS,
    bits_to_int,
    build_benchmark_codebook,
    build_codebook,
    build_constellation,
    decode_frame,
    encode_block,
    int_to_bits,
)


class TestConstellation:
    def test_bpsk(self):
        c = build_constellation(2, "psk")
        np.testing.assert_allclose(c.points, [1.0, -1.0])

    def test_qam4_points(self):
        c = build_constellation(4, "qam")
        expected = {complex(a, b) / math.sqrt(2) for a in (-1, 1) for b in (-1, 1)}
        assert {complex(np.round(p, 12)) for p in c.points} == {
            complex(np.round(p, 12)) for p in expected
        }
        assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m,kind", [(4, "qam"), (16, "qam"), (64, "qam"), (8, "psk")])
    def test_unit_average_power(self, m, kind):
        c = build_constellation(m, kind)
        assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)
        assert len(set(np.round(c.points, 12))) == m

    def test_psk_gray_adjacency(self):
        c = build_constellation(8, "psk")
        # neighbors on the circle differ in exactly one label bit
        order = np.argsort(np.angle(c.points) % (2 * np.pi))
        for a, b in zip(order, np.roll(order, -1)):
            assert bin(int(a) ^ int(b)).count("1") == 1

    def test_qam16_gray_adjacency(self):
        c = build_constellation(16, "qam")
        pts = c.points * math.sqrt(10)  # back to odd-integer grid
        for i in range(16):
            for j in range(16):
                if abs(pts[i] - pts[j]) == pytest.approx(2.0, abs=1e-9):
                    assert bin(i ^ j).count("1") == 1

    @pytest.mark.parametrize("m,kind", [(2, "qam"), (4, "qam"), (16, "qam"), (64, "qam"),
                                        (256, "qam"), (1024, "qam"), (2, "psk"), (4, "psk"),
                                        (8, "psk"), (16, "psk"), (1024, "psk")])
    def test_points_equal_loop_reference(self, m, kind):
        # every point bit for bit, signs of zeros included
        got, want = build_constellation(m, kind).points, loop_constellation_points(m, kind)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


class TestCodebook:
    def test_table1_exact(self):
        cb = build_codebook(4, 2, "table1")
        assert codewords(cb) == TABLE1_CODEWORDS
        assert cb.bits_index == 2
        # bit rows of the mapping
        assert codewords(cb)[bits_to_int([0, 0])] == (1, 3)
        assert codewords(cb)[bits_to_int([0, 1])] == (1, 4)
        assert codewords(cb)[bits_to_int([1, 0])] == (2, 4)
        assert codewords(cb)[bits_to_int([1, 1])] == (2, 3)
        const = build_constellation(4, "qam")
        for excluded in ((1, 2), (3, 4)):
            with pytest.raises(ValueError):
                codeword_index(cb, excluded)
            message = re.escape(f"selection {excluded} is not a legitimate")
            with pytest.raises(ValueError, match=message):
                decode_frame(np.isin(np.arange(1, 5), excluded), const.points[[0, 0]], cb, const)

    def test_four_two_count_any_strategy(self):
        # C(4,2) = 6 combinations, floor(log2 6) = 2 index bits
        for strategy in ("table1", "lexicographic"):
            cb = build_codebook(4, 2, strategy)
            assert len(cb.slot_index) == 4
        # two codebooks of one layout are not confused
        assert build_codebook(4, 2, "table1") != build_codebook(4, 2)

    def test_eight_two_lexicographic(self):
        cb = build_codebook(8, 2)
        assert cb.bits_index == math.floor(math.log2(math.comb(8, 2)))
        assert cb.bits_index == 4
        assert len(cb.slot_index) == 16
        assert codewords(cb)[0] == (1, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 10), st.data())
    def test_codebook_properties(self, k, data):
        l = data.draw(st.integers(1, k - 1))
        cb = build_codebook(k, l)
        assert cb.bits_index == math.floor(math.log2(math.comb(k, l)))
        assert cb.slot_index.shape == (1 << cb.bits_index, l)
        assert len(set(codewords(cb))) == len(cb.slot_index)
        for cw in codewords(cb):
            assert len(cw) == l
            assert all(1 <= i <= k for i in cw)
            assert list(cw) == sorted(cw)

    def test_benchmark_codebook(self):
        cb = build_benchmark_codebook(8, 3)
        assert codewords(cb) == ((1, 2, 3),)
        assert cb.bits_index == 0
        full = build_benchmark_codebook(4, 4)
        assert codewords(full) == ((1, 2, 3, 4),)


class TestEncode:
    def test_fig_layout_six_three(self):
        cb = build_codebook(6, 3)
        const = build_constellation(4, "qam")
        assert (1, 3, 6) in codewords(cb)
        alpha = codeword_index(cb, (1, 3, 6))
        bits = np.concatenate([int_to_bits(alpha, cb.bits_index), np.zeros(6, dtype=np.int64)])
        frame = encode_block(bits, cb, const, 1.0, 2.0)
        np.testing.assert_array_equal(frame.tau, [1, 0, 1, 0, 0, 1])

    def test_eta_accounting_eight_two(self):
        cb = build_codebook(8, 2)
        const = build_constellation(4, "qam")
        eta = cb.bits_index + cb.l_slots * const.bits_per_symbol
        assert eta == 8  # 4 index bits + 2 symbols * 2 bits

    def test_power_slots_exact(self):
        cb = build_codebook(4, 2, "table1")
        const = build_constellation(4, "qam")
        p_low, p_high = 1.0, 2.51188643150958
        frame = encode_block(np.zeros(6, dtype=np.int64), cb, const, p_low, p_high)
        for k in range(4):
            if frame.tau[k] == 0:
                assert frame.samples[k] == frame.omega
                assert abs(frame.samples[k]) ** 2 == pytest.approx(p_high, rel=1e-12)
            else:
                assert abs(frame.samples[k]) ** 2 <= p_low + 1e-9

    def test_info_power_average(self):
        cb = build_codebook(4, 2, "table1")
        const = build_constellation(4, "qam")
        powers = []
        for v in range(1 << 6):
            frame = encode_block(int_to_bits(v, 6), cb, const, 3.0, 3.0)
            powers.extend(np.abs(frame.samples[frame.tau == 1]) ** 2)
        assert np.mean(powers) == pytest.approx(3.0, rel=1e-12)


class TestDecode:
    def test_roundtrip_exhaustive_table1(self):
        cb = build_codebook(4, 2, "table1")
        const = build_constellation(4, "qam")
        eta = cb.bits_index + cb.l_slots * const.bits_per_symbol
        for v in range(1 << eta):
            bits = int_to_bits(v, eta)
            frame = encode_block(bits, cb, const, 1.0, 2.0)
            symbols = frame.samples[frame.tau == 1]  # unit scale: p_info = 1
            np.testing.assert_array_equal(decode_frame(frame.tau, symbols, cb, const), bits)

    def test_specific_tau_bits(self):
        cb = build_codebook(4, 2, "table1")
        const = build_constellation(4, "qam")
        out = decode_frame([1, 0, 0, 1], const.points[[0, 0]], cb, const)
        np.testing.assert_array_equal(out[:2], [0, 1])

    def test_illegitimate_tau_rejected(self):
        cb = build_codebook(4, 2, "table1")
        const = build_constellation(4, "qam")
        for tau in ([1, 1, 0, 0], [1, 1, 1, 0], [0, 0, 0, 0]):
            with pytest.raises(ValueError, match="is not a legitimate codeword"):
                decode_frame(tau, const.points[[0, 0]], cb, const)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(3, 8), st.data())
    def test_roundtrip_random(self, k, data):
        l = data.draw(st.integers(1, k - 1))
        m = data.draw(st.sampled_from([2, 4, 16]))
        cb = build_codebook(k, l)
        const = build_constellation(m, "qam")
        eta = cb.bits_index + l * const.bits_per_symbol
        bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=eta, max_size=eta)))
        frame = encode_block(bits, cb, const, 1.0, 4.0)
        assert frame.tau.sum() == l
        assert tuple(np.flatnonzero(frame.tau) + 1) in codewords(cb)
        symbols = frame.samples[frame.tau == 1]
        np.testing.assert_array_equal(decode_frame(frame.tau, symbols, cb, const), bits)


def test_bit_helpers_inverse():
    for v in range(64):
        assert bits_to_int(int_to_bits(v, 6)) == v
        assert int_to_bits(v, 6).tolist() == [(v >> (5 - i)) & 1 for i in range(6)]
    values = np.arange(64).reshape(4, 2, 8)
    np.testing.assert_array_equal(bits_to_int(int_to_bits(values, 6)), values)
    assert int_to_bits(5, 0).shape == (0,)


@pytest.mark.parametrize("build, table", [
    (lambda: build_codebook(363, 2), "slot_index"),        # 2^16 codewords
    (lambda: build_constellation(2**16, "psk"), "points"),
], ids=["codebook", "constellation"])
def test_table_holds_only_its_array(build, table):
    # a codebook is its slot indices and a constellation its points: no
    # tuples, lookup or bit tables held beside them
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= getattr(built, table).nbytes + (64 << 10)


def test_constellation_equals_only_itself():
    # its points are not compared, so == gives a bool and does not raise
    a = build_constellation(2)
    assert (a == build_constellation(2)) is False and (a == a) is True

