import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_observation, draw_channel, draw_noise
from oracles import (
    _effective,
    broadcast_slot_costs,
    codewords,
    direct_llr,
    direct_log_sum_exp,
    jacobian_log_sum,
    loop_bases,
    loop_joint_metric,
    naive_joint_search,
    naive_symbol_phase,
    recursive_llr,
)

from timsr import make_config
from timsr.channel import group_cascades
from timsr.ris import PHI_INFO, align_group1, make_ris_state
from timsr.rx import (
    Observation,
    joint_search,
    llr_detect,
    llr_per_slot,
    ml_joint_detect,
    ml_symbol_phase,
    observe,
    select_info_slots,
    slot_costs,
    unit_noise,
)
from timsr.sim import direct_snr_sigma2, make_context, trial_rng
from timsr.txphy import (
    block_bits,
    build_benchmark_codebook,
    build_codebook,
    build_constellation,
    encode_block,
    int_to_bits,
)


class TestObserve:
    def test_noiseless_superposition(self, small_cfg):
        ctx, obs, frame, state, _, _, ch = build_observation(small_cfg, snr_db=0.0)
        # rebuild with zero noise and check the exact per-slot composition
        clean = observe(ch, (small_cfg.n1, small_cfg.n2), frame, state)
        f_casc = group_cascades(ch.G_d, ch.h_r, small_cfg.n1, (small_cfg.n2,))[0]
        for k in range(small_cfg.k_slots):
            eff = ch.h_d + f_casc @ state.psi[state.ris_bit if frame.tau[k] else -1]
            np.testing.assert_allclose(clean.y[k], eff * frame.samples[k], rtol=1e-12)

    def test_no_reflection_reduces_to_direct(self, small_cfg):
        ctx, obs, frame, state, _, _, ch = build_observation(small_cfg, snr_db=0.0)
        ch.G_d = np.zeros_like(ch.G_d)
        clean = observe(ch, (small_cfg.n1, small_cfg.n2), frame, state)
        for k in range(small_cfg.k_slots):
            np.testing.assert_allclose(clean.y[k], ch.h_d * frame.samples[k], rtol=1e-12)

    def test_deterministic(self, small_cfg):
        _, a, *_ = build_observation(small_cfg, snr_db=5.0, trial=3)
        _, b, *_ = build_observation(small_cfg, snr_db=5.0, trial=3)
        np.testing.assert_array_equal(a.y, b.y)

    def test_negative_variance_rejected(self, small_cfg):
        ctx, obs, frame, state, _, _, ch = build_observation(small_cfg, snr_db=0.0)
        with pytest.raises(ValueError):
            observe(ch, (small_cfg.n1, small_cfg.n2), frame, state).with_noise(
                -1.0, draw_noise(obs.y.shape, trial_rng(0, 0)))

    @pytest.mark.parametrize("bad", [-1.0, (-1.0, 0.5), (0.5, math.nan), math.nan, 0.0,
                                     (0.5, 0.0)])
    def test_with_noise_rejects_negative_or_nan_variance(self, small_cfg, bad):
        _, obs, *_ = build_observation(small_cfg, snr_db=0.0)
        with pytest.raises(ValueError, match="noise variance must be > 0"):
            obs.with_noise(bad, draw_noise(obs.y.shape, trial_rng(0, 0)))

    def test_noise_statistics(self, small_cfg):
        # every slot carries circularly symmetric noise of the set variance
        ctx, obs, frame, state, _, _, ch = build_observation(small_cfg, snr_db=0.0)
        sigma2 = 0.5
        rng = trial_rng(0, 0)
        residuals = []
        for _ in range(2000):
            noisy = observe(ch, (small_cfg.n1, small_cfg.n2), frame, state).with_noise(
                sigma2, draw_noise(obs.y.shape, rng))
            clean = observe(ch, (small_cfg.n1, small_cfg.n2), frame, state)
            residuals.append((noisy.y - clean.y).ravel())
        z = np.concatenate(residuals)
        assert np.mean(np.abs(z) ** 2) == pytest.approx(sigma2, rel=0.02)
        assert abs(np.mean(z)) < 0.01
        # power slots are noisy too, not only information slots
        power_rows = np.flatnonzero(frame.tau == 0)
        zp = (noisy.y - clean.y)[power_rows]
        assert np.all(np.abs(zp) > 0)


class TestObservationChannels:
    """The observation carries the effective receive channels the detectors
    score against: one row per information phase, then the power phase."""

    @pytest.mark.parametrize("overrides", [
        dict(),
        dict(k_slots=4, l_slots=2, codebook_strategy="table1"),
        dict(los_phase_policy="per-entry"),
        dict(los_phase_policy="zero"),
    ], ids=["default", "table1", "per_entry", "zero"])
    def test_eff_equals_oracle_at_aligned_phase(self, overrides):
        cfg = make_config(trials=1, **overrides)
        for trial in range(5):
            _, obs, *_, ch = build_observation(cfg, snr_db=10.0, trial=trial)
            eff_info, eff_power = _effective(ch, (cfg.n1, cfg.n2),
                                             align_group1(ch, cfg.n1, PHI_INFO))
            assert obs.eff.shape == (len(PHI_INFO) + 1, cfg.m_rx)
            np.testing.assert_array_equal(obs.eff, np.stack(eff_info + [eff_power]))

    def test_noise_and_stacking_keep_eff(self, small_cfg):
        _, obs, *_ = build_observation(small_cfg, snr_db=5.0)
        unit = draw_noise(obs.y.shape, trial_rng(0, 0))
        for derived in (obs.with_noise(0.5, unit), obs.with_noise((0.5, 0.25), unit)):
            np.testing.assert_array_equal(derived.eff, obs.eff)


class TestSlotCosts:
    """The kernel and the oracle are two expressions of the slot costs that
    must agree bit for bit: the kernel adds one antenna's (or one step of 8
    antennas') squared distances at a time into running sums, in the order
    of ``np.sum`` over a contiguous axis; the oracle forms every real-part
    difference at once from strided views and sums over the antennas with
    ``np.sum``, whose order changes at 8 antennas (8 running sums, then the
    antennas left over) and beyond 128 (halves, halved again beyond 256)."""

    @pytest.mark.parametrize("m_rx", [1, 2, 4, 7, 8, 9, 15, 16, 17, 20, 128, 129, 136, 256, 257, 300])
    @pytest.mark.parametrize("lead, points", [((), ()), ((3,), ()), ((3,), (2,))],
                             ids=["one_block", "blocks", "points"])
    @pytest.mark.parametrize("k_slots, m_order", [(1, 2), (5, 4)])
    def test_equals_broadcast_sum(self, m_rx, lead, points, k_slots, m_order):
        rng = np.random.default_rng(m_rx)

        def cn(*shape):   # magnitudes over six decades, so the order of addition shows
            scale = 10.0 ** rng.uniform(-3, 3, shape)
            return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

        obs = Observation(cn(*lead, *points, k_slots, m_rx), 1.0, cn(*lead, 3, m_rx))
        args = (build_constellation(m_order), 1.7, 0.3 - 0.2j)
        for got, want in zip(slot_costs(obs, *args), broadcast_slot_costs(obs, *args)):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    def test_no_antenna_axis_is_held(self):
        # 20 blocks at 14 points, K = 16, M = 4, J = 2. The candidates
        # (..., J, M, M_R) still grow with the antennas, but are K * S times
        # fewer than the differences.
        rng = np.random.default_rng(5)
        constellation = build_constellation(4)

        def peak(m_rx):
            obs = Observation(rng.standard_normal((20, 14, 16, m_rx)) + 0j, 1.0,
                              rng.standard_normal((20, 3, m_rx)) + 0j)
            tracemalloc.start()
            try:
                slot_costs(obs, constellation, 1.7, 0.3 - 0.2j)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(128) <= 1.1 * peak(16)
        assert peak(4) < 2 * 20 * 14 * 2 * 4 * 16 * 4 * 8    # 2 * S * J * M * K * M_R float64


class TestJacobianLogSum:
    def test_equal_operands(self):
        assert jacobian_log_sum(3.5, 3.5) == pytest.approx(3.5 + math.log(2), rel=1e-15)

    def test_degenerate_operand(self):
        assert jacobian_log_sum(0.0, -math.inf) == 0.0
        assert jacobian_log_sum(-math.inf, -2.0) == -2.0
        assert jacobian_log_sum(-math.inf, -math.inf) == -math.inf

    def test_reference_value(self):
        # ln(e^1 + e^2)
        assert jacobian_log_sum(1.0, 2.0) == pytest.approx(2.3132616875182228, rel=1e-12)

    def test_no_overflow(self):
        assert jacobian_log_sum(1e5, 1e5 - 1) == pytest.approx(1e5 + math.log1p(math.e**-1))

    @settings(max_examples=200)
    @given(a=st.floats(-700, 700), b=st.floats(-700, 700))
    def test_matches_logaddexp(self, a, b):
        assert jacobian_log_sum(a, b) == pytest.approx(np.logaddexp(a, b), rel=1e-12)


class TestMlJointDetect:
    def _detect(self, ctx, obs, frame, cfg, **kw):
        return ml_joint_detect(
            obs,
            ctx.codebook,
            ctx.constellation,
            frame.omega,
            cfg.p_low_w,
            **kw,
        )

    def test_noiseless_recovers_every_tuple(self, small_cfg):
        cfg = small_cfg
        ctx = make_context(cfg, None)
        rng = trial_rng(cfg.seed, 11)
        ch = draw_channel(ctx.channel_model, rng)
        eta = ctx.codebook.bits_index + cfg.l_slots * ctx.constellation.bits_per_symbol
        for v in range(1 << eta):
            bits = int_to_bits(v, eta)
            frame = encode_block(bits, ctx.codebook, ctx.constellation, cfg.p_low_w, cfg.p_high_w)
            for ris_bit in (0, 1):
                state = make_ris_state(ch, cfg.n1, ris_bit)
                obs = observe(ch, (cfg.n1, cfg.n2), frame, state)
                det = self._detect(ctx, obs, frame, cfg)
                assert np.array_equal(ctx.codebook.slot_index[det.alpha], np.flatnonzero(frame.tau))
                assert np.array_equal(det.ptx_bits, bits)
                assert det.ris_bit == ris_bit

    def test_visited_counts(self):
        for (k, l, strategy), expected in {
            (8, 2, "lexicographic"): 16 * 2 * 16,  # 512
            (4, 2, "table1"): 4 * 2 * 16,          # 128
        }.items():
            cfg = make_config(k_slots=k, l_slots=l, codebook_strategy=strategy, trials=1)
            ctx, obs, frame, *_ = build_observation(cfg, snr_db=10.0)
            det = self._detect(ctx, obs, frame, cfg)
            assert det.visited == expected
            # J is read off the observation: a third information row gives |A| * 3 * M^L
            obs = _three_phase(obs)
            det = self._detect(ctx, obs, frame, cfg)
            assert det.visited == expected // 2 * 3
            info_cost, pow_cost = _costs(ctx, obs, frame, cfg)
            _assert_search_equals_loop(info_cost, pow_cost, ctx.codebook)
            np.testing.assert_array_equal(
                [det.alpha, det.ris_bit, *det.symbol_labels],
                np.hstack(joint_search(info_cost, loop_bases(pow_cost, ctx.codebook),
                                       ctx.codebook.slot_index)))

    def test_matches_naive_oracle(self, small_cfg):
        cfg = small_cfg
        for trial in range(100):
            ctx, obs, frame, *_, ch = build_observation(cfg, snr_db=-5.0, trial=trial)
            det = self._detect(ctx, obs, frame, cfg)
            cw, c, labels, metric = naive_joint_search(
                obs, ch, (cfg.n1, cfg.n2), ctx.codebook, ctx.constellation, frame.omega,
                cfg.p_low_w,
            )
            assert codewords(ctx.codebook)[det.alpha] == cw
            assert det.ris_bit == c
            assert tuple(det.symbol_labels) == labels

    def test_paper_compat_scores_info_slots_only(self, small_cfg):
        cfg = small_cfg
        ctx, obs, frame, *_ = build_observation(cfg, snr_db=0.0, trial=5)
        full = self._detect(ctx, obs, frame, cfg)
        lit = self._detect(ctx, obs, frame, cfg, paper_compat=True)
        assert full.visited == lit.visited
        # at zero noise both variants still recover the transmitted block
        ctx2, obs2, frame2, state2, bits2, rb2, _ = build_observation(cfg, snr_db=200.0, trial=5)
        det = ml_joint_detect(
            obs2, ctx2.codebook, ctx2.constellation, frame2.omega, cfg.p_low_w, paper_compat=True,
        )
        assert np.array_equal(det.ptx_bits, bits2)


class TestLlrPerSlot:
    def _llr(self, ctx, obs, frame, cfg, **kw):
        return llr_per_slot(
            *slot_costs(obs, ctx.constellation, cfg.p_low_w, frame.omega),
            obs.sigma2,
            cfg.k_slots,
            cfg.l_slots,
            **kw,
        )

    def test_prior_offset_shift(self):
        # same observation scored under L=2 and L=4 priors differs exactly by
        # [ln(16) - ln(16)] - [ln(4) - ln(36)] = ln(36) - ln(4)
        cfg = make_config(k_slots=8, l_slots=2, trials=1)
        ctx, obs, frame, *_ = build_observation(cfg, snr_db=5.0)
        base = self._llr(ctx, obs, frame, cfg)
        shifted = llr_per_slot(
            *slot_costs(obs, ctx.constellation, cfg.p_low_w, frame.omega), obs.sigma2, 8, 4,
        )
        np.testing.assert_allclose(shifted - base, math.log(36.0) - math.log(4.0), rtol=1e-9)
        assert math.log(4.0) - math.log(36.0) == pytest.approx(-2.1972245773362196)

    def test_symmetric_prior_is_zero_offset(self):
        assert math.log(2**2) - math.log((4 - 2) ** 2) == 0.0

    def test_recursion_matches_direct_logsumexp(self, small_cfg):
        # (4, 2) has a zero slot prior, (8, 2) the prior ln(4) - ln(36)
        for cfg in (small_cfg, make_config(k_slots=8, l_slots=2, trials=1)):
            for trial, snr in enumerate((-10.0, 0.0, 10.0, 20.0, 30.0)):
                ctx, obs, frame, *_, ch = build_observation(cfg, snr_db=snr, trial=trial)
                got = self._llr(ctx, obs, frame, cfg)
                want = direct_llr(
                    obs, ch, (cfg.n1, cfg.n2), ctx.constellation, frame.omega, cfg.k_slots,
                    cfg.l_slots, cfg.p_low_w,
                )
                np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_zero_variance_rejected(self, small_cfg):
        ctx, obs, frame, state, _, _, ch = build_observation(small_cfg, snr_db=0.0)
        clean = observe(ch, (small_cfg.n1, small_cfg.n2), frame, state)
        with pytest.raises(ValueError):
            self._llr(ctx, clean, frame, small_cfg)

    def test_high_snr_slot_separation(self):
        cfg = make_config(k_slots=8, l_slots=2, trials=1)
        correct = total = 0
        for trial in range(100):
            ctx, obs, frame, *_ = build_observation(cfg, snr_db=30.0, trial=trial)
            llr = self._llr(ctx, obs, frame, cfg)
            correct += int(np.all(llr[frame.tau == 1] > 0) and np.all(llr[frame.tau == 0] < 0))
            total += 1
        assert correct / total >= 0.99


class TestSelectInfoSlots:
    CB = build_codebook(4, 2, "table1")

    def test_dominant_legitimate_pair(self):
        alpha = select_info_slots(np.array([9.0, 0.0, 8.0, 0.0]), self.CB)
        assert codewords(self.CB)[alpha] == (1, 3)

    def test_never_returns_excluded_pair(self):
        # the two largest LLRs {1,2} are not a codeword; the max legitimate
        # sum is 9, shared by (1,3) and (1,4); first codeword order wins
        got = codewords(self.CB)[select_info_slots(np.array([9.0, 8.0, 0.0, 0.0]), self.CB)]
        assert got != (1, 2)
        assert got in ((1, 3), (1, 4))
        assert got == (1, 3)

    def test_all_equal_takes_first_codeword(self):
        assert select_info_slots(np.zeros(4), self.CB) == 0

    def test_single_slot_layout(self):
        cb = build_codebook(4, 1)
        assert codewords(cb)[select_info_slots(np.array([0.0, 5.0, 1.0, 2.0]), cb)] == (2,)

    def test_matches_per_codeword_loop(self):
        # reference: each codeword's LLR sum in codebook order, first maximum
        # wins; the row sums must agree bit for bit
        rng = np.random.default_rng(0)
        for k, l in ((4, 2), (8, 2), (8, 4), (12, 5)):
            cb = build_codebook(k, l)
            for _ in range(50):
                llr = 10.0 * rng.standard_normal(k)
                sums = np.array([llr[np.asarray(cw) - 1].sum() for cw in codewords(cb)])
                np.testing.assert_array_equal(llr[cb.slot_index].sum(axis=1), sums)
                assert select_info_slots(llr, cb) == int(np.argmax(sums))


class TestMlSymbolPhase:
    def test_noiseless_exact(self, small_cfg):
        cfg = small_cfg
        ctx, obs, frame, state, bits, ris_bit, _ = build_observation(cfg, snr_db=200.0, trial=2)
        labels, c = ml_symbol_phase(slot_costs(obs, ctx.constellation, cfg.p_low_w, 0.0)[0],
                                    np.flatnonzero(frame.tau))
        assert c == ris_bit
        sent = [int(np.argmin(np.abs(ctx.constellation.points - s / math.sqrt(cfg.p_low_w))))
                for s in frame.samples[frame.tau == 1]]
        assert list(labels) == sent

    def test_matches_full_product_search(self, small_cfg):
        # at L = 8 np.sum would add the phase sums pairwise, not slot by slot
        for cfg in (small_cfg, make_config(k_slots=9, l_slots=8, m_order=2, constellation="psk",
                                           trials=1)):
            for trial in range(60):
                ctx, obs, frame, *_, ch = build_observation(cfg, snr_db=-5.0, trial=trial)
                slots = np.flatnonzero(frame.tau)
                labels, c = ml_symbol_phase(
                    slot_costs(obs, ctx.constellation, cfg.p_low_w, 0.0)[0], slots)
                want_c, want_labels, _ = naive_symbol_phase(
                    obs, ch, (cfg.n1, cfg.n2), slots, ctx.constellation, cfg.p_low_w,
                )
                assert (c, tuple(labels)) == (want_c, want_labels)

    def test_rounding_tie_takes_first_labels(self):
        # 2^53 plus any of slot 0's costs rounds to 2^53: every label vector
        # ties, so labels (0, 0) come first, though label 1 is slot 0's least
        info_cost = np.full((2, 4, 3), 2.0**53)
        info_cost[:, :, 0] = (0.5, 0.25, 1.0, 1.0)
        info_cost[:, :, 2] = 0.0                           # not a selected slot
        labels, c = _assert_symbol_phase_equals_loop(info_cost, (0, 1))
        assert (int(c), labels.tolist()) == (0, [0, 0])

    def test_phase_sums_add_slot_by_slot(self):
        # 2^-53 added to 1 rounds away, but eight of them add to 2^-50 first:
        # slot by slot, phase 0 sums to 1 + 2^-50 and phase 1 to 1, where
        # np.sum's pairwise order at L = 9 rounds both to 1 + 2^-50
        tiny = 2.0**-53
        info_cost = np.full((2, 2, 9), 4.0)
        info_cost[0, 0] = [tiny] * 8 + [1.0]
        info_cost[1, 0] = [1.0] + [tiny] * 8
        labels, c = _assert_symbol_phase_equals_loop(info_cost, tuple(range(9)))
        assert (int(c), labels.tolist()) == (1, [0] * 9)


class TestLlrDetect:
    def _detect(self, ctx, obs, frame, cfg):
        return llr_detect(
            obs, ctx.codebook, ctx.constellation, frame.omega, cfg.p_low_w, cfg.paper_compat,
        )

    def test_visited_count_eight_two(self):
        cfg = make_config(k_slots=8, l_slots=2, trials=1)
        ctx, obs, frame, *_ = build_observation(cfg, snr_db=10.0)
        det = self._detect(ctx, obs, frame, cfg)
        assert det.visited == 8 * (2 * 4 + 1)  # 72
        assert 1 - 72 / 512 == pytest.approx(0.859375)

    def test_near_noiseless_recovery_exhaustive(self, small_cfg):
        cfg = small_cfg
        ctx = make_context(cfg, None)
        rng = trial_rng(cfg.seed, 31)
        ch = draw_channel(ctx.channel_model, rng)
        sigma2 = 1e-12 * cfg.p_low_w * float(np.mean(np.abs(ch.h_d) ** 2))
        eta = ctx.codebook.bits_index + cfg.l_slots * ctx.constellation.bits_per_symbol
        for v in range(1 << eta):
            bits = int_to_bits(v, eta)
            frame = encode_block(bits, ctx.codebook, ctx.constellation, cfg.p_low_w, cfg.p_high_w)
            state = make_ris_state(ch, cfg.n1, v % 2)
            clean = observe(ch, (cfg.n1, cfg.n2), frame, state)
            obs = clean.with_noise(sigma2, draw_noise(clean.y.shape, rng))
            det = self._detect(ctx, obs, frame, cfg)
            assert np.array_equal(det.ptx_bits, bits)
            assert det.ris_bit == v % 2

    def test_codeword_always_legitimate(self):
        cfg = make_config(k_slots=8, l_slots=2, trials=1)
        ctx = make_context(cfg, direct_snr_sigma2(cfg, -10.0))  # deep noise
        for trial in range(2000):
            rng = trial_rng(cfg.seed, trial)
            ch = draw_channel(ctx.channel_model, rng)
            bits = rng.integers(0, 2, 8)
            frame = encode_block(bits, ctx.codebook, ctx.constellation, cfg.p_low_w, cfg.p_high_w)
            state = make_ris_state(ch, cfg.n1, int(rng.integers(0, 2)))
            clean = observe(ch, (cfg.n1, cfg.n2), frame, state)
            obs = clean.with_noise(ctx.sigma2, draw_noise(clean.y.shape, rng))
            det = self._detect(ctx, obs, frame, cfg)
            assert 0 <= det.alpha < len(ctx.codebook.slot_index)

    def test_agrees_with_ml_at_high_snr(self):
        cfg = make_config(k_slots=8, l_slots=2, trials=1)
        agree = total = 0
        for trial in range(200):
            ctx, obs, frame, *_ = build_observation(cfg, snr_db=25.0, trial=trial)
            d_llr = self._detect(ctx, obs, frame, cfg)
            d_ml = ml_joint_detect(
                obs, ctx.codebook, ctx.constellation, frame.omega, cfg.p_low_w,
            )
            agree += int(
                d_llr.alpha == d_ml.alpha
                and np.array_equal(d_llr.symbol_labels, d_ml.symbol_labels)
                and d_llr.ris_bit == d_ml.ris_bit
            )
            total += 1
        assert agree / total >= 0.95


def _costs(ctx, obs, frame, cfg):
    """The observation's slot costs, computed the way both detectors compute
    them."""
    return slot_costs(obs, ctx.constellation, cfg.p_low_w, frame.omega)


def _three_phase(obs):
    """The observation with a third information row of ``eff``, the mean of
    the other two, before the power row: the detectors read J = 3 from it."""
    eff = np.concatenate([obs.eff[:-1], obs.eff[:-1].mean(axis=0, keepdims=True), obs.eff[-1:]])
    return Observation(obs.y, obs.sigma2, eff)


def _assert_search_equals_loop(info_cost, pow_cost, codebook, paper_compat=False):
    """The factored joint search picks the first minimum of the loop-built
    (A, J, M^L) metric: its codeword, phase and symbol labels. Returns that
    metric."""
    metric = loop_joint_metric(info_cost, pow_cost, codebook, paper_compat)
    a, c, flat = np.unravel_index(int(np.argmin(metric)), metric.shape)
    want_labels = np.unravel_index(flat, (info_cost.shape[1],) * codebook.l_slots)
    base = loop_bases(pow_cost, codebook, paper_compat)
    alpha, phase, labels = joint_search(info_cost, base, codebook.slot_index)
    np.testing.assert_array_equal([alpha, phase, *labels], [a, c, *want_labels])
    return metric


def _assert_symbol_phase_equals_loop(info_cost, slots):
    """The symbol/phase stage picks the first minimum of the loop-built
    (J, M^L) metric of the one codeword ``slots`` with no power-slot base:
    its phase and symbol labels. Returns them."""
    one = SimpleNamespace(slot_index=np.array([slots]), l_slots=len(slots))
    metric = loop_joint_metric(info_cost, np.zeros(info_cost.shape[-1]), one, paper_compat=True)
    _, c, flat = np.unravel_index(int(np.argmin(metric)), metric.shape)
    want_labels = np.unravel_index(flat, (info_cost.shape[1],) * len(slots))
    labels, phase = ml_symbol_phase(info_cost, slots)
    np.testing.assert_array_equal([phase, *labels], [c, *want_labels])
    return labels, phase


class TestArrayKernels:
    """The array kernels equal the per-hypothesis loops bit for bit."""

    @pytest.mark.parametrize("overrides", [
        dict(l_slots=4),
        dict(k_slots=4, l_slots=2, codebook_strategy="table1"),
        dict(k_slots=4, l_slots=1, m_order=2, constellation="psk"),
        dict(k_slots=6, l_slots=1, m_order=16),
        dict(scheme="benchmark", l_slots=3),
    ])
    @pytest.mark.parametrize("paper_compat", [False, True])
    def test_joint_metric_equals_loop(self, overrides, paper_compat):
        cfg = make_config(trials=1, **overrides)
        for trial in range(5):
            ctx, obs, frame, *_ = build_observation(cfg, snr_db=0.0, trial=trial)
            assert len(ctx.codebook.slot_index) == (1 if cfg.scheme == "benchmark" else
                                                   1 << ctx.codebook.bits_index)
            info_cost, pow_cost = _costs(ctx, obs, frame, cfg)
            _assert_search_equals_loop(info_cost, pow_cost, ctx.codebook, paper_compat)

    def test_joint_metric_random_costs(self):
        rng = np.random.default_rng(3)
        ulp = np.finfo(float).eps
        for k, l, m in ((8, 4, 4), (12, 5, 2), (8, 2, 16)):
            cb = build_codebook(k, l)
            spread = rng.exponential(size=(2, m, k)) * 10.0 ** rng.integers(-3, 4)
            # entries 1 ulp apart: partial sums round equal, so rows tie often
            close = 1.0 + ulp * rng.integers(0, 3, size=(2, m, k))
            for info_cost in (spread, close):
                for pow_cost in (rng.exponential(size=k), 1.0 + ulp * rng.integers(0, 3, size=k)):
                    for paper_compat in (False, True):
                        _assert_search_equals_loop(info_cost, pow_cost, cb, paper_compat)

    def test_tied_metric_takes_first_minimum(self):
        # integer costs add exactly; the minimum 0 is reached by codewords
        # (1,4) and (2,4) under both phases, each with symbols (2, 1); the
        # enumeration order picks codeword index 1, phase 0, labels (2, 1)
        cb = build_codebook(4, 2, "table1")               # (1,3) (1,4) (2,4) (2,3)
        info_cost = np.ones((2, 4, 4))
        pow_cost = np.zeros(4)
        info_cost[:, 2, 0] = 0.0                           # slot 1 fits symbol 2
        info_cost[:, 1, 3] = 0.0                           # slot 4 fits symbol 1
        info_cost[:, 2, 1] = 0.0                           # slot 2 fits symbol 2
        metric = _assert_search_equals_loop(info_cost, pow_cost, cb)
        assert np.count_nonzero(metric == 0.0) == 4
        base = loop_bases(pow_cost, cb)
        alpha, c, labels = joint_search(info_cost, base, cb.slot_index)
        assert (int(alpha), int(c), labels.tolist()) == (1, 0, [2, 1])
        # rows of a batch are searched independently
        rows = np.stack([info_cost, np.ones_like(info_cost)])
        alpha, c, labels = joint_search(rows, np.stack([base, base]), cb.slot_index)
        assert (alpha.tolist(), c.tolist(), labels.tolist()) == ([1, 0], [0, 0], [[2, 1], [0, 0]])

    def test_detectors_break_phase_ties_to_first(self, small_cfg):
        # no third group: both information phases give the same channel, so
        # every hypothesis ties across phases and phase 0 must win
        cfg = small_cfg
        ctx, _, frame, state, bits, _, _ = build_observation(cfg, snr_db=0.0, trial=4, ris_bit=1)
        ch = draw_channel(ctx.channel_model, trial_rng(cfg.seed, 4))
        ch.G_d[:, cfg.n1 + cfg.n2:] = 0.0
        obs = observe(ch, (cfg.n1, cfg.n2), frame, state)
        obs.sigma2 = 1e-9
        args = (ctx.codebook, ctx.constellation, frame.omega, cfg.p_low_w)
        for detect in (ml_joint_detect, llr_detect):
            det = detect(obs, *args)
            assert det.ris_bit == 0
            assert np.array_equal(det.ptx_bits, bits)

    def test_detectors_on_all_equal_costs_take_first_hypothesis(self, small_cfg):
        cfg = small_cfg
        ctx, obs, frame, state, *_, ch = build_observation(cfg, snr_db=0.0, trial=2)
        ch.h_d = np.zeros_like(ch.h_d)
        ch.G_d = np.zeros_like(ch.G_d)
        # the same samples, scored against the zeroed channel's effective channels
        obs.eff = observe(ch, (cfg.n1, cfg.n2), frame, state).eff
        args = (ctx.codebook, ctx.constellation, frame.omega, cfg.p_low_w)
        for detect in (ml_joint_detect, llr_detect):
            det = detect(obs, *args)
            assert det.alpha == 0
            assert det.ris_bit == 0
            assert tuple(det.symbol_labels) == (0, 0)

    @pytest.mark.parametrize("paper_compat", [False, True])
    def test_llr_equals_recursion(self, paper_compat):
        cfg = make_config(trials=1)
        for trial, snr in enumerate((-10.0, 0.0, 10.0, 30.0, 300.0)):
            ctx, obs, frame, *_ = build_observation(cfg, snr_db=snr, trial=trial)
            info_cost, pow_cost = _costs(ctx, obs, frame, cfg)
            for sigma2 in (obs.sigma2, 1e-300):           # 1e-300: every exp underflows
                np.testing.assert_array_equal(
                    llr_per_slot(info_cost, pow_cost, sigma2, 8, 2, paper_compat),
                    recursive_llr(info_cost, pow_cost, sigma2, 8, 2, paper_compat),
                )

    def test_llr_equals_recursion_extreme_entries(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            j, m, k = 2, int(rng.choice([2, 4, 16])), int(rng.integers(2, 10))
            info_cost = rng.exponential(size=(j, m, k)) * 10.0 ** rng.integers(-6, 7)
            info_cost[rng.random(info_cost.shape) < 0.2] = math.inf   # xi = -inf
            info_cost[:, :, 0] = math.inf                              # all -inf
            info_cost[:, :, 1] = info_cost[0, 0, 1]                    # all equal
            pow_cost = rng.exponential(size=k)
            l = int(rng.integers(1, k))
            sigma2 = 10.0 ** rng.uniform(-300, 2)
            got = llr_per_slot(info_cost, pow_cost, sigma2, k, l)
            np.testing.assert_array_equal(got, recursive_llr(info_cost, pow_cost, sigma2, k, l))
            assert got[0] == -math.inf

    def test_llr_detect_equals_its_stages(self):
        # one set of slot costs feeds the LLR stage and the symbol search; a
        # third information row of eff makes J = 3
        cfg = make_config(trials=1)
        for trial in range(20):
            ctx, block, frame, *_ = build_observation(cfg, snr_db=0.0, trial=trial)
            for obs, j in ((block, 2), (_three_phase(block), 3)):
                info_cost, pow_cost = _costs(ctx, obs, frame, cfg)
                llr = llr_per_slot(info_cost, pow_cost, obs.sigma2, 8, 2)
                alpha = select_info_slots(llr, ctx.codebook)
                labels, c = ml_symbol_phase(info_cost, ctx.codebook.slot_index[alpha])
                det = llr_detect(obs, ctx.codebook, ctx.constellation, frame.omega, cfg.p_low_w)
                assert ((det.alpha, tuple(det.symbol_labels), det.ris_bit)
                        == (alpha, tuple(labels), c))
                assert det.visited == 8 * (j * 4 + 1)

    def test_bit_tables(self):
        for cb in (build_codebook(8, 4), build_codebook(4, 2, "table1"),
                   build_benchmark_codebook(8, 2)):
            for const in (build_constellation(4), build_constellation(16),
                          build_constellation(8, "psk")):
                bps = const.bits_per_symbol
                for alpha in range(len(cb.slot_index)):
                    for labels in ((0,) * cb.l_slots, tuple(range(cb.l_slots))):
                        labels = tuple(x % const.m_order for x in labels)
                        want = np.concatenate([int_to_bits(alpha, cb.bits_index)]
                                              + [int_to_bits(x, bps) for x in labels])
                        got = block_bits(alpha, labels, cb, const)
                        assert got.dtype == want.dtype
                        np.testing.assert_array_equal(got, want)


def _block_at_points(cfg, trial):
    """One trial's block as a sweep receives it: the surface state, the
    noise-free observation, the unit noise that every point scales and the
    data bits sent."""
    ctx = make_context(cfg, None)
    rng = trial_rng(cfg.seed, trial)
    channel = draw_channel(ctx.channel_model, rng)
    eta = ctx.codebook.bits_index + cfg.l_slots * ctx.constellation.bits_per_symbol
    bits = rng.integers(0, 2, size=eta)
    frame = encode_block(bits, ctx.codebook, ctx.constellation, cfg.p_low_w, cfg.p_high_w)
    state = make_ris_state(channel, cfg.n1, int(rng.integers(0, 2)))
    clean = observe(channel, (cfg.n1, cfg.n2), frame, state)
    return ctx, frame, state, clean, draw_noise(clean.y.shape, rng), bits


def _assert_rows_equal(batched, singles):
    """Each point of a batched detection equals the detection of that point
    on its own: codeword index, labels, surface and data bits."""
    assert len(batched.ris_bit) == len(singles)
    for s, det in enumerate(singles):
        assert batched.alpha[s] == det.alpha
        assert tuple(int(x) for x in batched.symbol_labels[s]) == tuple(det.symbol_labels)
        assert batched.ris_bit[s] == det.ris_bit
        np.testing.assert_array_equal(batched.ptx_bits[s], det.ptx_bits)


class TestPointBatch:
    """A block stacked over S noise variances is detected in one call; every
    point's decision and intermediate equals detecting that point alone."""

    GRID = tuple(direct_snr_sigma2(make_config(), snr) for snr in (0, 5, 10, 15, 20, 25, 30))
    REPEATED = (GRID[2], GRID[0], GRID[2], GRID[6])

    @pytest.mark.parametrize("detector", ["llr", "ml"])
    @pytest.mark.parametrize("overrides", [
        dict(),
        dict(paper_compat=True),
        dict(scheme="benchmark"),
        dict(k_slots=4, l_slots=1, m_order=2, constellation="psk"),
        dict(k_slots=4, l_slots=2, codebook_strategy="table1"),
    ], ids=["default", "paper_compat", "benchmark", "l1_bpsk", "table1"])
    @pytest.mark.parametrize("grid", ["sweep", "repeated"])
    def test_batch_equals_points(self, detector, overrides, grid):
        cfg = make_config(trials=1, detector=detector, **overrides)
        detect = ml_joint_detect if detector == "ml" else llr_detect
        sigma2s = self.GRID if grid == "sweep" else self.REPEATED
        for trial in range(4):
            ctx, frame, _, clean, unit, _ = _block_at_points(cfg, trial)
            args = (ctx.codebook, ctx.constellation, frame.omega, cfg.p_low_w, cfg.paper_compat)
            stacked = clean.with_noise(sigma2s, unit)
            points = [clean.with_noise(s2, unit) for s2 in sigma2s]
            np.testing.assert_array_equal(stacked.sigma2, sigma2s)
            costs = slot_costs(stacked, ctx.constellation, cfg.p_low_w, frame.omega)
            for s, obs in enumerate(points):
                np.testing.assert_array_equal(stacked.y[s], obs.y)
                for batch_cost, cost in zip(costs, slot_costs(obs, ctx.constellation,
                                                              cfg.p_low_w, frame.omega)):
                    np.testing.assert_array_equal(batch_cost[s], cost)
            singles = [detect(obs, *args) for obs in points]
            _assert_rows_equal(detect(stacked, *args), singles)

    def test_llr_stages_equal_points(self):
        cfg = make_config(trials=1)
        for trial in range(4):
            ctx, frame, _, clean, unit, _ = _block_at_points(cfg, trial)
            args = (ctx.constellation, cfg.p_low_w, frame.omega)
            stacked = clean.with_noise(self.REPEATED, unit)
            info_cost, pow_cost = slot_costs(stacked, *args)
            llr = llr_per_slot(info_cost, pow_cost, stacked.sigma2, 8, 2)
            alpha = select_info_slots(llr, ctx.codebook)
            labels, c = ml_symbol_phase(info_cost, ctx.codebook.slot_index[alpha])
            for s, s2 in enumerate(self.REPEATED):
                obs = clean.with_noise(s2, unit)
                point_info, point_pow = slot_costs(obs, *args)
                np.testing.assert_array_equal(llr[s], llr_per_slot(point_info, point_pow, s2, 8, 2))
                assert select_info_slots(llr[s], ctx.codebook) == alpha[s]
                want = ml_symbol_phase(point_info, ctx.codebook.slot_index[alpha[s]])
                assert (tuple(labels[s]), c[s]) == (tuple(want[0]), want[1])

    def test_tied_rows_take_first_minimum(self):
        cb = build_codebook(4, 2, "table1")               # (1,3) (1,4) (2,4) (2,3)
        llr = np.array([[0.0, 0.0, 0.0, 0.0],             # every codeword ties
                        [9.0, 8.0, 0.0, 0.0],             # (1,3) and (1,4) tie at 9
                        [0.0, 5.0, 5.0, 5.0],             # (2,4) and (2,3) tie at 10
                        [1.0, 1.0, 1.0, 1.0]])
        alpha = select_info_slots(llr, cb)
        np.testing.assert_array_equal(alpha, [0, 0, 2, 0])
        for row, a in zip(llr, alpha):
            assert select_info_slots(row, cb) == a
        # integer costs add exactly; each row ties across phases and symbols
        info_cost = np.ones((3, 2, 4, 4))
        info_cost[0] = 0.0                                 # everything ties
        info_cost[1, :, 2, 0] = info_cost[1, :, 3, 0] = 0.0   # symbols 2 and 3 tie, both phases
        info_cost[2, 1, :, :] = 0.0                        # phase 1 better
        info_cost[2, 0, 1, :] = 0.0                        # ... until phase 0 ties it
        slots = np.array([(0, 2), (0, 3), (1, 2)])
        labels, c = ml_symbol_phase(info_cost, slots)
        assert c.tolist() == [0, 0, 0]
        assert labels.tolist() == [[0, 0], [2, 0], [1, 1]]
        for s in range(3):
            want = ml_symbol_phase(info_cost[s], tuple(slots[s]))
            assert (tuple(labels[s]), c[s]) == (tuple(want[0]), want[1])

    def test_tied_blocks_take_first_hypothesis(self, small_cfg):
        cfg = small_cfg
        ctx, frame, state, clean, unit, _ = _block_at_points(cfg, 2)
        ch = draw_channel(ctx.channel_model, trial_rng(cfg.seed, 2))
        ch.h_d = np.zeros_like(ch.h_d)
        ch.G_d = np.zeros_like(ch.G_d)
        args = (ctx.codebook, ctx.constellation, frame.omega, cfg.p_low_w)
        zeroed = observe(ch, (cfg.n1, cfg.n2), frame, state)
        stacked = Observation(np.zeros((3,) + clean.y.shape, complex), np.array(self.GRID[:3]),
                              zeroed.eff)
        for detect in (ml_joint_detect, llr_detect):
            det = detect(stacked, *args)
            assert det.alpha.tolist() == [0, 0, 0]
            assert det.ris_bit.tolist() == [0, 0, 0]
            assert det.symbol_labels.tolist() == [[0, 0]] * 3

    @pytest.mark.parametrize("detector, overrides, per_point", [
        ("llr", dict(), 72),
        ("ml", dict(l_slots=4), 32_768),
    ])
    def test_visited_sums_over_points(self, detector, overrides, per_point):
        cfg = make_config(trials=1, detector=detector, **overrides)
        detect = ml_joint_detect if detector == "ml" else llr_detect
        ctx, frame, _, clean, unit, _ = _block_at_points(cfg, 0)
        args = (ctx.codebook, ctx.constellation, frame.omega, cfg.p_low_w, False)
        assert detect(clean.with_noise(self.GRID, unit), *args).visited == 7 * per_point
        assert detect(clean.with_noise(self.GRID[0], unit), *args).visited == per_point

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_llr_rejects_any_nonpositive_variance(self, bad):
        cfg = make_config(trials=1)
        ctx, frame, _, clean, unit, _ = _block_at_points(cfg, 0)
        stacked = clean.with_noise(self.GRID[:3], unit)
        stacked.sigma2 = np.array([self.GRID[0], bad, self.GRID[2]])
        with pytest.raises(ValueError, match="positive noise variance"):
            llr_detect(stacked, ctx.codebook, ctx.constellation, frame.omega, cfg.p_low_w, False)


def test_unit_noise_any_shape_and_stacked_draws():
    # real parts of every entry first, then imaginary parts, whatever the shape
    rng = trial_rng(0, 1)
    want = rng.standard_normal((3, 8, 4)) + 1j * rng.standard_normal((3, 8, 4))
    normals = trial_rng(0, 1).standard_normal((2, 3, 8, 4))
    np.testing.assert_array_equal(unit_noise((3, 8, 4), normals), want)
    # the draws of several streams stacked give each stream's noise per row
    draws = np.stack([trial_rng(0, b).standard_normal((2, 8, 4)) for b in range(3)])
    np.testing.assert_array_equal(unit_noise((8, 4), draws),
                                  [unit_noise((8, 4), draws[b]) for b in range(3)])


def test_direct_log_sum_exp_self_check():
    vals = [0.0, -1.0, 2.0]
    assert direct_log_sum_exp(vals) == pytest.approx(
        math.log(sum(math.exp(v) for v in vals)), rel=1e-12
    )
