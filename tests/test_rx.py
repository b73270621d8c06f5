import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_observation
from oracles import direct_llr, direct_log_sum_exp, naive_joint_search, naive_symbol_phase

from timsr import make_config
from timsr.ris import make_ris_state
from timsr.rx import (
    jacobian_log_sum,
    llr_detect,
    llr_per_slot,
    ml_joint_detect,
    ml_symbol_phase,
    observe,
    select_info_slots,
)
from timsr.sim import direct_snr_sigma2, make_context, trial_rng
from timsr.txphy import build_codebook, encode_block, int_to_bits


class TestObserve:
    def test_noiseless_superposition(self, small_cfg):
        ctx, obs, frame, state, _, _ = build_observation(small_cfg, snr_db=0.0)
        ch = obs.channel
        # rebuild with zero noise and check the exact per-slot composition
        rng = trial_rng(small_cfg.seed, 0)
        clean = observe(ch, frame, state, 0.0, rng)
        for k in range(small_cfg.k_slots):
            stage = "info" if frame.tau[k] else "power"
            eff = ch.h_d + ch.f_casc @ state.reflection(stage)
            np.testing.assert_allclose(clean.y[k], eff * frame.samples[k], rtol=1e-12)

    def test_no_reflection_reduces_to_direct(self, small_cfg):
        ctx, obs, frame, state, _, _ = build_observation(small_cfg, snr_db=0.0)
        ch = obs.channel
        ch.f_casc = np.zeros_like(ch.f_casc)
        clean = observe(ch, frame, state, 0.0, trial_rng(0, 0))
        for k in range(small_cfg.k_slots):
            np.testing.assert_allclose(clean.y[k], ch.h_d * frame.samples[k], rtol=1e-12)

    def test_deterministic(self, small_cfg):
        _, a, *_ = build_observation(small_cfg, snr_db=5.0, trial=3)
        _, b, *_ = build_observation(small_cfg, snr_db=5.0, trial=3)
        np.testing.assert_array_equal(a.y, b.y)

    def test_negative_variance_rejected(self, small_cfg):
        ctx, obs, frame, state, _, _ = build_observation(small_cfg, snr_db=0.0)
        with pytest.raises(ValueError):
            observe(obs.channel, frame, state, -1.0, trial_rng(0, 0))

    def test_noise_statistics(self, small_cfg):
        # every slot carries circularly symmetric noise of the set variance
        ctx, obs, frame, state, _, _ = build_observation(small_cfg, snr_db=0.0)
        ch = obs.channel
        sigma2 = 0.5
        rng = trial_rng(0, 0)
        residuals = []
        for _ in range(2000):
            noisy = observe(ch, frame, state, sigma2, rng)
            clean = observe(ch, frame, state, 0.0, rng)
            residuals.append((noisy.y - clean.y).ravel())
        z = np.concatenate(residuals)
        assert np.mean(np.abs(z) ** 2) == pytest.approx(sigma2, rel=0.02)
        assert abs(np.mean(z)) < 0.01
        # power slots are noisy too, not only information slots
        power_rows = np.flatnonzero(frame.tau == 0)
        zp = (noisy.y - clean.y)[power_rows]
        assert np.all(np.abs(zp) > 0)


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
            ctx.phase_set.phi_info,
            frame.omega,
            ctx.phase_set,
            cfg.p_low_w,
            **kw,
        )

    def test_noiseless_recovers_every_tuple(self, small_cfg):
        cfg = small_cfg
        ctx = make_context(cfg, None)
        rng = trial_rng(cfg.seed, 11)
        ch = ctx.channel_model.realize(rng)
        eta = ctx.codebook.bits_index + cfg.l_slots * ctx.constellation.bits_per_symbol
        for v in range(1 << eta):
            bits = int_to_bits(v, eta)
            frame = encode_block(bits, ctx.codebook, ctx.constellation, cfg.p_low_w, cfg.p_high_w)
            for ris_bit in (0, 1):
                state = make_ris_state(ch, ctx.phase_set, ris_bit)
                obs = observe(ch, frame, state, 0.0, rng)
                det = self._detect(ctx, obs, frame, cfg)
                assert det.codeword == frame.codeword
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

    def test_matches_naive_oracle(self, small_cfg):
        cfg = small_cfg
        for trial in range(100):
            ctx, obs, frame, *_ = build_observation(cfg, snr_db=-5.0, trial=trial)
            det = self._detect(ctx, obs, frame, cfg)
            cw, c, labels, metric = naive_joint_search(
                obs, ctx.codebook, ctx.constellation, ctx.phase_set.phi_info,
                frame.omega, ctx.phase_set, cfg.p_low_w,
            )
            assert det.codeword == cw
            assert det.ris_bit == c
            assert det.symbol_labels == labels

    def test_paper_compat_scores_info_slots_only(self, small_cfg):
        cfg = small_cfg
        ctx, obs, frame, *_ = build_observation(cfg, snr_db=0.0, trial=5)
        full = self._detect(ctx, obs, frame, cfg)
        lit = self._detect(ctx, obs, frame, cfg, paper_compat=True)
        assert full.visited == lit.visited
        # at zero noise both variants still recover the transmitted block
        ctx2, obs2, frame2, state2, bits2, rb2 = build_observation(cfg, snr_db=200.0, trial=5)
        det = ml_joint_detect(
            obs2, ctx2.codebook, ctx2.constellation, ctx2.phase_set.phi_info,
            frame2.omega, ctx2.phase_set, cfg.p_low_w, paper_compat=True,
        )
        assert np.array_equal(det.ptx_bits, bits2)


class TestLlrPerSlot:
    def _llr(self, ctx, obs, frame, cfg, **kw):
        return llr_per_slot(
            obs,
            ctx.constellation,
            ctx.phase_set.phi_info,
            frame.omega,
            ctx.phase_set,
            cfg.k_slots,
            cfg.l_slots,
            cfg.p_low_w,
            **kw,
        )

    def test_prior_offset_shift(self):
        # same observation scored under L=2 and L=4 priors differs exactly by
        # [ln(16) - ln(16)] - [ln(4) - ln(36)] = ln(36) - ln(4)
        cfg = make_config(k_slots=8, l_slots=2, trials=1)
        ctx, obs, frame, *_ = build_observation(cfg, snr_db=5.0)
        base = self._llr(ctx, obs, frame, cfg)
        shifted = llr_per_slot(
            obs, ctx.constellation, ctx.phase_set.phi_info, frame.omega,
            ctx.phase_set, 8, 4, cfg.p_low_w,
        )
        np.testing.assert_allclose(shifted - base, math.log(36.0) - math.log(4.0), rtol=1e-9)
        assert math.log(4.0) - math.log(36.0) == pytest.approx(-2.1972245773362196)

    def test_symmetric_prior_is_zero_offset(self):
        assert math.log(2**2) - math.log((4 - 2) ** 2) == 0.0

    def test_recursion_matches_direct_logsumexp(self, small_cfg):
        for trial, snr in enumerate((-10.0, 0.0, 10.0, 20.0, 30.0)):
            ctx, obs, frame, *_ = build_observation(small_cfg, snr_db=snr, trial=trial)
            got = self._llr(ctx, obs, frame, small_cfg)
            want = direct_llr(
                obs, ctx.constellation, ctx.phase_set.phi_info, frame.omega,
                ctx.phase_set, small_cfg.k_slots, small_cfg.l_slots, small_cfg.p_low_w,
            )
            np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_zero_variance_rejected(self, small_cfg):
        ctx, obs, frame, state, _, _ = build_observation(small_cfg, snr_db=0.0)
        clean = observe(obs.channel, frame, state, 0.0, trial_rng(0, 0))
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
        assert select_info_slots(np.array([9.0, 0.0, 8.0, 0.0]), self.CB) == (1, 3)

    def test_never_returns_excluded_pair(self):
        # the two largest LLRs {1,2} are not a codeword; the max legitimate
        # sum is 9, shared by (1,3) and (1,4); first codeword order wins
        got = select_info_slots(np.array([9.0, 8.0, 0.0, 0.0]), self.CB)
        assert got != (1, 2)
        assert got in ((1, 3), (1, 4))
        assert got == (1, 3)

    def test_all_equal_takes_first_codeword(self):
        assert select_info_slots(np.zeros(4), self.CB) == self.CB.codewords[0]

    def test_single_slot_layout(self):
        cb = build_codebook(4, 1)
        assert select_info_slots(np.array([0.0, 5.0, 1.0, 2.0]), cb) == (2,)

    def test_matches_per_codeword_loop(self):
        # reference: each codeword's LLR sum in codebook order, first maximum
        # wins; the row sums must agree bit for bit
        rng = np.random.default_rng(0)
        for k, l in ((4, 2), (8, 2), (8, 4), (12, 5)):
            cb = build_codebook(k, l)
            for _ in range(50):
                llr = 10.0 * rng.standard_normal(k)
                sums = np.array([llr[np.asarray(cw) - 1].sum() for cw in cb.codewords])
                np.testing.assert_array_equal(llr[cb.slot_index].sum(axis=1), sums)
                assert select_info_slots(llr, cb) == cb.codewords[int(np.argmax(sums))]


class TestMlSymbolPhase:
    def test_noiseless_exact(self, small_cfg):
        cfg = small_cfg
        ctx, obs, frame, state, bits, ris_bit = build_observation(cfg, snr_db=200.0, trial=2)
        labels, phase, c, visited = ml_symbol_phase(
            obs, frame.codeword, ctx.constellation, ctx.phase_set.phi_info,
            cfg.p_low_w, ctx.phase_set,
        )
        assert c == ris_bit
        sent = [ctx.constellation.nearest_label(s / math.sqrt(cfg.p_low_w))
                for s in frame.samples[frame.tau == 1]]
        assert list(labels) == sent

    def test_hypothesis_count_l1_bpsk(self):
        cfg = make_config(k_slots=4, l_slots=1, m_order=2, constellation="psk", trials=1)
        ctx, obs, frame, *_ = build_observation(cfg, snr_db=10.0)
        *_, visited = ml_symbol_phase(
            obs, frame.codeword, ctx.constellation, ctx.phase_set.phi_info,
            cfg.p_low_w, ctx.phase_set,
        )
        assert visited == 4  # J * M * L = 2 * 2 * 1

    def test_matches_full_product_search(self, small_cfg):
        cfg = small_cfg
        for trial in range(60):
            ctx, obs, frame, *_ = build_observation(cfg, snr_db=-5.0, trial=trial)
            labels, phase, c, _ = ml_symbol_phase(
                obs, frame.codeword, ctx.constellation, ctx.phase_set.phi_info,
                cfg.p_low_w, ctx.phase_set,
            )
            want_c, want_labels, _ = naive_symbol_phase(
                obs, frame.codeword, ctx.constellation, ctx.phase_set.phi_info,
                cfg.p_low_w, ctx.phase_set,
            )
            assert (c, labels) == (want_c, want_labels)


class TestLlrDetect:
    def _detect(self, ctx, obs, frame, cfg):
        return llr_detect(
            obs, ctx.codebook, ctx.constellation, ctx.phase_set.phi_info,
            frame.omega, ctx.phase_set, cfg.p_low_w, cfg.paper_compat,
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
        ch = ctx.channel_model.realize(rng)
        sigma2 = 1e-12 * cfg.p_low_w * float(np.mean(np.abs(ch.h_d) ** 2))
        eta = ctx.codebook.bits_index + cfg.l_slots * ctx.constellation.bits_per_symbol
        for v in range(1 << eta):
            bits = int_to_bits(v, eta)
            frame = encode_block(bits, ctx.codebook, ctx.constellation, cfg.p_low_w, cfg.p_high_w)
            state = make_ris_state(ch, ctx.phase_set, v % 2)
            obs = observe(ch, frame, state, sigma2, rng)
            det = self._detect(ctx, obs, frame, cfg)
            assert np.array_equal(det.ptx_bits, bits)
            assert det.ris_bit == v % 2

    def test_codeword_always_legitimate(self):
        cfg = make_config(k_slots=8, l_slots=2, trials=1)
        ctx = make_context(cfg, direct_snr_sigma2(cfg, -10.0))  # deep noise
        for trial in range(2000):
            rng = trial_rng(cfg.seed, trial)
            ch = ctx.channel_model.realize(rng)
            bits = rng.integers(0, 2, 8)
            frame = encode_block(bits, ctx.codebook, ctx.constellation, cfg.p_low_w, cfg.p_high_w)
            state = make_ris_state(ch, ctx.phase_set, int(rng.integers(0, 2)))
            obs = observe(ch, frame, state, ctx.sigma2, rng)
            det = self._detect(ctx, obs, frame, cfg)
            assert det.codeword in ctx.codebook.codewords

    def test_agrees_with_ml_at_high_snr(self):
        cfg = make_config(k_slots=8, l_slots=2, trials=1)
        agree = total = 0
        for trial in range(200):
            ctx, obs, frame, *_ = build_observation(cfg, snr_db=25.0, trial=trial)
            d_llr = self._detect(ctx, obs, frame, cfg)
            d_ml = ml_joint_detect(
                obs, ctx.codebook, ctx.constellation, ctx.phase_set.phi_info,
                frame.omega, ctx.phase_set, cfg.p_low_w,
            )
            agree += int(
                d_llr.codeword == d_ml.codeword
                and d_llr.symbol_labels == d_ml.symbol_labels
                and d_llr.ris_bit == d_ml.ris_bit
            )
            total += 1
        assert agree / total >= 0.95


def test_direct_log_sum_exp_self_check():
    vals = [0.0, -1.0, 2.0]
    assert direct_log_sum_exp(vals) == pytest.approx(
        math.log(sum(math.exp(v) for v in vals)), rel=1e-12
    )
