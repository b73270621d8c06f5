"""Fast self-check battery behind the ``validate`` CLI subcommand: exercises
the model invariants end to end with fixed seeds and prints one line per
check."""

from __future__ import annotations

import math

import numpy as np

from .channel import RicianSpec, sample_rician
from .config import make_config
from .ris import (
    RectennaModel,
    clc_dc_power,
    make_ris_state,
    phase_set_2bit,
    ris_power_consumption,
)
from .rx import llr_detect, llr_per_slot, ml_joint_detect, observe
from .sim import build_channel_model, power_budget, trial_rng
from .txphy import (
    TABLE1_CODEWORDS,
    build_codebook,
    build_constellation,
    decode_frame,
    encode_block,
    int_to_bits,
)


def check_rician_moment():
    rng = np.random.default_rng(11)
    for kappa, gain in ((0.0, 1.0), (5.0, 1.0), (5.0, 1e-5)):
        draws = sample_rician(RicianSpec(kappa, gain, 0.3), 100_000, 1, rng)
        power = np.mean(np.abs(draws) ** 2)
        assert abs(power - gain) <= 0.02 * gain, (kappa, gain, power)


def check_cascade_consistency():
    cfg = make_config(trials=1)
    model = build_channel_model(cfg)
    ch = model.realize(trial_rng(cfg.seed, 0))
    for l in range(3):
        sl = ch.group_slice(l)
        np.testing.assert_array_equal(ch.f_casc[:, l], ch.G_d[:, sl] @ ch.h_r[sl])
        assert ch.v_casc[l] == ch.g_e[sl] @ ch.h_r[sl]


def check_channel_determinism():
    cfg = make_config(trials=1)
    a = build_channel_model(cfg).realize(trial_rng(cfg.seed, 3))
    b = build_channel_model(cfg).realize(trial_rng(cfg.seed, 3))
    np.testing.assert_array_equal(a.G_d, b.G_d)
    np.testing.assert_array_equal(a.h_d, b.h_d)


def check_codebook_table1():
    cb = build_codebook(4, 2, "table1")
    assert cb.codewords == TABLE1_CODEWORDS
    for excluded in ((1, 2), (3, 4)):
        try:
            cb.index_of(excluded)
        except ValueError:
            continue
        raise AssertionError(f"{excluded} should be rejected")


def check_roundtrip_exhaustive():
    cb = build_codebook(4, 2, "table1")
    const = build_constellation(4, "qam")
    eta = cb.bits_index + cb.l_slots * const.bits_per_symbol
    for value in range(1 << eta):
        bits = int_to_bits(value, eta)
        frame = encode_block(bits, cb, const, 1.0, 2.0)
        symbols = frame.samples[frame.tau == 1]
        out = decode_frame(frame.tau, symbols, cb, const)
        assert np.array_equal(out, bits), value


def check_tau_weight():
    rng = np.random.default_rng(5)
    cb = build_codebook(8, 3)
    const = build_constellation(4, "qam")
    eta = cb.bits_index + cb.l_slots * const.bits_per_symbol
    for _ in range(200):
        bits = rng.integers(0, 2, eta)
        frame = encode_block(bits, cb, const, 1.0, 2.0)
        assert frame.tau.sum() == cb.l_slots
        assert frame.codeword in cb.codewords


def check_clc_contract():
    model = RectennaModel(0.75, 150e-6, 70e-3)
    grid = np.linspace(0.0, 0.1, 20_001)
    out = clc_dc_power(grid, model)
    assert np.all(np.diff(out) >= 0)
    assert out.max() == model.p_max_w
    assert clc_dc_power(model.p_on_w, model) == 0.0


def check_power_budget():
    cfg = make_config(trials=1)
    p_rf = ris_power_consumption(power_budget(cfg, "rf-switch"))
    p_var = ris_power_consumption(power_budget(cfg, "varactor"))
    assert math.isclose(p_rf, 3.456e-3, rel_tol=1e-12)
    assert math.isclose(p_var, 23.680e-3, rel_tol=1e-12)
    assert p_var > p_rf


def check_reflection_structure():
    ps = phase_set_2bit()
    cfg = make_config(trials=1)
    ch = build_channel_model(cfg).realize(trial_rng(cfg.seed, 1))
    state = make_ris_state(ch, ps, 1)
    for stage in ("info", "power"):
        vec = state.reflection(stage)
        assert vec[1] == 0.0
        assert math.isclose(abs(vec[0]), 1.0) and math.isclose(abs(vec[2]), 1.0)


def check_llr_log_sum_exp():
    # the LLR stage against a direct max-shifted log-sum-exp, slot by slot
    rng = np.random.default_rng(17)
    k_slots, l_slots = 8, 2
    prior = math.log(l_slots**2) - math.log((k_slots - l_slots) ** 2)
    for _ in range(200):
        info_cost = rng.uniform(0.0, 600.0, size=(2, 4, k_slots))
        pow_cost = rng.uniform(0.0, 600.0, size=k_slots)
        llr = llr_per_slot(info_cost, pow_cost, 1.0, k_slots, l_slots)
        for k in range(k_slots):
            xi = -info_cost[:, :, k]
            direct = prior + xi.max() + math.log(np.sum(np.exp(xi - xi.max()))) + pow_cost[k]
            assert abs(llr[k] - direct) <= 1e-9 * max(1.0, abs(direct))


def _detect_setup(cfg):
    from .sim import make_context

    return make_context(cfg, None)


def check_noiseless_detection():
    cfg = make_config(k_slots=4, l_slots=2, codebook_strategy="table1", trials=1)
    ctx = _detect_setup(cfg)
    rng = trial_rng(cfg.seed, 9)
    ch = ctx.channel_model.realize(rng)
    const, cb, ps = ctx.constellation, ctx.codebook, ctx.phase_set
    sigma2 = 1e-12 * cfg.p_low_w * np.mean(np.abs(ch.h_d) ** 2)
    eta = cb.bits_index + cb.l_slots * const.bits_per_symbol
    for value in range(0, 1 << eta, 7):
        bits = int_to_bits(value, eta)
        frame = encode_block(bits, cb, const, cfg.p_low_w, cfg.p_high_w)
        state = make_ris_state(ch, ps, value % 2)
        obs = observe(ch, frame, state, sigma2, rng)
        for detect in (ml_joint_detect, llr_detect):
            det = detect(obs, cb, const, ps.phi_info, frame.omega, cfg.p_low_w)
            assert np.array_equal(det.ptx_bits, bits)
            assert det.ris_bit == value % 2


def check_llr_legitimacy():
    cfg = make_config(k_slots=8, l_slots=2, trials=1)
    ctx = _detect_setup(cfg)
    rng = trial_rng(cfg.seed, 21)
    const, cb, ps = ctx.constellation, ctx.codebook, ctx.phase_set
    eta = cb.bits_index + cb.l_slots * const.bits_per_symbol
    sigma2 = 1e-5  # deep-noise regime to stress the slot selection
    for _ in range(500):
        ch = ctx.channel_model.realize(rng)
        bits = rng.integers(0, 2, eta)
        frame = encode_block(bits, cb, const, cfg.p_low_w, cfg.p_high_w)
        state = make_ris_state(ch, ps, int(rng.integers(0, 2)))
        obs = observe(ch, frame, state, sigma2, rng)
        det = llr_detect(obs, cb, const, ps.phi_info, frame.omega, cfg.p_low_w)
        assert det.codeword in cb.codewords


CHECKS = (
    ("rician-moment", check_rician_moment),
    ("cascade-consistency", check_cascade_consistency),
    ("channel-determinism", check_channel_determinism),
    ("codebook-table1", check_codebook_table1),
    ("encode-decode-roundtrip", check_roundtrip_exhaustive),
    ("tau-weight-legitimacy", check_tau_weight),
    ("clc-contract", check_clc_contract),
    ("power-budget", check_power_budget),
    ("reflection-structure", check_reflection_structure),
    ("llr-log-sum-exp", check_llr_log_sum_exp),
    ("noiseless-detection", check_noiseless_detection),
    ("llr-legitimacy", check_llr_legitimacy),
)


def run_all(verbose: bool = True) -> int:
    """Run every check; returns the number of failures."""
    failed = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failed += 1
            if verbose:
                print(f"FAIL {name}: {exc}")
        else:
            if verbose:
                print(f"PASS {name}")
    return failed
