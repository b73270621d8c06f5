"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with the measured quantities.

Deterministic criteria assert exact values. The statistical criteria read
the rows of the program's own sweeps (``ber_sweep``, ``harvest_sweep`` and
``power_budget_report``) with two-standard-error tolerances. Trial i of every
sweep draws from stream (seed, i), so sweeps of one seed see the same trials
and their comparisons are paired. Criterion 9(a) takes the per-block harvest
spread that a row does not carry from the harvest sweep's own tally.
"""

import math
import time

import numpy as np
import pytest

from conftest import build_observation, draw_channel, draw_noise
from oracles import codewords, direct_llr, naive_joint_search

from timsr import make_config
from timsr.ris import clc_dc_power, make_ris_state
from timsr.rx import llr_detect, ml_joint_detect, observe
from timsr.sim import (
    _map_points,
    ber_sweep,
    harvest_sweep,
    make_context,
    power_budget_report,
    trial_rng,
)
from timsr.txphy import (
    build_codebook,
    build_constellation,
    decode_frame,
    encode_block,
    int_to_bits,
)


def _report(num, name, detail):
    print(f"criterion {num} ({name}): PASS — {detail}")


def _se(fractions):
    fractions = np.asarray(fractions, dtype=float)
    return float(np.std(fractions, ddof=1) / math.sqrt(len(fractions)))


def _ber_row(snr_db=10.0, **overrides):
    """The one row of a ``ber_sweep`` at ``snr_db`` on the config ``overrides`` set."""
    return ber_sweep(make_config(snr_db_grid=(snr_db,), **overrides)).rows[0]


def test_criterion_1_power_budget_exactness():
    t0 = time.perf_counter()
    rep = power_budget_report(make_config(trials=200))
    elapsed = time.perf_counter() - t0
    assert rep.p_ris_rf_w == pytest.approx(3.456e-3, rel=1e-12)
    assert rep.p_ris_varactor_w == pytest.approx(23.680e-3, rel=1e-12)
    assert rep.ratio_db == pytest.approx(8.36, abs=0.01)
    assert elapsed < 1.0
    _report(1, "power budget", f"3.456 mW / 23.680 mW, ratio {rep.ratio_db:.3f} dB, "
            f"{elapsed * 1e3:.0f} ms")


def test_criterion_2_complexity_counts():
    t0 = time.perf_counter()
    cfg = make_config(k_slots=8, l_slots=2, m_order=4, trials=1)
    ctx, obs, frame, *_ = build_observation(cfg, snr_db=10.0)
    ml = ml_joint_detect(obs, ctx.codebook, ctx.constellation, frame.omega, cfg.p_low_w)
    llr = llr_detect(obs, ctx.codebook, ctx.constellation, frame.omega, cfg.p_low_w)
    elapsed = time.perf_counter() - t0
    assert ml.visited == 512
    assert llr.visited == 72
    reduction = 1 - llr.visited / ml.visited
    assert reduction == pytest.approx(0.859, abs=0.001)
    assert elapsed < 1.0
    _report(2, "complexity counts", f"ML 512, LLR 72, reduction {reduction:.1%}")


def test_criterion_3_codebook_preset():
    t0 = time.perf_counter()
    cb = build_codebook(4, 2, "table1")
    const = build_constellation(4, "qam")
    assert codewords(cb) == ((1, 3), (1, 4), (2, 4), (2, 3))
    for excluded in ((1, 2), (3, 4)):
        with pytest.raises(ValueError):
            decode_frame(np.isin(np.arange(1, 5), excluded), const.points[[0, 0]], cb, const)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(3, "codebook preset", f"codewords {codewords(cb)}, exclusions rejected")


def test_criterion_4_noiseless_correctness():
    t0 = time.perf_counter()
    cfg = make_config(k_slots=4, l_slots=2, codebook_strategy="table1", trials=1)
    ctx = make_context(cfg, None)
    eta = ctx.codebook.bits_index + cfg.l_slots * ctx.constellation.bits_per_symbol
    errors = 0
    checked = 0
    for realization in range(100):
        rng = trial_rng(cfg.seed, realization)
        ch = draw_channel(ctx.channel_model, rng)
        sigma2 = 1e-12 * cfg.p_low_w * float(np.mean(np.abs(ch.h_d) ** 2))
        for v in range(1 << eta):
            bits = int_to_bits(v, eta)
            frame = encode_block(bits, ctx.codebook, ctx.constellation,
                                 cfg.p_low_w, cfg.p_high_w)
            rb = v % 2
            state = make_ris_state(ch, cfg.n1, rb)
            clean = observe(ch, (cfg.n1, cfg.n2), frame, state)
            obs = clean.with_noise(sigma2, draw_noise(clean.y.shape, rng))
            for fn in (ml_joint_detect, llr_detect):
                det = fn(obs, ctx.codebook, ctx.constellation, frame.omega, cfg.p_low_w)
                errors += int(not np.array_equal(det.ptx_bits, bits)) + int(det.ris_bit != rb)
                checked += 1
    elapsed = time.perf_counter() - t0
    assert errors == 0
    assert elapsed < 10.0
    _report(4, "noiseless correctness",
            f"{checked} detections over 100 realizations, 0 errors, {elapsed:.1f} s")


def test_criterion_5_ml_oracle_equivalence():
    t0 = time.perf_counter()
    cfg = make_config(k_slots=4, l_slots=2, codebook_strategy="table1", trials=1)
    mismatches = 0
    for trial in range(1000):
        ctx, obs, frame, *_, ch = build_observation(cfg, snr_db=-5.0, trial=trial)
        det = ml_joint_detect(obs, ctx.codebook, ctx.constellation, frame.omega, cfg.p_low_w)
        cw, c, labels, _ = naive_joint_search(
            obs, ch, (cfg.n1, cfg.n2), ctx.codebook, ctx.constellation, frame.omega, cfg.p_low_w,
        )
        mismatches += int((codewords(ctx.codebook)[det.alpha], det.ris_bit,
                           tuple(det.symbol_labels)) != (cw, c, labels))
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert elapsed < 30.0
    _report(5, "oracle equivalence", f"1000 noisy blocks, 0 mismatches, {elapsed:.1f} s")


def test_criterion_6_llr_internal_exactness():
    t0 = time.perf_counter()
    cfg = make_config(k_slots=4, l_slots=2, codebook_strategy="table1", trials=1)
    snrs = (-10.0, 0.0, 10.0, 20.0, 30.0)
    slots_checked = 0
    worst = 0.0
    from timsr.rx import llr_per_slot, slot_costs

    for trial in range(2500):
        ctx, obs, frame, *_, ch = build_observation(cfg, snr_db=snrs[trial % len(snrs)],
                                                    trial=trial)
        got = llr_per_slot(*slot_costs(obs, ctx.constellation, cfg.p_low_w, frame.omega),
                           obs.sigma2, cfg.k_slots, cfg.l_slots)
        want = direct_llr(obs, ch, (cfg.n1, cfg.n2), ctx.constellation, frame.omega,
                          cfg.k_slots, cfg.l_slots, cfg.p_low_w)
        rel = np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))
        worst = max(worst, float(rel))
        slots_checked += cfg.k_slots
    elapsed = time.perf_counter() - t0
    assert slots_checked >= 10_000
    assert worst <= 1e-9
    assert elapsed < 5.0
    _report(6, "LLR exactness",
            f"{slots_checked} slot instances, worst relative error {worst:.2e}, {elapsed:.1f} s")


def test_criterion_7_ml_llr_agreement():
    t0 = time.perf_counter()
    n_blocks = 20_000
    # one seed: both sweeps detect the same trials
    ml, llr = (_ber_row(k_slots=8, l_slots=2, trials=n_blocks, detector=d) for d in ("ml", "llr"))
    tol = 2 * math.hypot(ml.se_ber_ptx, llr.se_ber_ptx)
    elapsed = time.perf_counter() - t0
    assert abs(ml.ber_ptx - llr.ber_ptx) <= tol
    _report(7, "ML-LLR agreement",
            f"BER ml {ml.ber_ptx:.2e} vs llr {llr.ber_ptx:.2e} over {n_blocks} blocks "
            f"(tol {tol:.2e}), {elapsed:.0f} s")


def test_criterion_8_standalone_condition():
    t0 = time.perf_counter()
    rep = power_budget_report(make_config(trials=10_000))  # baseline: n2 = 35, 34 dBm power stage
    elapsed = time.perf_counter() - t0
    assert rep.standalone_frac_rf >= 0.95
    assert rep.standalone_frac_var < 0.5
    _report(8, "standalone condition",
            f"rf-switch ok in {rep.standalone_frac_rf:.1%}, varactor ok in "
            f"{rep.standalone_frac_var:.1%} of {rep.blocks} blocks, {elapsed:.0f} s")


def test_criterion_9_trend_suite():
    t0 = time.perf_counter()
    details = []

    # (a) surface harvest nondecreasing then saturated vs absorber count
    cfg = make_config(trials=400)
    grid = (0, 16, 35, 64, 96, 128, 160, 196)
    rep = harvest_sweep(cfg, n2_grid=grid)
    ris_uw = [r.avg_dc_ris_uw for r in rep.table.rows]
    dc_ris = _map_points(make_context(cfg, None), grid, (), 1).dc_ris_w   # the sweep's blocks
    assert [float(np.mean(dc) * 1e6) for dc in dc_ris] == ris_uw
    ses = [_se(dc * 1e6) for dc in dc_ris]
    for i in range(len(grid) - 1):
        assert ris_uw[i + 1] >= ris_uw[i] - 2 * math.hypot(ses[i], ses[i + 1])
    cap_uw = clc_dc_power(1.0, make_context(cfg, None).ris_model) * 1e6
    assert cap_uw == pytest.approx(52387.5, rel=1e-12)  # per-slot cap
    assert ris_uw[-1] <= cap_uw + 1e-9
    assert ris_uw[-1] == pytest.approx(cap_uw, rel=1e-6)  # saturated plateau
    details.append(f"(a) plateau {ris_uw[-1]:.1f} uW = cap")

    # (b) harvester-side DC nonincreasing vs absorber count
    eh_uw = [r.avg_dc_eh_uw for r in rep.table.rows]
    for i in range(len(grid) - 1):
        assert eh_uw[i + 1] <= eh_uw[i] + 1e-9
    details.append(f"(b) eh {eh_uw[0]:.3g}->{eh_uw[-1]:.3g} uW")

    # (c) both BER curves nonincreasing vs SNR (paired streams)
    cfg_c = make_config(snr_db_grid=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0), trials=3000)
    rows = ber_sweep(cfg_c).rows
    for a, b in zip(rows, rows[1:]):
        assert b.ber_ptx <= a.ber_ptx + 2 * math.hypot(a.se_ber_ptx, b.se_ber_ptx)
        assert b.ber_ris <= a.ber_ris + 2 * math.hypot(a.se_ber_ris, b.se_ber_ris)
    details.append(f"(c) ptx {rows[0].ber_ptx:.2e}->{rows[-1].ber_ptx:.2e}")

    # (d) spreading gain: surface-bit BER at (8,4) not above (8,1) at 0 dB,
    # where both layouts see errors
    ris = {l: _ber_row(0.0, l_slots=l, trials=8000, detector="llr") for l in (1, 4)}
    assert ris[4].ber_ris <= ris[1].ber_ris + 2 * math.hypot(ris[1].se_ber_ris, ris[4].se_ber_ris)
    details.append(f"(d) ris BER L=4 {ris[4].ber_ris:.2e} <= L=1 {ris[1].ber_ris:.2e}")

    # (e) raising the power-stage level must not raise index-bit errors (0 dB)
    idx = {ph: _ber_row(0.0, p_high_dbm=ph, trials=8000, detector="llr") for ph in (30.0, 38.0)}
    assert idx[38.0].ber_index <= idx[30.0].ber_index + 2 * math.hypot(
        idx[30.0].se_ber_index, idx[38.0].se_ber_index)
    details.append(f"(e) index BER 30 dBm {idx[30.0].ber_index:.2e} -> "
                   f"38 dBm {idx[38.0].ber_index:.2e}")

    elapsed = time.perf_counter() - t0
    _report(9, "trend suite", "; ".join(details) + f", {elapsed:.0f} s")


def test_criterion_10_worker_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = make_config(k_slots=4, l_slots=2, codebook_strategy="table1",
                      snr_db_grid=(0.0, 10.0), trials=64)
    paths = {}
    for workers in (1, 8):
        path = tmp_path / f"ber_w{workers}.csv"
        ber_sweep(cfg, workers=workers).to_csv(path)
        paths[workers] = path.read_bytes()
    assert paths[1] == paths[8]

    for workers in (1, 8):
        path = tmp_path / f"harvest_w{workers}.csv"
        harvest_sweep(make_config(trials=64), n2_grid=(0, 35), workers=workers).table.to_csv(path)
        paths[workers] = path.read_bytes()
    assert paths[1] == paths[8]
    elapsed = time.perf_counter() - t0
    _report(10, "worker determinism",
            f"1-worker and 8-worker CSV bodies byte-identical, {elapsed:.0f} s")
