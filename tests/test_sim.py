import math
from dataclasses import replace

import numpy as np
import pytest

import timsr.sim
from conftest import build_observation
from timsr import make_config
from timsr.config import (
    ML_MAX_HYPOTHESES,
    config_hash,
    dbm_to_watts,
    load_config,
    parse_config_text,
)
from oracles import slot_eh_received, slot_rectenna_input
from timsr.ris import clc_dc_power
from timsr.rx import llr_detect, ml_joint_detect
from timsr.sim import (
    CSV_COLUMNS,
    PowerBudgetReport,
    _aggregate,
    ber_sweep,
    direct_snr_sigma2,
    harvest_sweep,
    make_context,
    power_budget_report,
    run_block_trial,
    trial_rng,
)
from timsr.txphy import encode_block


class TestTrialRng:
    def test_reproducible(self):
        a = trial_rng(5, 7).standard_normal(4)
        b = trial_rng(5, 7).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = trial_rng(5, 7).standard_normal(4)
        b = trial_rng(5, 8).standard_normal(4)
        c = trial_rng(6, 7).standard_normal(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestBlockTrial:
    def test_noiseless_ml_is_error_free(self):
        cfg = make_config(k_slots=4, l_slots=2, codebook_strategy="table1",
                          detector="ml", trials=1)
        ctx = make_context(cfg, direct_snr_sigma2(cfg, 150.0))
        for i in range(30):
            rec = run_block_trial(ctx, i)
            assert rec.ptx_errors == 0 and rec.ris_errors == 0
            assert rec.ptx_bits == 6  # 2 index bits + 2 symbols * 2 bits

    def test_no_absorbers_means_no_harvest(self):
        cfg = make_config(n2=0, trials=1)
        ctx = make_context(cfg, None)
        rec = run_block_trial(ctx, 0)
        assert rec.dc_ris_w == 0.0
        assert not rec.ok_rf and not rec.ok_var

    def test_deterministic_record(self):
        cfg = make_config(trials=1)
        ctx1 = make_context(cfg, direct_snr_sigma2(cfg, 5.0))
        ctx2 = make_context(cfg, direct_snr_sigma2(cfg, 5.0))
        assert run_block_trial(ctx1, 17) == run_block_trial(ctx2, 17)

    def test_block_dc_never_exceeds_cap(self):
        cfg = make_config(n2=196, trials=1)
        ctx = make_context(cfg, None)
        for i in range(20):
            rec = run_block_trial(ctx, i)
            assert rec.dc_ris_w <= ctx.ris_model.p_max_w + 1e-18
            assert rec.dc_eh_w <= ctx.eh_model.p_max_w + 1e-18

    def test_harvest_matches_per_slot_ops(self):
        """The vectorized trial bookkeeping equals the per-slot primitives."""
        cfg = make_config(trials=1)
        ctx = make_context(cfg, None)
        rec = run_block_trial(ctx, 4)

        rng = trial_rng(cfg.seed, 4)
        channel = ctx.channel_model.realize(rng)
        eta = ctx.codebook.bits_index + cfg.l_slots * ctx.constellation.bits_per_symbol
        bits = rng.integers(0, 2, eta)
        ris_bit = int(rng.integers(0, 2))
        frame = encode_block(bits, ctx.codebook, ctx.constellation,
                             cfg.p_low_w, cfg.p_high_w, cfg.omega_phase_rad)
        from timsr.ris import make_ris_state

        state = make_ris_state(channel, ctx.phase_set, ris_bit)
        g2 = channel.h_r[channel.group_slice(1)]
        dc_ris = np.mean([
            clc_dc_power(slot_rectenna_input(g2, s), ctx.ris_model) for s in frame.samples
        ])
        dc_eh = np.mean([
            clc_dc_power(
                slot_eh_received(channel, state.psi[ris_bit if t else -1], s)[1],
                ctx.eh_model,
            )
            for t, s in zip(frame.tau, frame.samples)
        ])
        assert rec.dc_ris_w == pytest.approx(dc_ris, rel=1e-12)
        assert rec.dc_eh_w == pytest.approx(dc_eh, rel=1e-12)

    @pytest.mark.parametrize("detector", ["llr", "ml"])
    def test_detection_matches_single_block_pipeline(self, detector):
        """The trial's noise draw and detection equal observe() and the
        detector run on the same stream."""
        cfg = make_config(k_slots=4, l_slots=2, codebook_strategy="table1",
                          detector=detector, trials=1)
        detect = ml_joint_detect if detector == "ml" else llr_detect
        ptx_errors = 0
        for i in range(20):
            ctx, obs, frame, _, bits, ris_bit, _ = build_observation(cfg, 0.0, trial=i)
            det = detect(obs, ctx.codebook, ctx.constellation, ctx.phase_set.phi_info,
                         frame.omega, cfg.p_low_w)
            rec = run_block_trial(ctx, i)
            assert rec.ptx_errors == int(np.sum(det.ptx_bits != bits))
            assert rec.ris_errors == int(det.ris_bit != ris_bit)
            ptx_errors += rec.ptx_errors
        assert ptx_errors > 0  # the noise decides some bits at this SNR

    def test_more_info_slots_harvest_less(self):
        # paired streams: block-average harvested DC is nonincreasing in L
        means = []
        for l in (1, 2, 4):
            cfg = make_config(l_slots=l, trials=300)
            ctx = make_context(cfg, None)
            means.append(np.mean([run_block_trial(ctx, i).dc_ris_w for i in range(300)]))
        assert means[0] >= means[1] >= means[2]


class TestBerSweep:
    CFG = make_config(
        k_slots=4, l_slots=2, codebook_strategy="table1",
        snr_db_grid=(0.0, 30.0), trials=300,
    )

    def test_rows_and_trend(self):
        table = ber_sweep(self.CFG)
        assert len(table.rows) == 2
        lo, hi = table.rows
        assert lo.snr_db == 0.0 and hi.snr_db == 30.0
        assert 0 <= hi.ber_ptx <= lo.ber_ptx <= 1
        assert hi.ber_ris <= lo.ber_ris
        assert lo.trials == 300
        assert lo.avg_dc_ris_uw > 0

    def test_standard_error_shrinks(self):
        small = ber_sweep(replace(self.CFG, snr_db_grid=(0.0,), trials=200)).rows[0]
        big = ber_sweep(replace(self.CFG, snr_db_grid=(0.0,), trials=800)).rows[0]
        assert big.se_ber_ptx < small.se_ber_ptx
        # roughly 1/sqrt(n): quadrupling trials halves the error
        assert 0.3 <= big.se_ber_ptx / small.se_ber_ptx <= 0.8

    def test_csv_roundtrip_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        ber_sweep(self.CFG).to_csv(p1)
        ber_sweep(self.CFG).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()
        assert header[0].startswith("# config_hash=")
        assert header[1] == ",".join(CSV_COLUMNS)

    def test_workers_do_not_change_bytes(self, tmp_path):
        cfg = replace(self.CFG, trials=96)
        p1, p2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        ber_sweep(cfg, workers=1).to_csv(p1)
        ber_sweep(cfg, workers=2).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestHarvestSweep:
    def test_trends_and_minimums(self):
        cfg = make_config(trials=200)
        rep = harvest_sweep(cfg, n2_grid=(0, 16, 35, 64, 128, 196))
        ris = [r.avg_dc_ris_uw for r in rep.table.rows]
        eh = [r.avg_dc_eh_uw for r in rep.table.rows]
        assert all(b >= a - 1e-9 for a, b in zip(ris, ris[1:]))  # nondecreasing
        assert all(b <= a + 1e-9 for a, b in zip(eh, eh[1:]))    # nonincreasing
        # saturated plateau equals the rectenna cap
        assert ris[-1] == pytest.approx(0.75 * (70e-3 - 150e-6) * 1e6, rel=1e-9)
        assert rep.min_n2_rf is not None and rep.min_n2_varactor is not None
        assert rep.min_n2_varactor > rep.min_n2_rf
        assert rep.table.rows[0].snr_db is None
        assert rep.table.rows[0].ber_ptx is None

    def test_grid_validation(self):
        cfg = make_config(trials=10)
        with pytest.raises(ValueError):
            harvest_sweep(cfg, n2_grid=(0, 500))


@pytest.fixture
def no_trials(monkeypatch):
    """Fail the test if any trial runs."""
    def fail(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(timsr.sim, "run_trial", fail)


class TestSweepGuards:
    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, no_trials, workers):
        cfg = make_config(trials=5)
        with pytest.raises(ValueError, match="workers"):
            ber_sweep(cfg, workers=workers)
        with pytest.raises(ValueError, match="workers"):
            harvest_sweep(cfg, n2_grid=(0, 16), workers=workers)

    @pytest.mark.parametrize("grid", [(), [], range(64, 0, 16)])
    def test_empty_absorber_grid_rejected(self, no_trials, grid):
        with pytest.raises(ValueError, match="empty"):
            harvest_sweep(make_config(trials=5), n2_grid=grid)


def pointwise_row(point_cfg, snr_db):
    """One sweep row built the slow way: a fresh context for the grid point
    and one single-block trial per stream."""
    sigma2 = None if snr_db is None else direct_snr_sigma2(point_cfg, snr_db)
    ctx = make_context(point_cfg, sigma2)
    records = [run_block_trial(ctx, i) for i in range(point_cfg.trials)]
    return _aggregate(point_cfg, records, snr_db=snr_db, n2=point_cfg.n2)


class TestFusedSweeps:
    """A sweep draws each trial once for its whole grid; every row must equal
    the row computed point by point."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("detector", ["llr", "ml"])
    def test_ber_rows_equal_pointwise(self, detector, workers):
        cfg = make_config(k_slots=4, l_slots=2, codebook_strategy="table1",
                          detector=detector, snr_db_grid=(0.0, 10.0, 0.0, 30.0), trials=24)
        rows = ber_sweep(cfg, workers=workers).rows
        assert rows == [pointwise_row(cfg, snr_db) for snr_db in cfg.snr_db_grid]
        assert rows[0] == rows[2]
        assert len({(r.avg_dc_ris_uw, r.avg_dc_eh_uw) for r in rows}) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_harvest_rows_equal_pointwise(self, workers):
        cfg = make_config(trials=24)
        grid = (0, 35, cfg.n_cells - cfg.n1, 16)
        rows = harvest_sweep(cfg, n2_grid=grid, workers=workers).table.rows
        assert rows == [pointwise_row(replace(cfg, n2=n2), None) for n2 in grid]

    def test_one_pool_per_sweep(self, monkeypatch):
        pools = []

        class CountingPool(timsr.sim.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(timsr.sim, "ProcessPoolExecutor", CountingPool)
        cfg = make_config(snr_db_grid=(0.0, 10.0, 20.0), trials=8)
        ber_sweep(cfg, workers=2)
        assert len(pools) == 1
        harvest_sweep(cfg, n2_grid=(0, 16, 32), workers=2)
        assert len(pools) == 2


class TestPowerBudgetReport:
    def test_values(self):
        rep = power_budget_report(make_config(trials=200))
        assert rep.p_ris_rf_w == pytest.approx(3.456e-3, rel=1e-12)
        assert rep.p_ris_varactor_w == pytest.approx(23.680e-3, rel=1e-12)
        assert rep.ratio_db == pytest.approx(8.36, abs=0.01)
        assert rep.margin_rf_w > 0  # harvested DC covers the rf-switch budget
        assert rep.margin_varactor_w < 0

    @pytest.mark.parametrize("n2, want", [
        (17, PowerBudgetReport(
            p_ris_rf_w=0.003456, p_ris_varactor_w=0.02368, ratio_db=8.358079642440265, n2=17,
            blocks=40, avg_dc_ris_uw=3313.2390615589106, margin_rf_w=-0.00014276093844108918,
            margin_varactor_w=-0.02036676093844109, standalone_frac_rf=0.35,
            standalone_frac_var=0.0)),
        (46, PowerBudgetReport(
            p_ris_rf_w=0.003456, p_ris_varactor_w=0.02368, ratio_db=8.358079642440265, n2=46,
            blocks=40, avg_dc_ris_uw=23948.426385622985, margin_rf_w=0.020492426385622983,
            margin_varactor_w=0.0002684263856229836, standalone_frac_rf=1.0,
            standalone_frac_var=0.55)),
    ])
    def test_workers_keep_fixed_seed_values(self, n2, want):
        # the report maps its blocks like a sweep; the values at seed 3 are
        # those of the one-block-at-a-time loop it replaced
        cfg = make_config(n2=n2, trials=40, seed=3)
        assert power_budget_report(cfg, workers=1) == want
        assert power_budget_report(cfg, workers=2) == want

    def test_scaling_with_cells(self):
        small = power_budget_report(make_config(trials=10))
        big = power_budget_report(make_config(n_cells=512, n1=60, n2=35, trials=10))
        assert big.p_ris_rf_w > small.p_ris_rf_w
        assert big.p_ris_varactor_w > small.p_ris_varactor_w


class TestBenchmark:
    def test_bits_per_block(self):
        cfg = make_config(scheme="benchmark", k_slots=8, l_slots=2,
                          snr_db_grid=(10.0,), trials=50)
        ctx = make_context(cfg, direct_snr_sigma2(cfg, 10.0))
        rec = run_block_trial(ctx, 0)
        assert rec.ptx_bits == 4   # eta_m = L * log2(M) only
        assert rec.index_bits == 0

    def test_full_info_block(self):
        cfg = make_config(scheme="benchmark", k_slots=4, l_slots=4,
                          snr_db_grid=(10.0,), trials=20)
        ctx = make_context(cfg, direct_snr_sigma2(cfg, 10.0))
        rng = trial_rng(cfg.seed, 0)
        ch = ctx.channel_model.realize(rng)
        bits = rng.integers(0, 2, 8)
        frame = encode_block(bits, ctx.codebook, ctx.constellation, cfg.p_low_w, cfg.p_high_w)
        assert frame.tau.sum() == 4  # no power slots left
        table = ber_sweep(replace(cfg, scheme="benchmark"))
        assert table.rows[0].scheme == "benchmark"

    def test_time_domain_bits_beat_signal_domain_bits(self):
        # paired streams, equal spectral efficiency (8 bits/block): carrying
        # the extra bits in the slot indices (4-QAM + index bits) should not
        # lose to carrying them in a larger constellation (fixed slots,
        # 16-QAM), within two standard errors
        tim = ber_sweep(make_config(snr_db_grid=(5.0,), trials=3000)).rows[0]
        bench = ber_sweep(
            replace(make_config(snr_db_grid=(5.0,), m_order=16, trials=3000), scheme="benchmark")
        ).rows[0]
        slack = 2 * math.hypot(tim.se_ber_ptx, bench.se_ber_ptx)
        assert tim.ber_ptx <= bench.ber_ptx + slack


class TestConfig:
    def test_defaults_mirror_baseline(self):
        cfg = make_config()
        assert (cfg.n_cells, cfg.n_cb) == (256, 4)
        assert (cfg.n1, cfg.n2, cfg.n3) == (60, 35, 161)
        assert (cfg.p_low_dbm, cfg.p_high_dbm) == (30.0, 34.0)
        assert cfg.p_low_w == pytest.approx(1.0)
        assert cfg.p_high_w == pytest.approx(dbm_to_watts(34.0))
        assert (cfg.kappa, cfg.carrier_ghz) == (5.0, 2.0)
        assert (cfg.ris_rho, cfg.ris_p_on_uw, cfg.ris_p_sat_mw) == (0.75, 150.0, 70.0)
        assert (cfg.eh_rho, cfg.eh_p_on_uw, cfg.eh_p_sat_mw) == (0.75, 50.0, 0.1)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            make_config(bogus=3)
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_text("bogus = 3")

    def test_parse_file(self, tmp_path):
        text = """
        # comment line
        k_slots = 8
        l_slots = 4          # trailing comment
        detector = ml
        snr_db_grid = 0, 10, 20
        paper_compat = true
        trials = 123
        """
        path = tmp_path / "run.cfg"
        path.write_text(text)
        cfg = load_config(path)
        assert cfg.k_slots == 8 and cfg.l_slots == 4
        assert cfg.detector == "ml"
        assert cfg.snr_db_grid == (0.0, 10.0, 20.0)
        assert cfg.paper_compat is True
        assert cfg.trials == 123

    def test_validation_failures(self):
        with pytest.raises(ValueError):
            make_config(l_slots=8, k_slots=8)  # tim needs L < K
        with pytest.raises(ValueError):
            make_config(p_high_dbm=20.0)  # below p_low
        with pytest.raises(ValueError):
            make_config(n1=200, n2=100)  # split exceeds N
        with pytest.raises(ValueError):
            make_config(scheme="ofdm")
        with pytest.raises(ValueError):
            make_config(detector="sphere")
        make_config(scheme="benchmark", k_slots=8, l_slots=8)  # allowed there

    @pytest.mark.parametrize("overrides, message", [
        (dict(kappa=-0.5), "kappa must be >= 0"),
        (dict(d_tx_ris_m=0.5), "d_tx_ris_m must be >= 1.0"),
        (dict(d_ris_rx_m=0.0), "d_ris_rx_m must be >= 1.0"),
        (dict(d_direct_m=0.99), "d_direct_m must be >= 1.0"),
        (dict(carrier_ghz=0.0), "carrier_ghz must be positive"),
        (dict(carrier_ghz=-2.0), "carrier_ghz must be positive"),
        (dict(n_cb=0), "n_cb must be >= 1"),
        (dict(m_order=6), "m_order must be a power of two"),
        (dict(m_order=1, constellation="psk"), "m_order must be a power of two"),
        (dict(m_order=8), "a square"),
        (dict(m_order=32, constellation="qam"), "a square"),
        (dict(constellation="ask"), "constellation must be one of"),
        (dict(los_phase_policy="random"), "los_phase_policy must be one of"),
        (dict(technology="mems"), "technology must be one of"),
        (dict(snr_db_grid=(0.0, 4000.0)), "snr_db_grid value 4000.0 dB"),
        (dict(snr_db_grid=(-4000.0,)), "snr_db_grid value -4000.0 dB"),
        (dict(snr_db_grid=(math.inf,)), "snr_db_grid value inf dB"),
        (dict(snr_db_grid=(10.0, math.nan)), "snr_db_grid value nan dB"),
        (dict(codebook_strategy="bogus"), "codebook_strategy must be one of"),
        (dict(codebook_strategy="table1"), "table1 preset is defined only for K=4, L=2"),
        (dict(m_rx=0), "m_rx must be >= 1"),
        (dict(n_cells=0, n1=0, n2=0), "n_cells must be >= 1"),
        (dict(kappa=math.nan), "kappa must be finite"),
        (dict(omega_phase_rad=math.nan), "omega_phase_rad must be finite"),
        (dict(p_low_dbm=math.inf, p_high_dbm=math.inf), "p_low_dbm must be finite"),
        (dict(p_cb_uw=-5.0), "p_cb_uw must be >= 0"),
        (dict(ris_rho=2.0), r"ris_rho must be in \(0, 1\]"),
        (dict(ris_p_on_uw=1e6), "need 0 < ris_p_on_uw < ris_p_sat_mw"),
        (dict(eh_rho=0.0), r"eh_rho must be in \(0, 1\]"),
        (dict(eh_p_on_uw=0.0), "need 0 < eh_p_on_uw < eh_p_sat_mw"),
        (dict(k_slots=64, l_slots=32), "the LLR detector would hold"),
    ], ids=["kappa", "d_tx_ris", "d_ris_rx", "d_direct", "carrier_zero", "carrier_negative",
            "n_cb", "m_order_not_pow2", "m_order_below_2", "qam_8", "qam_32", "constellation",
            "los_phase_policy", "technology", "snr_overflow", "snr_underflow", "snr_inf",
            "snr_nan", "codebook_strategy", "table1_layout", "m_rx_zero", "n_cells_zero",
            "kappa_nan", "omega_nan", "p_dbm_inf", "p_cb_negative", "ris_rho_above_one",
            "ris_p_on_above_sat", "eh_rho_zero", "eh_p_on_zero", "llr_codebook"])
    def test_config_time_guard(self, overrides, message):
        # bad input fails in make_config, before any context or channel model
        with pytest.raises(ValueError, match=message):
            make_config(**overrides)

    def test_guards_accept_boundary_values(self):
        make_config(kappa=0.0, d_tx_ris_m=1.0, d_ris_rx_m=1.0, d_direct_m=1.0, n_cb=1)
        for m_order, kind in ((2, "qam"), (4, "qam"), (64, "qam"), (8, "psk"), (2, "psk")):
            make_config(m_order=m_order, constellation=kind)
        for policy in ("per-link", "per-entry", "zero"):
            make_config(los_phase_policy=policy, technology="varactor")

    def test_physical_guards_accept_boundary_values(self):
        make_config(m_rx=1, n_cells=1, n1=0, n2=1, ris_rho=1.0, eh_rho=1.0,
                    p_cb_uw=0.0, p_switch_uw=0.0, p_drive_uw=0.0, p_varactor_uw=0.0)

    def test_llr_codebook_guard(self):
        # S * |A| * L: (24, 12) has 2^21 codewords, 7 * 2^21 * 12 > 2^25
        with pytest.raises(ValueError, match="LLR detector"):
            make_config(k_slots=24, l_slots=12)
        make_config(k_slots=24, l_slots=12, snr_db_grid=(10.0,))   # 2^21 * 12 fits

    def test_ml_hypothesis_space_guard(self):
        # (8,4) 64-QAM: 64 codewords * 2 phases * 64^4 symbol vectors = 2^31
        with pytest.raises(ValueError, match="hypotheses"):
            make_config(l_slots=4, m_order=64, detector="ml")
        assert 64 * 2 * 64**4 > ML_MAX_HYPOTHESES >= 64 * 2 * 16**4
        make_config(l_slots=4, m_order=64, detector="llr")
        make_config(l_slots=4, m_order=16, detector="ml")
        # the fixed-slot scheme has a single codeword: 2 * 64^4 = 2^25
        make_config(scheme="benchmark", l_slots=4, m_order=64, detector="ml")
        with pytest.raises(ValueError, match="hypotheses"):
            make_config(scheme="benchmark", l_slots=5, m_order=64, detector="ml")

    def test_hash_tracks_content(self):
        a = config_hash(make_config())
        assert a == config_hash(make_config())
        assert a != config_hash(make_config(seed=2))
        assert len(a) == 12
