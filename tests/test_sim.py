import ctypes
import importlib.util
import io
import math
import multiprocessing
import os
import re
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import timsr.sim
from conftest import build_observation, draw_channel
from timsr import make_config
from timsr.channel import ChannelModel
from timsr.config import (
    TRIAL_MAX_VALUES,
    SimConfig,
    config_hash,
    dbm_to_watts,
    load_config,
    parse_config_text,
    trial_values,
)
from oracles import (
    expected_dc_ris,
    loop_trial,
    rectenna_cap_w,
    slot_eh_received,
    slot_rectenna_input,
)
from timsr.ris import clc_dc_power
from timsr.rx import llr_detect, ml_joint_detect
from timsr.sim import (
    CSV_COLUMNS,
    Tally,
    _BATCH_BYTES,
    _aggregate,
    _batch_size,
    _map_points,
    ber_sweep,
    default_n2_grid,
    direct_snr_sigma2,
    draw_trials,
    harvest_sweep,
    make_context,
    run_block_trial,
    trial_rng,
)
from timsr.txphy import encode_block

SRC = Path(__file__).resolve().parents[1] / "src"


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

    def test_rekeyed_generator_equals_new_one(self):
        # an odd count of bits leaves half a 64-bit word buffered; rekeying
        # must drop it along with the counter, at either end of both key words
        used = trial_rng(5, 7)
        used.integers(0, 2, size=3)
        used.standard_normal(5)
        for seed in (0, 1, 2**63, 2**64 - 1):
            for stream in (0, 1, 2**32, 2**64 - 1):
                assert used.bit_generator.state["has_uint32"] == 1
                reused, new = trial_rng(seed, stream, used), trial_rng(seed, stream)
                assert reused is used
                assert str(reused.bit_generator.state) == str(new.bit_generator.state)
                np.testing.assert_array_equal(reused.integers(0, 2, size=9),
                                              new.integers(0, 2, size=9))
                np.testing.assert_array_equal(reused.standard_normal(7), new.standard_normal(7))

    @pytest.mark.parametrize("n_bits", range(1, 25))
    def test_batch_bits_equal_integers(self, n_bits):
        # the bits that draw_trials reads off raw words, data bits then the
        # surface bit, are integers(0, 2)'s, and the noise after them is too
        ctx = make_context(make_config(n_cells=4, n1=2, n2=1, m_rx=1, k_slots=4, l_slots=1,
                                       m_order=2), None)
        ctx = replace(ctx, bit_widths=(n_bits - 1,) + ctx.bit_widths[1:])
        normals, bits, ris_bit, noise = draw_trials(ctx, 3, 503, True)
        assert bits.shape == (500, n_bits - 1) and ris_bit.shape == (500,)
        for b in range(500):
            rng = trial_rng(ctx.cfg.seed, 3 + b)
            np.testing.assert_array_equal(normals[b], rng.standard_normal(normals.shape[1]))
            want = rng.integers(0, 2, size=n_bits)
            np.testing.assert_array_equal(bits[b], want[:-1])
            assert ris_bit[b] == want[-1]
            np.testing.assert_array_equal(noise[b], rng.standard_normal(noise.shape[1:]))

    @pytest.mark.parametrize("eta", [1, 4, 8, 13])
    def test_one_bit_draw_equals_two(self, eta):
        # trial batches read the data bits and the surface bit as one draw's
        # (test above), the per-trial loop oracle draws them in two calls
        for stream in range(200):
            fused, split = trial_rng(3, stream), trial_rng(3, stream)
            fused.standard_normal(6)
            split.standard_normal(6)
            bits = fused.integers(0, 2, size=eta + 1)
            np.testing.assert_array_equal(bits[:-1], split.integers(0, 2, size=eta))
            assert bits[-1] == int(split.integers(0, 2))
            np.testing.assert_array_equal(fused.standard_normal(4), split.standard_normal(4))


class TestBlockTrial:
    def test_noiseless_ml_is_error_free(self):
        cfg = make_config(k_slots=4, l_slots=2, codebook_strategy="table1",
                          detector="ml", trials=1)
        ctx = make_context(cfg, direct_snr_sigma2(cfg, 150.0))
        for i in range(30):
            rec = run_block_trial(ctx, i)
            assert rec.ptx_errors == 0 and rec.ris_errors == 0
            assert ctx.bit_widths[0] == 6  # 2 index bits + 2 symbols * 2 bits

    def test_no_absorbers_means_no_harvest(self):
        cfg = make_config(n2=0, trials=1)
        ctx = make_context(cfg, None)
        rec = run_block_trial(ctx, 0)
        assert rec.dc_ris_w == 0.0
        assert not rec.dc_ris_w >= ctx.p_ris_rf_w and not rec.dc_ris_w >= ctx.p_ris_var_w

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
            assert rec.dc_ris_w <= rectenna_cap_w(ctx.ris_model) + 1e-18
            assert rec.dc_eh_w <= rectenna_cap_w(ctx.eh_model) + 1e-18

    def test_harvest_matches_per_slot_ops(self):
        """The vectorized trial bookkeeping equals the per-slot primitives."""
        cfg = make_config(trials=1)
        ctx = make_context(cfg, None)
        rec = run_block_trial(ctx, 4)

        rng = trial_rng(cfg.seed, 4)
        channel = draw_channel(ctx.channel_model, rng)
        eta = ctx.codebook.bits_index + cfg.l_slots * ctx.constellation.bits_per_symbol
        bits = rng.integers(0, 2, eta)
        ris_bit = int(rng.integers(0, 2))
        frame = encode_block(bits, ctx.codebook, ctx.constellation,
                             cfg.p_low_w, cfg.p_high_w, cfg.omega_phase_rad)
        from timsr.ris import make_ris_state

        state = make_ris_state(channel, cfg.n1, ris_bit)
        g2 = channel.h_r[cfg.n1:cfg.n1 + cfg.n2]
        dc_ris = np.mean([
            clc_dc_power(slot_rectenna_input(g2, s), ctx.ris_model) for s in frame.samples
        ])
        dc_eh = np.mean([
            clc_dc_power(
                slot_eh_received(channel, (cfg.n1, cfg.n2), state.psi[ris_bit if t else -1], s)[1],
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
            det = detect(obs, ctx.codebook, ctx.constellation, frame.omega, cfg.p_low_w)
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

    @pytest.mark.parametrize("overrides", [
        dict(detector="llr"),
        dict(detector="ml", k_slots=4, l_slots=2, codebook_strategy="table1"),
        dict(scheme="benchmark"),
    ], ids=["llr_8_2", "ml_4_2_table1", "benchmark"])
    def test_ber_columns_from_loop_counts(self, overrides):
        # each BER column is the pooled error fraction of the loop's per-block
        # counts, and its SE the ddof=1 spread of the per-block fractions over
        # sqrt(n); a column with no bits per block is empty
        cfg = make_config(snr_db_grid=(0.0,), trials=60, **overrides)
        ctx = make_context(cfg, None)
        sigma2s = (direct_snr_sigma2(cfg, 0.0),)
        counts = [loop_trial(ctx, ((cfg.n1, cfg.n2),), sigma2s, i)[0][4:]
                  for i in range(cfg.trials)]
        row = ber_sweep(cfg).rows[0]
        for k, name in enumerate(("ptx", "index", "ris")):
            errors = [c[2 * k] for c in counts]
            widths = [c[2 * k + 1] for c in counts]
            ber, se = getattr(row, f"ber_{name}"), getattr(row, f"se_ber_{name}")
            if widths[0] == 0:
                assert name == "index" and cfg.scheme == "benchmark"
                assert ber is None and se is None
                continue
            assert sum(errors) > 0                  # 0 dB decides some bits wrong
            fractions = [e / w for e, w in zip(errors, widths)]
            assert ber == pytest.approx(sum(errors) / sum(widths), rel=1e-12)
            assert se == pytest.approx(statistics.stdev(fractions) / math.sqrt(len(fractions)),
                                       rel=1e-12)

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

    def test_minimums_on_an_unsorted_grid(self):
        # the smallest qualifying count, not the first one in grid order
        grid, cfg = (196, 16, 64, 0), make_config(trials=50)
        rep, ordered = (harvest_sweep(cfg, n2_grid=g) for g in (grid, sorted(grid)))
        assert (rep.min_n2_rf, rep.min_n2_varactor) == (64, 64)
        assert (ordered.min_n2_rf, ordered.min_n2_varactor) == (64, 64)

    def test_grid_validation(self):
        cfg = make_config(trials=10)
        with pytest.raises(ValueError):
            harvest_sweep(cfg, n2_grid=(0, 500))

    @pytest.mark.parametrize("overrides", [{}, dict(los_phase_policy="per-entry"),
                                           dict(m_order=16), dict(kappa=0.0)],
                             ids=["default", "per_entry", "qam16", "rayleigh"])
    def test_surface_level_matches_the_channel_statistics(self, overrides):
        # each row's mean surface DC within 3 standard errors of its expectation
        cfg, grid = make_config(trials=4000, **overrides), (8, 16, 35, 64)
        rep, ctx = harvest_sweep(cfg, grid), make_context(cfg, None)
        for n2, dc in zip(grid, rep.dc_ris_w):
            se = np.std(dc, ddof=1) / math.sqrt(len(dc))
            assert abs(np.mean(dc) - expected_dc_ris(ctx, n2)) <= 3 * se, n2


@pytest.fixture
def no_trials(monkeypatch):
    """Fail the test if any trial runs."""
    def fail(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(timsr.sim, "run_trials", fail)


class TestSweepGuards:
    @pytest.mark.parametrize("workers", [0, -2, 1.5, 2.0, True])
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

    @pytest.mark.parametrize("grid", [(35.7,), (0, 16, 35.5), ("3",), (None,), (True,),
                                      (10**400,)])
    def test_fractional_absorber_count_rejected(self, no_trials, grid):
        # the rejected count is named as given: the string "3" as '3'
        message = f"absorber count {re.escape(repr(grid[-1]))} is not a whole number from 0 to 196"
        with pytest.raises(ValueError, match=message):
            harvest_sweep(make_config(trials=5), n2_grid=grid)


def pointwise_row(point_cfg, snr_db):
    """One sweep row built the slow way: a fresh context for the grid point
    and one single-block trial per stream."""
    sigma2 = None if snr_db is None else direct_snr_sigma2(point_cfg, snr_db)
    ctx = make_context(point_cfg, sigma2)
    records = [run_block_trial(ctx, i) for i in range(point_cfg.trials)]
    tally = Tally(*(None if f[0] is None else np.array([f]) for f in zip(*records)))
    return _aggregate(ctx, tally, (point_cfg.n2,), (snr_db,))[0]


class InlinePool:
    """Stands in for ``timsr.sim._pool``: runs a sweep's shards one by one in
    this process, giving it back its CPU mask after each as a worker of its
    own would, and never enters the shared cache."""

    def __init__(self, workers):
        pass

    def map(self, fn, *iterables):
        return [self._run(fn, *args) for args in zip(*iterables)]

    @staticmethod
    def _run(fn, *args):
        mask = os.sched_getaffinity(0)
        try:
            return fn(*args)
        finally:
            os.sched_setaffinity(0, mask)


@pytest.fixture
def fresh_pool():
    """No shared worker pool when the test starts, and none of its making
    left when it ends."""
    timsr.sim._drop_pool()
    yield
    timsr.sim._drop_pool()


@pytest.fixture
def counted_pools(monkeypatch):
    """Every worker pool that ``timsr.sim`` builds from here on, in order."""
    pools = []

    class CountingPool(timsr.sim.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(timsr.sim, "ProcessPoolExecutor", CountingPool)
    return pools


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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_counter_rows_are_c_ordered(self, workers):
        # _aggregate reduces each (grid point, trial) row as it lies; a row of
        # an array in another order would be reduced in another order than the
        # row alone. Every shard here runs more than one batch.
        cfg = make_config(trials=180)
        ctx = make_context(cfg, None)
        sigma2s = tuple(direct_snr_sigma2(cfg, snr) for snr in cfg.snr_db_grid)
        for n2s, s2s in (((cfg.n2,), sigma2s), (default_n2_grid(cfg), ())):
            assert cfg.trials // workers > _batch_size(ctx, len(s2s), len(n2s))
            tally = _map_points(ctx, n2s, s2s, workers)
            for field in tally:
                if field is not None:
                    assert field.shape[-1] == cfg.trials and field.flags.c_contiguous

    def test_pool_never_larger_than_its_batches(self, monkeypatch):
        sizes = []

        class SizedPool(InlinePool):
            """Records its size and runs the tasks in this process."""

            def __init__(self, workers):
                sizes.append(workers)

        cfg = make_config(trials=1)
        want = harvest_sweep(cfg, (cfg.n2,)).table.rows
        monkeypatch.setattr(timsr.sim, "_pool", SizedPool)
        assert harvest_sweep(cfg, (cfg.n2,), workers=64).table.rows == want
        assert sizes == []          # one shard runs in this process
        cfg = make_config(snr_db_grid=(0.0, 10.0), trials=5)
        assert ber_sweep(cfg, workers=64).rows == ber_sweep(cfg).rows
        assert sizes == [5]         # a worker for each of 5 shards

    def test_workers_run_the_callers_batch_size(self, monkeypatch):
        # the worker shards run under the unpatched _batch_size, as in a
        # worker forked before the patch, and still take 7-trial batches
        unpatched, run_trials = timsr.sim._batch_size, timsr.sim.run_trials
        batches = []

        class StalePool(InlinePool):
            def map(self, fn, *iterables):
                with monkeypatch.context() as m:
                    m.setattr(timsr.sim, "_batch_size", unpatched)
                    return super().map(fn, *iterables)

        cfg = make_config(trials=30)
        want = harvest_sweep(cfg, n2_grid=(0, 35)).table.rows
        monkeypatch.setattr(timsr.sim, "_batch_size", lambda *args: 7)
        monkeypatch.setattr(timsr.sim, "_pool", StalePool)
        monkeypatch.setattr(timsr.sim, "run_trials", lambda ctx, n2s, sigma2s, a, b: (
            batches.append((a, b)) or run_trials(ctx, n2s, sigma2s, a, b)))
        assert harvest_sweep(cfg, n2_grid=(0, 35), workers=2).table.rows == want
        assert sorted(batches) == [(0, 7), (7, 14), (14, 15), (15, 22), (22, 29), (29, 30)]


def _sim_on(platform, monkeypatch):
    """A fresh copy of ``timsr.sim`` loaded as if ``sys.platform`` were
    ``platform``, which stays patched for the test."""
    monkeypatch.setattr(sys, "platform", platform)
    spec = importlib.util.spec_from_file_location("timsr._sim_off_linux", timsr.sim.__file__)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


class TestWorkerPool:
    """Multi-worker sweeps share one pool per process and worker count; a
    sweep that fails, or finds a worker dead, leaves no broken pool behind."""

    GRID = (0, 16, 35)

    def _rows(self, workers):
        return harvest_sweep(make_config(trials=8), n2_grid=self.GRID,
                             workers=workers).table.rows

    def test_one_pool_per_worker_count(self, fresh_pool, counted_pools):
        cfg = make_config(snr_db_grid=(0.0, 10.0, 20.0), trials=8)
        ber_sweep(cfg, workers=2)
        harvest_sweep(cfg, n2_grid=(0, 16, 32), workers=2)
        assert len(counted_pools) == 1
        first = multiprocessing.active_children()
        assert len(first) == 2
        harvest_sweep(cfg, n2_grid=(0, 16, 32), workers=3)
        assert len(counted_pools) == 2
        assert not any(worker.is_alive() for worker in first)

    def test_one_pool_serves_every_kind(self, fresh_pool, counted_pools):
        llr = make_config(snr_db_grid=(0.0, 10.0), trials=8)
        ml = make_config(detector="ml", k_slots=4, l_slots=2, codebook_strategy="table1",
                         snr_db_grid=(0.0, 10.0), trials=8)
        sweeps = [lambda w: ber_sweep(llr, workers=w).rows,
                  lambda w: harvest_sweep(llr, n2_grid=self.GRID, workers=w).table.rows,
                  lambda w: harvest_sweep(llr, (llr.n2,), workers=w).dc_ris_w.tolist(),
                  lambda w: ber_sweep(ml, workers=w).rows]
        want = [sweep(1) for sweep in sweeps]
        assert [sweep(2) for sweep in sweeps] == want
        assert len(counted_pools) == 1
        assert sweeps[0](3) == want[0]
        assert len(counted_pools) == 2

    @pytest.mark.parametrize("platform", ["darwin", "win32"])
    def test_pool_keeps_the_default_start_method_off_linux(self, platform, monkeypatch):
        # macOS lists fork, but its system frameworks can crash in a forked child
        assert _sim_on(platform, monkeypatch)._START is None

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the pool forks on Linux only")
    def test_pool_forks_on_linux(self, fresh_pool):
        # whatever the interpreter's default start method (forkserver from 3.14)
        default = multiprocessing.get_start_method()
        multiprocessing.set_start_method("spawn", force=True)
        try:
            pool = timsr.sim._pool(2)
        finally:
            multiprocessing.set_start_method(default, force=True)
        assert pool._mp_context.get_start_method() == "fork"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the pool forks on Linux only")
    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_unguarded_script_runs_multi_worker_sweeps(self, method, tmp_path):
        # no __main__ guard: a worker that re-imported the script would sweep
        # again before its bootstrap ended, and fail
        script = tmp_path / "sweep.py"
        script.write_text("import multiprocessing\n"
                          f"multiprocessing.set_start_method({method!r}, force=True)\n"
                          "from timsr import make_config\n"
                          "from timsr.sim import ber_sweep, harvest_sweep\n"
                          "cfg = make_config(trials=20)\n"
                          "print(ber_sweep(cfg, workers=2).rows == ber_sweep(cfg).rows,\n"
                          "      harvest_sweep(cfg, workers=2).table.rows\n"
                          "      == harvest_sweep(cfg).table.rows)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
        run = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "True True\n"

    def test_no_worker_outlives_the_process(self):
        script = ("import multiprocessing\n"
                  "from timsr import make_config\n"
                  "from timsr.sim import harvest_sweep\n"
                  "harvest_sweep(make_config(trials=8), n2_grid=(0, 16, 35), workers=2)\n"
                  "print(*(worker.pid for worker in multiprocessing.active_children()))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        pids = [int(pid) for pid in run.stdout.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):      # the worker is gone
                os.kill(pid, 0)

    def test_worker_killed_in_a_sweep(self, fresh_pool, monkeypatch):
        # the workers, forked after the patch, run the second shard's first
        # batch only to kill their own process
        want, run_trials, caller = self._rows(1), timsr.sim.run_trials, os.getpid()

        def killing(ctx, n2s, sigma2s, start, stop):
            if os.getpid() != caller and start > 0:
                os.kill(os.getpid(), signal.SIGKILL)
            return run_trials(ctx, n2s, sigma2s, start, stop)

        monkeypatch.setattr(timsr.sim, "run_trials", killing)
        with pytest.raises(BrokenProcessPool):
            self._rows(2)
        assert timsr.sim._shared is None
        assert multiprocessing.active_children() == []
        monkeypatch.undo()
        assert self._rows(2) == want

    def test_worker_killed_between_sweeps(self, fresh_pool):
        want = self._rows(1)
        assert self._rows(2) == want
        pool = timsr.sim._pool(2)
        worker, _ = multiprocessing.active_children()
        os.kill(worker.pid, signal.SIGKILL)
        # the pool's own thread notices the death and marks the pool broken
        deadline = time.monotonic() + 30
        while not pool._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool._broken
        assert self._rows(2) == want
        assert timsr.sim._pool(2) is not pool


# Runs the sweep given as argv[1] twice, then prints the minor page faults
# of a third: this process's, then each pool worker's (field 10 of its stat).
_FAULTS_SCRIPT = """
import resource, sys
from timsr import make_config
from timsr import sim
from timsr.sim import ber_sweep, harvest_sweep

def worker_faults():
    faults = []
    for pid in sorted(sim._shared[1]._processes) if sim._shared else ():
        with open(f"/proc/{pid}/stat") as stat:
            faults.append(int(stat.read().rpartition(")")[2].split()[7]))
    return faults

sweep = lambda: eval(sys.argv[1])
sweep(), sweep()
before, workers = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, worker_faults()
sweep()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before,
      *(b - a for a, b in zip(workers, worker_faults())))
"""


class TestHeldHeap:
    """The first sweep of a process fixes glibc's malloc thresholds from the
    batch budget, so later batches reuse the heap that earlier ones freed."""

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's heap is Linux's")
    @pytest.mark.parametrize("sweep, processes", [
        ("ber_sweep(make_config(detector='llr', trials=120), 1)", 1),
        ("ber_sweep(make_config(l_slots=4, detector='ml', trials=50), 1)", 1),
        ("harvest_sweep(make_config(trials=200), workers=2)", 3),
    ])
    def test_steady_sweeps_take_no_page_faults(self, sweep, processes):
        # each batch used to hand its heap back and the next fault it in:
        # about 850 faults per default LLR sweep, 565 per (8,4) ML sweep
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
        run = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT, sweep], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        faults = [int(n) for n in run.stdout.split()]
        assert len(faults) == processes          # the caller's, then each worker's
        assert max(faults) <= 50, faults

    @pytest.mark.skipif(not (sys.platform.startswith("linux")
                             and hasattr(ctypes.CDLL(None), "mallopt")),
                        reason="glibc's mallopt")
    def test_glibc_takes_both_thresholds(self):
        assert timsr.sim._hold_heap.__wrapped__() == (1, 1)

    @pytest.mark.parametrize("platform", ["darwin", "win32"])
    def test_heap_left_alone_off_linux(self, platform, monkeypatch):
        module = _sim_on(platform, monkeypatch)

        def no_libc(*args, **kwargs):
            raise AssertionError("libc loaded off Linux")

        monkeypatch.setattr(ctypes, "CDLL", no_libc)
        assert module._hold_heap() == ()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs settable CPU affinity and at least 2 CPUs")
class TestShardCpus:
    """Every shard of a multi-worker sweep runs on the CPUs it is sent: a CPU
    of its own when the caller's mask has enough, else the caller's whole
    mask. The caller never sets its own mask."""

    GRID = (0, 16, 35)

    def _masks(self, monkeypatch):
        """Pools run inline, and each batch records (its first trial, the mask
        it ran under)."""
        seen = []
        run_trials = timsr.sim.run_trials

        def recording(ctx, n2s, sigma2s, start, stop):
            seen.append((start, os.sched_getaffinity(0)))
            return run_trials(ctx, n2s, sigma2s, start, stop)

        monkeypatch.setattr(timsr.sim, "_pool", InlinePool)
        monkeypatch.setattr(timsr.sim, "run_trials", recording)
        return seen

    def _rows(self, workers, trials=40):
        return harvest_sweep(make_config(trials=trials), n2_grid=self.GRID,
                             workers=workers).table.rows

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_each_shard_on_its_own_cpu(self, monkeypatch, workers):
        mask = os.sched_getaffinity(0)
        if workers > len(mask):
            pytest.skip(f"{workers} shards need {workers} CPUs")
        seen = self._masks(monkeypatch)
        cfg = make_config(trials=6 * workers)
        rows = harvest_sweep(cfg, n2_grid=(0, 35), workers=workers).table.rows
        assert os.sched_getaffinity(0) == mask
        shard_cpus = {}
        for start, ran_on in seen:
            assert len(ran_on) == 1
            shard_cpus.setdefault(start // 6, set()).update(ran_on)
        assert sorted(shard_cpus) == list(range(workers))
        assert all(len(cpus) == 1 for cpus in shard_cpus.values())
        assert len(set.union(*shard_cpus.values())) == workers
        monkeypatch.undo()
        assert rows == harvest_sweep(cfg, n2_grid=(0, 35)).table.rows

    @pytest.mark.parametrize("shards, want", [(2, [{3}, {2}]), (3, [{3}, {0}, {2}]),
                                              (4, [{3}, {0}, {1}, {2}])])
    def test_last_shard_on_the_callers_cpu(self, monkeypatch, shards, want):
        # a 4-CPU mask with the caller on CPU 2: the CPUs after it in order,
        # wrapping round, then its own
        stat = "1 (python) " + " ".join(["0"] * 36 + ["2"])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(timsr.sim, "open", lambda *args: io.StringIO(stat), raising=False)
        assert timsr.sim._shard_cpus(shards) == want

    def test_more_shards_than_cpus_pin_nothing(self, monkeypatch):
        mask = os.sched_getaffinity(0)
        seen = self._masks(monkeypatch)
        workers = len(mask) + 1
        harvest_sweep(make_config(trials=workers), n2_grid=(0, 35), workers=workers)
        assert len(seen) == workers
        assert all(ran_on == mask for _, ran_on in seen)
        assert os.sched_getaffinity(0) == mask

    def test_caller_never_sets_its_mask(self, fresh_pool, monkeypatch):
        # the workers, forked after the patches, pin themselves and raise
        calls, caller, setaffinity = [], os.getpid(), os.sched_setaffinity

        def recording(pid, cpus):
            if os.getpid() == caller:
                calls.append(cpus)
            setaffinity(pid, cpus)

        def failing(*args):
            raise RuntimeError("shard failed")

        monkeypatch.setattr(os, "sched_setaffinity", recording)
        monkeypatch.setattr(timsr.sim, "run_trials", failing)
        with pytest.raises(RuntimeError, match="shard failed"):
            self._rows(2, trials=4)
        assert calls == []
        assert timsr.sim._shared is None

    def test_workers_follow_a_narrowed_mask(self, fresh_pool):
        # the pool outlives the first sweep, so its workers were forked on
        # the wider mask; each must still run on the CPU it is sent
        mask = os.sched_getaffinity(0)
        one = {min(mask)}
        want = self._rows(1)
        assert self._rows(2) == want
        os.sched_setaffinity(0, one)
        try:
            assert self._rows(2) == want
            assert os.sched_getaffinity(0) == one
            workers = multiprocessing.active_children()
            assert [os.sched_getaffinity(worker.pid) for worker in workers] == [one, one]
        finally:
            os.sched_setaffinity(0, mask)

    def test_unknown_cpu_sends_every_shard_the_mask(self, fresh_pool, monkeypatch):
        mask = os.sched_getaffinity(0)
        want = self._rows(1)
        assert self._rows(2) == want       # the workers now run on one CPU each

        def unreadable(*args, **kwargs):
            raise OSError("no stat line")

        monkeypatch.setattr(timsr.sim, "open", unreadable, raising=False)
        assert timsr.sim._shard_cpus(2) == [mask, mask]
        assert self._rows(2) == want
        workers = multiprocessing.active_children()
        assert [os.sched_getaffinity(worker.pid) for worker in workers] == [mask, mask]

    def test_no_affinity_call_sends_no_cpus(self, fresh_pool, monkeypatch):
        # a pool forked here lacks the call too, so none may outlive the test
        want = self._rows(1)
        monkeypatch.delattr(os, "sched_setaffinity")
        assert timsr.sim._shard_cpus(2) == [None, None]
        assert self._rows(2) == want


def _grid(cfg, kind):
    """(context, layouts, variances) of a BER sweep, or of a harvest sweep
    from no absorbers to every cell outside the assist group; the sweep
    maps the layouts' absorber counts."""
    if kind == "harvest":
        layouts = tuple((cfg.n1, n2) for n2 in (0, 35, cfg.n_cells - cfg.n1))
        return make_context(replace(cfg, n2=0), None), layouts, ()
    sigma2s = tuple(direct_snr_sigma2(cfg, snr_db) for snr_db in cfg.snr_db_grid)
    return make_context(cfg, None), ((cfg.n1, cfg.n2),), sigma2s


# The per-trial loop's record fields, in order.
LOOP_FIELDS = ("dc_ris_w", "dc_eh_w", "ok_rf", "ok_var", "ptx_errors", "ptx_bits",
               "index_errors", "index_bits", "ris_errors", "ris_bits")


def _n2s(layouts):
    return tuple(n2 for _, n2 in layouts)


def _assert_equals_loop(tally, ctx, layouts, sigma2s):
    """Every counter of every point equals that of the per-trial loop: the
    harvest row of its layout, the error row of its variance, the ok flags
    as the thresholded harvest and the bit totals as the context's widths;
    with no variance the error counters are absent and the loop's zero."""
    want = np.array([loop_trial(ctx, layouts, sigma2s, i) for i in range(ctx.cfg.trials)],
                    dtype=float)
    per_layout = len(sigma2s) or 1
    assert want.shape[1] == len(layouts) * per_layout == len(tally.dc_ris_w) * per_layout
    for p, expected in enumerate(np.moveaxis(want, 1, 0)):
        h, s = divmod(p, per_layout)
        dc_ris = tally.dc_ris_w[h]
        got = [dc_ris, tally.dc_eh_w[h], dc_ris >= ctx.p_ris_rf_w, dc_ris >= ctx.p_ris_var_w]
        for errors, width in zip(tally[2:], ctx.bit_widths):
            assert (errors is None) == (not sigma2s)
            got += [0, 0] if errors is None else [errors[s], width]
        for name, field, column in zip(LOOP_FIELDS, got, expected.T):
            np.testing.assert_array_equal(np.broadcast_to(field, column.shape), column,
                                          err_msg=name)


class TestTrialBatches:
    """Trial batches equal the one-trial-at-a-time loop bit for bit, wherever
    the batch boundaries fall and however many workers map them."""

    KINDS = {
        "llr": dict(detector="llr"),
        "ml": dict(detector="ml", k_slots=4, l_slots=2, codebook_strategy="table1"),
        "harvest": dict(),
    }

    @pytest.mark.parametrize("kind", ["llr", "ml", "harvest"])
    @pytest.mark.parametrize("size", [1, 7])
    def test_forced_batch_sizes(self, monkeypatch, kind, size):
        # 7 does not divide 37: the last batch holds 2 trials
        monkeypatch.setattr(timsr.sim, "_batch_size", lambda *args: size)
        ctx, layouts, sigma2s = _grid(make_config(trials=37, **self.KINDS[kind]), kind)
        _assert_equals_loop(_map_points(ctx, _n2s(layouts), sigma2s, 1), ctx, layouts, sigma2s)

    @pytest.mark.parametrize("overrides, n_points, size", [
        (dict(detector="llr"), 7, 73),                 # 3,584 slot-cost differences
        (dict(l_slots=4, detector="ml"), 7, 73),       # 3,584 of them, 1,792 power-slot costs
        (dict(), 0, 85),                               # a harvest sweep: 3,082 normals
    ], ids=["ber_llr_8_2", "ber_ml_8_4", "harvest_n2_w2"])
    def test_benchmark_workload_batch_sizes(self, overrides, n_points, size):
        assert _batch_size(make_context(make_config(**overrides), None), n_points) == size

    @pytest.mark.parametrize("overrides, counts", [
        (dict(detector="llr"), None),
        (dict(l_slots=4, detector="ml"), None),
        (dict(m_rx=16, detector="llr"), None),
        (dict(), "default"),
        (dict(n1=0), range(257)),
    ], ids=["llr", "ml_8_4", "llr_m_rx_16", "harvest", "harvest_n1_0_every_count"])
    def test_batch_peak_within_four_budgets(self, overrides, counts):
        # measured peaks: 1.8 budgets detecting at 4 antennas, 1.3 at 16, 1.6 on the
        # default harvest grid, 3.2 for every count with no assist cells
        cfg = make_config(**overrides)
        if counts is None:
            n2s = (cfg.n2,)
            sigma2s = tuple(direct_snr_sigma2(cfg, snr_db) for snr_db in cfg.snr_db_grid)
        else:
            n2s, sigma2s = tuple(default_n2_grid(cfg) if counts == "default" else counts), ()
        ctx = make_context(cfg, None)
        batch = _batch_size(ctx, len(sigma2s), len(n2s))
        tracemalloc.start()
        try:
            timsr.sim.run_trials(ctx, n2s, sigma2s, 0, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * _BATCH_BYTES

    @pytest.mark.parametrize("m_rx", [4, 9])
    def test_harvest_realizes_one_receive_antenna(self, monkeypatch, m_rx):
        # co-phasing reads receive antenna 0 alone, so a batch that detects
        # nothing realizes just that one; a detecting batch realizes them all
        kept, realize = [], ChannelModel.realize

        def spy(model, normals, *args):
            drawn = realize(model, normals, *args)
            kept.append((drawn.h_d.shape[-1], drawn.G_d.shape[-2]))
            return drawn

        monkeypatch.setattr(ChannelModel, "realize", spy)
        cfg = make_config(m_rx=m_rx)
        ctx = make_context(cfg, None)
        timsr.sim.run_trials(ctx, (cfg.n2,), (), 0, 3)
        timsr.sim.run_trials(ctx, (cfg.n2,), (direct_snr_sigma2(cfg, 10.0),), 0, 3)
        assert kept == [(1, 1), (m_rx, m_rx)]

    def test_absorber_grid_sizes_the_harvest_batch(self, monkeypatch):
        # with no assist cells and every count 0..256, the harvester's samples
        # stacked over 257 counts outgrow the 3,082 link normals
        # (63-trial batches, where the normals alone would give 85)
        cfg = make_config(n1=0, trials=100)
        batches, run = [], timsr.sim.run_trials
        monkeypatch.setattr(timsr.sim, "run_trials", lambda ctx, n2s, sigma2s, a, b: (
            batches.append(b - a) or run(ctx, n2s, sigma2s, a, b)))
        harvest_sweep(cfg, range(257))
        assert batches == [63, 37]
        assert trial_values(cfg, 0, 257) == (4112, "harvester samples (2 * C * K = 2 * 257 * 8)")

    @pytest.mark.parametrize("kind", ["llr", "ml", "harvest"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_default_batch_size(self, kind, workers):
        ctx, layouts, sigma2s = _grid(make_config(trials=90, **self.KINDS[kind]), kind)
        assert 1 < _batch_size(ctx, len(sigma2s)) < 90
        _assert_equals_loop(_map_points(ctx, _n2s(layouts), sigma2s, workers), ctx, layouts,
                            sigma2s)

    @pytest.mark.parametrize("kind", ["llr", "harvest"])
    @pytest.mark.parametrize("kappa", [0.0, 1e9])
    def test_extreme_rician_factor(self, kind, kappa):
        ctx, layouts, sigma2s = _grid(make_config(trials=23, kappa=kappa), kind)
        _assert_equals_loop(_map_points(ctx, _n2s(layouts), sigma2s, 1), ctx, layouts, sigma2s)

    @pytest.mark.parametrize("detector", ["llr", "ml"])
    @pytest.mark.parametrize("split", [dict(n1=0), dict(n2=0), dict(n2=196)],
                             ids=["no_assist", "no_absorb", "no_inform"])
    def test_empty_cell_groups(self, detector, split):
        cfg = make_config(trials=23, detector=detector, k_slots=4, l_slots=2,
                          codebook_strategy="table1", **split)
        ctx, layouts, sigma2s = _grid(cfg, "ber")
        assert 0 in (ctx.cfg.n1, ctx.cfg.n2, ctx.cfg.n_cells - ctx.cfg.n1 - ctx.cfg.n2)
        _assert_equals_loop(_map_points(ctx, _n2s(layouts), sigma2s, 1), ctx, layouts, sigma2s)


class TestPowerBudgetRow:
    """The power budget is the harvest sweep at the configured absorber count:
    its one row and the per-block surface DC behind it."""

    def test_values(self):
        rep = harvest_sweep(make_config(trials=200), (35,))
        assert rep.p_ris_rf_w == pytest.approx(3.456e-3, rel=1e-12)
        assert rep.p_ris_varactor_w == pytest.approx(23.680e-3, rel=1e-12)
        avg_dc = np.mean(rep.dc_ris_w[0])
        assert avg_dc > rep.p_ris_rf_w  # harvested DC covers the rf-switch budget
        assert avg_dc < rep.p_ris_varactor_w

    @pytest.mark.parametrize("n2, want", [
        (17, (40, 3313.2390615589106, -0.00014276093844108918, -0.02036676093844109, 0.35, 0.0)),
        (46, (40, 23948.426385622985, 0.020492426385622983, 0.0002684263856229836, 1.0, 0.55)),
    ])
    def test_workers_keep_fixed_seed_values(self, n2, want):
        # blocks, average DC, both margins and both standalone fractions; the
        # values at seed 3 are those of the one-block-at-a-time loop that
        # the sweep replaced
        cfg = make_config(n2=n2, trials=40, seed=3)
        for workers in (1, 2):
            rep = harvest_sweep(cfg, (n2,), workers)
            (row,) = rep.table.rows
            avg_dc = float(np.mean(rep.dc_ris_w[0]))
            assert (row.trials, row.avg_dc_ris_uw, avg_dc - rep.p_ris_rf_w,
                    avg_dc - rep.p_ris_varactor_w, row.standalone_frac_rf,
                    row.standalone_frac_var) == want

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_average_the_block_dc(self, workers):
        # one row of blocks, in trial order, per grid point, repeats included
        cfg, grid = make_config(trials=30, seed=3), (46, 0, 196, 46)
        rep = harvest_sweep(cfg, grid, workers)
        assert rep.dc_ris_w.shape == (len(grid), cfg.trials)
        assert [float(np.mean(dc) * 1e6) for dc in rep.dc_ris_w] == [
            row.avg_dc_ris_uw for row in rep.table.rows]
        assert np.array_equal(rep.dc_ris_w[0], rep.dc_ris_w[3])
        assert np.array_equal(rep.dc_ris_w[1:3], harvest_sweep(cfg, (0, 196)).dc_ris_w)

    def test_scaling_with_cells(self):
        small = harvest_sweep(make_config(trials=10), (35,))
        big = harvest_sweep(make_config(n_cells=512, n1=60, n2=35, trials=10), (35,))
        assert big.p_ris_rf_w > small.p_ris_rf_w
        assert big.p_ris_varactor_w > small.p_ris_varactor_w


class TestBenchmark:
    def test_bits_per_block(self):
        cfg = make_config(scheme="benchmark", k_slots=8, l_slots=2,
                          snr_db_grid=(10.0,), trials=50)
        ctx = make_context(cfg, direct_snr_sigma2(cfg, 10.0))
        assert ctx.bit_widths[0] == 4   # eta_m = L * log2(M) only
        assert ctx.bit_widths[1] == 0

    def test_full_info_block(self):
        cfg = make_config(scheme="benchmark", k_slots=4, l_slots=4,
                          snr_db_grid=(10.0,), trials=20)
        ctx = make_context(cfg, direct_snr_sigma2(cfg, 10.0))
        rng = trial_rng(cfg.seed, 0)
        ch = draw_channel(ctx.channel_model, rng)
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
        assert (cfg.n1, cfg.n2, cfg.n_cells - cfg.n1 - cfg.n2) == (60, 35, 161)
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
        (dict(carrier_ghz=0.001), "d_tx_ris_m = 5.0 m at carrier_ghz = 0.001 gives path gain 34.5"),
        (dict(carrier_ghz=0.02, d_tx_ris_m=1.0), r"d_tx_ris_m = 1.0 m at carrier_ghz = 0.02 "
                                                 r"gives path gain 1.31[0-9]*, outside \(0, 1\]"),
        (dict(d_ris_rx_m=1e300), r"d_ris_rx_m = 1e\+300 m at carrier_ghz = 2.0 "
                                 r"gives path gain 0.0,"),
        (dict(carrier_ghz=1e300), r"d_tx_ris_m = 5.0 m at carrier_ghz = 1e\+300 "
                                  r"gives path gain 0.0,"),
        (dict(carrier_ghz=1e-300), "d_tx_ris_m = 5.0 m at carrier_ghz = 1e-300 "
                                   "gives path gain inf,"),
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
        (dict(p_low_dbm=4000.0, p_high_dbm=4000.0), "p_low_dbm value 4000.0 dBm"),
        (dict(p_high_dbm=4000.0), "p_high_dbm value 4000.0 dBm"),
        (dict(p_low_dbm=-4000.0), "p_low_dbm value -4000.0 dBm"),
        (dict(p_cb_uw=-5.0), "p_cb_uw must be >= 0"),
        (dict(ris_rho=2.0), r"ris_rho must be in \(0, 1\]"),
        (dict(ris_p_on_uw=1e6), "need 0 < ris_p_on_uw < ris_p_sat_mw"),
        (dict(eh_rho=0.0), r"eh_rho must be in \(0, 1\]"),
        (dict(eh_p_on_uw=0.0), "need 0 < eh_p_on_uw < eh_p_sat_mw"),
        (dict(k_slots=64, l_slots=32), "one trial would hold [0-9]+ codeword slot LLRs"),
        (dict(paper_compat="no"), "paper_compat must be a boolean, got 'no'"),
        (dict(trials=2.5), "trials must be an integer, got 2.5"),
        (dict(n2=35.0), "n2 must be an integer, got 35.0"),
        (dict(seed=1.5), "seed must be an integer, got 1.5"),
        (dict(k_slots=8.0), "k_slots must be an integer, got 8.0"),
        (dict(trials=True), "trials must be an integer, got True"),
        (dict(kappa=True), "kappa must be a number, got True"),
        (dict(detector=2), "detector must be a string, got 2"),
        (dict(snr_db_grid=[0.0, 10.0]), "snr_db_grid must be a tuple of numbers"),
        (dict(snr_db_grid=(0.0, "10")), "snr_db_grid must be a tuple of numbers"),
        (dict(l_slots=0), "need 1 <= l_slots <= 7 for scheme 'tim'"),
        (dict(n1=-1), "cell split n1=-1, n2=35 incompatible"),
        (dict(n2=-1), "cell split n1=60, n2=-1 incompatible"),
        (dict(scheme="benchmark", k_slots=4, l_slots=5),
         "need 1 <= l_slots <= 4 for scheme 'benchmark'"),
    ], ids=["kappa", "d_tx_ris", "d_ris_rx", "d_direct", "carrier_zero", "carrier_negative",
            "gain_above_one", "gain_above_one_near", "gain_zero_far", "gain_zero_carrier",
            "gain_overflow",
            "n_cb", "m_order_not_pow2", "m_order_below_2", "qam_8", "qam_32", "constellation",
            "los_phase_policy", "technology", "snr_overflow", "snr_underflow", "snr_inf",
            "snr_nan", "codebook_strategy", "table1_layout", "m_rx_zero", "n_cells_zero",
            "kappa_nan", "omega_nan", "p_dbm_inf", "p_dbm_overflow", "p_high_dbm_overflow",
            "p_dbm_underflow", "p_cb_negative", "ris_rho_above_one", "ris_p_on_above_sat",
            "eh_rho_zero", "eh_p_on_zero", "llr_codebook", "paper_compat_str", "trials_float",
            "n2_float", "seed_float", "k_slots_float", "trials_bool", "kappa_bool",
            "detector_int", "snr_grid_list", "snr_grid_str", "l_slots_zero", "n1_negative",
            "n2_negative", "benchmark_l_above_k"])
    def test_config_time_guard(self, overrides, message):
        # bad input fails in make_config, before any context or channel model
        with pytest.raises(ValueError, match=message):
            make_config(**overrides)

    @pytest.mark.parametrize("build, message", [
        (lambda: replace(make_config(), n2=500), "cell split n1=60, n2=500 incompatible"),
        (lambda: SimConfig(trials=0), "trials must be >= 1"),
        (lambda: SimConfig(snr_db_grid=[0.0]), "snr_db_grid must be a tuple of numbers"),
    ], ids=["replace_cell_split", "direct_trials", "direct_snr_grid_list"])
    def test_config_checked_when_built(self, build, message):
        # no config object exists unchecked, whichever way it is built
        with pytest.raises(ValueError, match=message):
            build()

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
        with pytest.raises(ValueError, match="codeword slot LLRs"):
            make_config(k_slots=24, l_slots=12)
        make_config(k_slots=24, l_slots=12, snr_db_grid=(10.0,))   # 2^21 * 12 fits

    def test_ml_codebook_guard(self):
        # joint ML gathers S * |A| * L power-slot costs, as LLR its slot LLRs
        with pytest.raises(ValueError, match="codeword power-slot costs"):
            make_config(k_slots=24, l_slots=12, detector="ml")
        cfg = make_config(k_slots=24, l_slots=12, detector="ml", snr_db_grid=(10.0,))
        assert trial_values(cfg, 1) == (2**21 * 12, "codeword power-slot costs "
                                                    "(S * |A| * L = 1 * 2097152 * 12)")

    def test_trial_array_guard(self):
        # (8,4) 64-QAM ML searches 2^31 hypotheses but holds no array of them
        cfg = make_config(l_slots=4, m_order=64, detector="ml", trials=5)
        assert trial_values(cfg, 7) == (57344, "slot-cost differences "
                                               "(2 * S * J * M * K * M_R = 2 * 7 * 2 * 64 * 8 * 4)")
        assert ber_sweep(cfg).rows[-1].trials == 5
        make_config(scheme="benchmark", l_slots=5, m_order=64, detector="ml")
        # 2 * 7 * 2 * 2^20 * 8 * 4 and 2 * 7 * 2 * 4 * 8 * 100000 slot-cost differences
        for detector in ("llr", "ml"):
            for big in (dict(m_order=2**20, constellation="psk"), dict(m_rx=100000)):
                with pytest.raises(ValueError, match="one trial would hold [0-9]+ slot-cost "
                                                     "differences .*; use a smaller layout or "
                                                     "fewer SNR points$"):
                    make_config(detector=detector, **big)
        assert 2 * 7 * 2 * 4 * 8 * 100000 > TRIAL_MAX_VALUES > 2 * 7 * 2 * 64 * 8 * 4

    def test_guard_edges(self):
        # configs only: nothing here builds a codebook, a constellation or a draw
        edge = dict(k_slots=2, l_slots=1, m_rx=1, constellation="psk", snr_db_grid=(10.0,))
        cfg = make_config(m_order=2**22, **edge)
        assert trial_values(cfg, 1)[0] == 2 * 1 * 2 * 2**22 * 2 * 1 == TRIAL_MAX_VALUES
        with pytest.raises(ValueError, match="would hold 67108864 slot-cost differences"):
            make_config(m_order=2**23, **edge)
        # one point: 12,800,000 slot-cost differences, but 51,401,026 link normals, which
        # fewer SNR points do not shrink
        with pytest.raises(ValueError, match=re.escape("one trial would hold 51401026 link normals "
                                                       "(2 * (M_R * (N + 1) + 2 * N + 1) = 2 * "
                                                       "25700513), more than 33554432; use a "
                                                       "smaller layout") + "$"):
            make_config(m_rx=100000, snr_db_grid=(10.0,))
        # the harvest sweep holds the draw alone: 2 * (4 * 257 + 513) normals
        assert trial_values(make_config(), 0) == (3082, "link normals (2 * (M_R * (N + 1) "
                                                        "+ 2 * N + 1) = 2 * 1541)")

    @pytest.mark.parametrize("overrides, field", [
        (dict(kappa=10**400), "kappa"),
        (dict(snr_db_grid=(0.0, 10**400)), "snr_db_grid"),
    ], ids=["kappa", "snr_db_grid"])
    def test_int_too_large_for_float_rejected(self, overrides, field):
        with pytest.raises(ValueError, match=f"{field} must be finite: int too large"):
            make_config(**overrides)

    def test_hash_tracks_content(self):
        a = config_hash(make_config())
        assert a == config_hash(make_config())
        assert a != config_hash(make_config(seed=2))
        assert len(a) == 12
        # an exact int or -0.0 in a float field or in the SNR grid is the same config
        grid = tuple(int(v) for v in make_config().snr_db_grid)
        for ints, floats in ((dict(kappa=5), dict(kappa=5.0)),
                             (dict(snr_db_grid=grid), dict()),
                             (dict(p_cb_uw=0, snr_db_grid=(0, 7.5)),
                              dict(p_cb_uw=0.0, snr_db_grid=(0.0, 7.5))),
                             (dict(kappa=-0.0), dict(kappa=0.0)),
                             (dict(omega_phase_rad=-0.0, snr_db_grid=(-0.0, 10.0)),
                              dict(snr_db_grid=(0.0, 10.0)))):
            assert make_config(**ints) == make_config(**floats)
            assert config_hash(make_config(**ints)) == config_hash(make_config(**floats))
        assert config_hash(replace(make_config(), kappa=3)) == config_hash(make_config(kappa=3.0))
        signed = make_config(kappa=-0.0, snr_db_grid=(-0.0,))     # a CSV cell would read -0
        assert [math.copysign(1.0, v) for v in (signed.kappa, *signed.snr_db_grid)] == [1.0, 1.0]
