"""Monte Carlo harness: batches of block trials, BER-vs-SNR and
harvest-vs-N2 sweeps, and CSV output.

Every trial owns a counter-based random stream keyed by (seed, trial index),
so results are independent of worker count, scheduling and batching. The
stream holds, in order, the trial's links' normals, the raw words that give
its data bits and its surface bit, and, when it detects, its unit noise
(:func:`draw_trials`). A sweep draws each trial once and evaluates it at
every grid point: every absorber count reads the same link draws in one
stacked harvest pass (``ris.harvest_inputs``), and an SNR point scales the
same unit noise. A run's context holds what its config
sets; the surface's phase levels are the constants ``ris.PHI_INFO`` and
``ris.PHI_POWER``.
Trials run in batches sized from a byte budget: each trial's stream makes its
own draws, then every step is one kernel call on the whole batch and grid,
and each worker runs one contiguous shard of batches. A lone shard runs in
the caller; more run in one process pool, a process per shard, that lives as
long as this process and serves every later sweep with as many shards, while
the caller only waits. On Linux the pool forks its workers, whatever the
interpreter's default start method; elsewhere (macOS, where system libraries
may crash in a forked child, and Windows) it starts them the platform's
default way, which re-imports the caller's main module, so a script calling
a multi-worker sweep there needs an ``if __name__ == "__main__":`` guard.
Each shard carries the CPUs it runs on: one of its own when the caller's CPU
mask holds one per shard, from the CPU the caller is on onwards, else the
caller's whole mask. Each point's counters are reduced once, in trial order,
so results are bit-stable.
On glibc Linux the first sweep of a process fixes malloc's thresholds from
the batch budget (``_hold_heap``). A batch peaks at 1.8 to 3.2 budgets,
while glibc trims the heap top past twice its largest freed array, so each
batch handed its heap back and the next faulted it in again. Up to 8
budgets (16 MiB) of freed heap now stay with the process and its pool
workers between batches and sweeps; elsewhere nothing changes.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import math
import multiprocessing
import numbers
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from .channel import ChannelModel
from .config import SimConfig, _fits, config_hash, direct_snr_sigma2, trial_values
from .ris import (
    RectennaModel,
    TECH_RF_SWITCH,
    clc_dc_power,
    harvest_inputs,
    make_ris_state,
    ris_power_consumption,
)
from .rx import llr_detect, ml_joint_detect, observe, unit_noise
from .txphy import build_benchmark_codebook, build_codebook, build_constellation, encode_block

# Stream index reserved for the per-run line-of-sight phase draws; trial
# indices stay far below it.
LOS_STREAM = 2**64 - 1


# A new generator's counter and buffer, read-only: rekeying a stream builds no array.
_ZERO = np.zeros(4, dtype=np.uint64)
_ZERO.setflags(write=False)

# The top bit of a raw 64-bit word's low 32-bit half and of its high half.
_HALF_TOPS = np.array([31, 63])


def trial_rng(seed: int, stream: int, reuse: np.random.Generator | None = None) -> np.random.Generator:
    """Independent counter-based stream for one (seed, stream index) pair;
    a trial reads its links' normals from it, then the raw words that give
    its data bits and its surface bit, then, when it detects, its unit noise
    (:func:`draw_trials`). A Philox generator passed as ``reuse`` is rekeyed
    in place and returned: the same stream as a new generator's, without
    building one, whatever the generator drew before (its buffered 32-bit
    half is dropped too)."""
    if reuse is None:
        return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    reuse.bit_generator.state = {"bit_generator": "Philox",
                                 "state": {"counter": _ZERO, "key": (seed, stream)},
                                 "buffer": _ZERO, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return reuse


@dataclass(frozen=True)
class RunContext:
    """Everything one trial needs; immutable and shareable across workers."""

    cfg: SimConfig
    sigma2: float | None      # read by run_block_trial, which the benchmark still calls,
                              # and by the tests' build_observation
    channel_model: ChannelModel
    codebook: object
    constellation: object
    ris_model: RectennaModel
    eh_model: RectennaModel
    p_ris_rf_w: float
    p_ris_var_w: float
    bit_widths: tuple         # bits per block under each error count: eta, eta_r and 1


def make_context(cfg: SimConfig, sigma2: float | None) -> RunContext:
    if cfg.scheme == "benchmark":
        codebook = build_benchmark_codebook(cfg.k_slots, cfg.l_slots)
    else:
        codebook = build_codebook(cfg.k_slots, cfg.l_slots, cfg.codebook_strategy)
    constellation = build_constellation(cfg.m_order, cfg.constellation)
    p_rf, p_var = ris_power_consumption(cfg.n_cells, cfg.n_cb, cfg.p_cb_uw * 1e-6,
                                        cfg.p_switch_uw * 1e-6, cfg.p_drive_uw * 1e-6,
                                        cfg.p_varactor_uw * 1e-6)
    eta_r = codebook.bits_index
    return RunContext(
        cfg=cfg,
        sigma2=sigma2,
        channel_model=ChannelModel(cfg, trial_rng(cfg.seed, LOS_STREAM)),
        codebook=codebook,
        constellation=constellation,
        ris_model=RectennaModel(cfg.ris_rho, cfg.ris_p_on_uw * 1e-6, cfg.ris_p_sat_mw * 1e-3),
        eh_model=RectennaModel(cfg.eh_rho, cfg.eh_p_on_uw * 1e-6, cfg.eh_p_sat_mw * 1e-3),
        p_ris_rf_w=p_rf,
        p_ris_var_w=p_var,
        bit_widths=(eta_r + cfg.l_slots * constellation.bits_per_symbol, eta_r, 1),
    )


# Per-trial counters, one column per trial in trial order: the harvested
# powers one row per absorber count, the error counts one row per noise
# variance at the context's own layout (None when no detection runs).
Tally = namedtuple("Tally", "dc_ris_w dc_eh_w ptx_errors index_errors ris_errors")


def draw_trials(ctx: RunContext, start: int, stop: int, noisy: bool) -> tuple:
    """The draws of trials ``start`` to ``stop - 1`` as arrays with a leading
    trial axis, each trial's from its own stream in this layout: its links'
    normals, then ceil((eta + 1) / 2) raw 64-bit words that give its eta
    data bits and then its surface bit, then, when ``noisy``, its unit
    noise. A bit is the top bit of a word's low 32-bit half, then of its
    high half: exactly what ``integers(0, 2, eta + 1)`` draws on numpy 2.x,
    stated here so that it rests on no bounded-integer algorithm. Returns
    the normals (B, n_normals), bits (B, eta), surface bits (B,) and noise
    normals (B, 2, K, M_R), or None."""
    cfg, n, eta = ctx.cfg, stop - start, ctx.bit_widths[0]
    normals = np.empty((n, ctx.channel_model.n_normals))
    noise = np.empty((n, 2, cfg.k_slots, cfg.m_rx)) if noisy else None
    words = np.empty((n, -(-(eta + 1) // 2)), dtype=np.uint64)
    rng = None
    for b in range(n):
        rng = trial_rng(cfg.seed, start + b, rng)
        rng.standard_normal(out=normals[b])
        words[b] = rng.bit_generator.random_raw(words.shape[1])
        if noisy:
            rng.standard_normal(out=noise[b])
    bits = ((words.view(np.int64)[..., None] >> _HALF_TOPS) & 1).reshape(n, -1)
    return normals, bits[:, :eta], bits[:, eta], noise


def run_trials(ctx: RunContext, n2s: tuple, sigma2s: tuple, start: int, stop: int) -> Tally:
    """Trials ``start`` to ``stop - 1``: the harvest at every absorber count
    in ``n2s`` (beside ``cfg.n1`` assist cells), the detection at every noise
    variance in ``sigma2s``. Each trial's stream draws its links' normals,
    the raw words that give its data bits and its surface bit and, when it
    detects, its unit noise (:func:`draw_trials`); every later step is one
    call for the batch. With no variance to detect at, only receive antenna
    0 is realized, the one that co-phasing reads. The links are freed before
    detection."""
    cfg, eta_r = ctx.cfg, ctx.bit_widths[1]
    normals, bits, ris_bit, noise = draw_trials(ctx, start, stop, bool(sigma2s))
    drawn = ctx.channel_model.realize(normals, cfg.m_rx if sigma2s else 1)
    del normals

    frame = encode_block(
        bits, ctx.codebook, ctx.constellation, cfg.p_low_w, cfg.p_high_w, cfg.omega_phase_rad
    )
    ris = make_ris_state(drawn, cfg.n1, ris_bit)   # one state for every count
    q_ris, q_eh = harvest_inputs(drawn, cfg.n1, n2s, ris, frame.tau, frame.samples)
    dc_ris = np.mean(clc_dc_power(q_ris, ctx.ris_model), axis=-1)     # (n2s, B)
    dc_eh = np.mean(clc_dc_power(q_eh, ctx.eh_model), axis=-1)
    if not sigma2s:
        return Tally(dc_ris, dc_eh, None, None, None)

    clean = observe(drawn, (cfg.n1, cfg.n2), frame, ris)
    del drawn                   # the links are done with: free them before detecting
    unit = unit_noise(noise.shape[-2:], noise)
    detect = ml_joint_detect if cfg.detector == "ml" else llr_detect
    det = detect(clean.with_noise(sigma2s, unit), ctx.codebook, ctx.constellation,
                 frame.omega, cfg.p_low_w, cfg.paper_compat)
    wrong = np.swapaxes(det.ptx_bits != bits[:, None], 0, 1)                    # (S, B, eta)
    return Tally(dc_ris, dc_eh, np.count_nonzero(wrong, axis=-1),
                 np.count_nonzero(wrong[..., :eta_r], axis=-1),
                 (det.ris_bit != ris_bit[:, None]).T.astype(np.int64))


def run_block_trial(ctx: RunContext, trial_index: int) -> Tally:
    """The counters, as plain numbers, of one trial of the context's layout,
    detected at its noise variance if one is set. No sweep calls it; the
    benchmark's set-up probe and span table do."""
    sigma2s = () if ctx.sigma2 is None else (ctx.sigma2,)
    tally = run_trials(ctx, (ctx.cfg.n2,), sigma2s, trial_index, trial_index + 1)
    return Tally(*(None if field is None else field[0, 0].item() for field in tally))


# Bytes that the largest array of one batch of trials may take. Under
# tracemalloc a batch peaked at 1.8 times that on the default LLR and (8,4)
# ML configs and at 1.3 times on 16-antenna LLR (set by the trials' draw and
# the channel realization: the slot costs, formed one antenna at a time,
# peak lower), at 1.6 times on the
# default harvest grid and at 3.2 times on a harvest over absorber counts
# 0-256 with no assist cells (arrays stacked over the counts; a harvest
# realizes one receive antenna). At 2 MiB an (8,4) ML sweep of 50 trials is
# one batch. Those peaks break glibc malloc's rule of thumb, which trims the
# heap top once its free space passes twice the largest mmapped chunk freed
# so far (about one batch array): each batch handed its heap back to the
# kernel and the next faulted it in again, about 850 minor page faults per
# default LLR sweep. So the first sweep of a process fixes both thresholds
# from this budget (_hold_heap); on glibc Linux only.
_BATCH_BYTES = 1 << 21

# glibc's mallopt parameters.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _hold_heap() -> tuple:
    """Keep a batch's freed heap for the next batch, once per process: on
    glibc Linux, serve arrays up to 4 budgets from the heap rather than
    mmap, and trim the heap top only past 8 budgets (16 MiB) of free space,
    which a process that has run a sweep may keep. Returns what each
    ``mallopt`` call returned (1 when glibc took the value), or () where
    there is no glibc ``mallopt``; forked pool workers inherit the values."""
    if not sys.platform.startswith("linux"):
        return ()
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return ()
    return (mallopt(_M_MMAP_THRESHOLD, 4 * _BATCH_BYTES),
            mallopt(_M_TRIM_THRESHOLD, 8 * _BATCH_BYTES))


def _batch_size(ctx: RunContext, n_points: int, n_counts: int = 1) -> int:
    """Trials per batch: as many as keep the largest array within _BATCH_BYTES,
    counted in float64 values per trial by ``config.trial_values`` at those
    noise variances and absorber counts, the count the config guard bounds."""
    return max(1, _BATCH_BYTES // (8 * trial_values(ctx.cfg, n_points, n_counts)[0]))


def _joined(tallies) -> Tally:
    return Tally(*(None if f[0] is None else np.concatenate(f, axis=1) for f in zip(*tallies)))


def _run_shard(ctx: RunContext, n2s: tuple, sigma2s: tuple, start: int, stop: int,
               batch: int, cpus: set | None = None) -> Tally:
    """Trials ``start`` to ``stop - 1`` as one tally, run in batches of
    ``batch`` trials, on the CPU set ``cpus`` when one is given."""
    if cpus is not None:
        os.sched_setaffinity(0, cpus)
    return _joined([run_trials(ctx, n2s, sigma2s, a, min(a + batch, stop))
                    for a in range(start, stop, batch)])


def _shard_cpus(shards: int) -> list:
    """The CPU set each of ``shards`` shards runs on. When this thread's mask
    holds a CPU per shard, each gets one: the CPU this thread is on and the
    next CPUs of the mask in order, wrapping round, with this thread's own
    going to the last shard, whose worker reads the task queue last and,
    likely finishing last too, waits there for the next sweep's task on the
    CPU this thread keeps awake. Otherwise, or when this thread's CPU is
    unknown, each gets the whole mask; where the platform cannot set a mask,
    None. Measured against None for every shard by ``scripts/ab.py`` on
    ``harvest_n2_w2`` (2-core VM, A/B time, A this rule): 0.580 [0.552,
    0.621] back to back, 0.969 [0.665, 1.007] after 100 ms idle."""
    if not hasattr(os, "sched_setaffinity"):
        return [None] * shards
    mask = sorted(os.sched_getaffinity(0))
    if shards <= len(mask):
        try:
            with open("/proc/thread-self/stat") as stat:
                # field 39, the CPU last run on, counted from field 3 after the name's ")"
                first = mask.index(int(stat.read().rpartition(")")[2].split()[36]))
        except (OSError, ValueError, IndexError):
            pass
        else:
            cpus = [{mask[(first + i) % len(mask)]} for i in range(shards)]
            return cpus[1:] + cpus[:1]
    return [set(mask)] * shards


# The worker pool that this process's multi-worker sweeps share, as
# (workers, pool): the first such sweep makes it, a sweep that needs another
# number of workers replaces it, and concurrent.futures closes it at exit.
# Sharing it, sweeps run from one thread at a time.
_shared = None

# The pool's start method: fork on Linux, so a worker starts in milliseconds,
# without importing numpy afresh or re-running the caller's main module; the
# platform's default elsewhere (None), since macOS lists fork but its system
# frameworks are unsafe in a forked child.
_START = multiprocessing.get_context("fork") if sys.platform.startswith("linux") else None


def _pool(workers: int) -> ProcessPoolExecutor:
    """The shared pool of ``workers`` processes, made when there is none of
    that size; one of another size is shut down first."""
    global _shared
    if _shared is None or _shared[0] != workers:
        _drop_pool()
        _shared = (workers, ProcessPoolExecutor(max_workers=workers, mp_context=_START))
    return _shared[1]


def _drop_pool() -> None:
    """Shut the shared pool down, if there is one: cancel what it has not
    started and join its workers."""
    global _shared
    if _shared is not None:
        pool, _shared = _shared[1], None
        pool.shutdown(cancel_futures=True)


def _map_points(ctx: RunContext, n2s: tuple, sigma2s: tuple, workers: int) -> Tally:
    """The counters of every trial as one tally, columns in trial order. Each
    trial runs once for the whole grid, in one of at most ``workers`` shards,
    all in batches of the size computed here. A lone shard runs in this
    process; more run in the shared pool (``_pool``), one process each, on
    the CPUs ``_shard_cpus`` gives them, while this process only waits. A pool
    found broken is replaced once; when a shard raises, the pool is dropped
    before the error propagates. The heap thresholds are set (``_hold_heap``)
    before any shard runs, so forked workers inherit them."""
    if not (_fits(workers, int) and workers >= 1):
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    n = ctx.cfg.trials
    size = -(-n // workers)
    starts = range(0, n, size)
    batch = _batch_size(ctx, len(sigma2s), len(n2s))
    _hold_heap()
    if len(starts) == 1:
        return _run_shard(ctx, n2s, sigma2s, 0, n, batch)
    shards = [(ctx, n2s, sigma2s, a, min(a + size, n), batch, cpus)
              for a, cpus in zip(starts, _shard_cpus(len(starts)))]
    try:
        try:
            tallies = _pool(len(shards)).map(_run_shard, *zip(*shards))
        except BrokenProcessPool:           # a worker died after the last sweep
            _drop_pool()
            tallies = _pool(len(shards)).map(_run_shard, *zip(*shards))
        return _joined(tallies)
    except BaseException:
        _drop_pool()
        raise


# ---------------------------------------------------------------------------
# Aggregation and result tables

@dataclass
class ResultRow:
    scheme: str
    k_slots: int
    l_slots: int
    m_order: int
    detector: str
    snr_db: float | None
    n2: int
    ber_ptx: float | None
    se_ber_ptx: float | None
    ber_index: float | None
    se_ber_index: float | None
    ber_ris: float | None
    se_ber_ris: float | None
    avg_dc_ris_uw: float
    avg_dc_eh_uw: float
    standalone_frac: float
    standalone_frac_rf: float
    standalone_frac_var: float
    trials: int
    seed: int


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


def _ber_and_se(errors, width: int):
    """Pooled BER and its standard error of each row of per-block error
    counts (rows, blocks), each out of ``width`` bits, as two lists; None
    for both when a block carries no such bits. A tally's error rows are
    F-ordered, and a reduction along the rows of an F-ordered array adds in
    another order than over each row alone, so they are made C-contiguous
    first: each row's SE then equals that of the row as a 1-D array."""
    rows, n = errors.shape
    if width == 0:
        return [None] * rows, [None] * rows
    errors = np.ascontiguousarray(errors)
    ber = np.sum(errors, axis=-1) / (width * n)
    se = np.std(errors / width, axis=-1, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(rows)
    return ber.tolist(), se.tolist()


def _aggregate(ctx: RunContext, tally: Tally, n2s: tuple, snr_dbs: tuple = (None,)) -> list:
    """The rows of the grid points (n2, SNR), absorber counts ``n2s`` outer,
    from the counters: harvest row h holds count ``n2s[h]``, and for a BER
    tally error row s holds SNR point ``snr_dbs[s]``. Each statistic is one
    array call over the rows, each row holding trials in order."""
    cfg = ctx.cfg
    dc_ris, dc_eh = (np.ascontiguousarray(f) for f in tally[:2])
    if tally.ptx_errors is None:
        bers = [[None]] * 6
    else:
        bers = [v for e, width in zip(tally[2:], ctx.bit_widths) for v in _ber_and_se(e, width)]
    ber_ptx, se_ptx, ber_idx, se_idx, ber_ris, se_ris = bers
    frac_rf = np.mean(dc_ris >= ctx.p_ris_rf_w, axis=-1).tolist()
    frac_var = np.mean(dc_ris >= ctx.p_ris_var_w, axis=-1).tolist()
    avg_ris = (np.mean(dc_ris, axis=-1) * 1e6).tolist()
    avg_eh = (np.mean(dc_eh, axis=-1) * 1e6).tolist()
    return [ResultRow(
        scheme=cfg.scheme,
        k_slots=cfg.k_slots,
        l_slots=cfg.l_slots,
        m_order=cfg.m_order,
        detector=cfg.detector,
        snr_db=snr_db,
        n2=n2,
        ber_ptx=ber_ptx[s],
        se_ber_ptx=se_ptx[s],
        ber_index=ber_idx[s],
        se_ber_index=se_idx[s],
        ber_ris=ber_ris[s],
        se_ber_ris=se_ris[s],
        avg_dc_ris_uw=avg_ris[h],
        avg_dc_eh_uw=avg_eh[h],
        standalone_frac=(frac_rf if cfg.technology == TECH_RF_SWITCH else frac_var)[h],
        standalone_frac_rf=frac_rf[h],
        standalone_frac_var=frac_var[h],
        trials=dc_ris.shape[-1],
        seed=cfg.seed,
    ) for h, n2 in enumerate(n2s) for s, snr_db in enumerate(snr_dbs)]


@dataclass
class ResultTable:
    rows: list
    config_digest: str
    seed: int

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# config_hash={self.config_digest} seed={self.seed}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for row in self.rows:
                writer.writerow([_fmt(getattr(row, col)) for col in CSV_COLUMNS])


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


# ---------------------------------------------------------------------------
# Sweeps and reports

def ber_sweep(cfg: SimConfig, workers: int = 1) -> ResultTable:
    """BER and harvest statistics over the configured SNR grid, one row per
    grid point; every point sees the same trials, so the harvest columns
    agree across rows."""
    ctx = make_context(cfg, None)
    sigma2s = tuple(direct_snr_sigma2(cfg, snr_db) for snr_db in cfg.snr_db_grid)
    tally = _map_points(ctx, (cfg.n2,), sigma2s, workers)
    rows = _aggregate(ctx, tally, (cfg.n2,), tuple(map(float, cfg.snr_db_grid)))
    return ResultTable(rows=rows, config_digest=config_hash(cfg), seed=cfg.seed)


@dataclass
class HarvestReport:
    table: ResultTable
    p_ris_rf_w: float
    p_ris_varactor_w: float
    min_n2_rf: int | None
    min_n2_varactor: int | None
    dc_ris_w: np.ndarray      # the surface DC in watts, one row of blocks per grid point


def default_n2_grid(cfg: SimConfig) -> tuple:
    top = cfg.n_cells - cfg.n1
    return tuple(range(0, top + 1, 16))


def harvest_sweep(cfg: SimConfig, n2_grid=None, workers: int = 1) -> HarvestReport:
    """Average harvested DC power at the surface and the harvester versus the
    absorber count, plus the smallest grid point whose blocks meet the
    standalone condition (majority vote) for each cell technology."""
    if n2_grid is None:
        n2_grid = default_n2_grid(cfg)
    n2_grid = tuple(n2_grid)
    if not n2_grid:
        raise ValueError("the absorber-count grid is empty")
    top = cfg.n_cells - cfg.n1
    for n2 in n2_grid:
        if not (isinstance(n2, numbers.Real) and not isinstance(n2, bool)
                and 0 <= n2 <= top and float(n2).is_integer()):
            raise ValueError(f"absorber count {n2!r} is not a whole number from 0 to {top}")

    n2_grid = tuple(int(v) for v in n2_grid)
    trial_values(cfg, 0, len(n2_grid))        # the size guard, at every count at once
    ctx = make_context(cfg, None)
    tally = _map_points(ctx, n2_grid, (), workers)
    rows = _aggregate(ctx, tally, n2_grid)
    return HarvestReport(
        table=ResultTable(rows=rows, config_digest=config_hash(cfg), seed=cfg.seed),
        p_ris_rf_w=ctx.p_ris_rf_w,
        p_ris_varactor_w=ctx.p_ris_var_w,
        min_n2_rf=min((r.n2 for r in rows if r.standalone_frac_rf >= 0.5), default=None),
        min_n2_varactor=min((r.n2 for r in rows if r.standalone_frac_var >= 0.5), default=None),
        dc_ris_w=tally.dc_ris_w,
    )
