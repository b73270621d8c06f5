"""Monte Carlo harness: per-block trials, BER-vs-SNR and harvest-vs-N2
sweeps, the power-budget report, and CSV output.

Every trial owns a counter-based random stream keyed by (seed, trial index),
so results are independent of worker count and scheduling. A sweep draws
each trial once and evaluates it at every grid point: an absorber count
regroups the same link draws, and an SNR point scales the same unit noise.
Each point is aggregated from its own records in trial order to keep
floating-point reductions bit-stable.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from itertools import repeat

import numpy as np

from .channel import ChannelModel
from .config import SimConfig, config_hash, direct_snr_sigma2
from .ris import (
    RectennaModel,
    RisPowerBudget,
    TECH_RF_SWITCH,
    TECH_VARACTOR,
    clc_dc_power,
    eh_received,
    make_ris_state,
    phase_set_2bit,
    ris_power_consumption,
    ris_rectenna_input,
)
from .rx import llr_detect, ml_joint_detect, observe, unit_noise
from .txphy import build_benchmark_codebook, build_codebook, build_constellation, encode_block

# Stream index reserved for the per-run line-of-sight phase draws; trial
# indices stay far below it.
LOS_STREAM = 2**64 - 1


def trial_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent counter-based stream for one (seed, stream index) pair."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def build_channel_model(cfg: SimConfig) -> ChannelModel:
    return ChannelModel(
        m_rx=cfg.m_rx,
        n_cells=cfg.n_cells,
        group_sizes=cfg.group_sizes,
        kappa=cfg.kappa,
        carrier_ghz=cfg.carrier_ghz,
        d_tx_ris_m=cfg.d_tx_ris_m,
        d_ris_rx_m=cfg.d_ris_rx_m,
        d_direct_m=cfg.d_direct_m,
        los_phase_policy=cfg.los_phase_policy,
        rng=trial_rng(cfg.seed, LOS_STREAM),
    )


def ris_rectenna(cfg: SimConfig) -> RectennaModel:
    return RectennaModel(cfg.ris_rho, cfg.ris_p_on_uw * 1e-6, cfg.ris_p_sat_mw * 1e-3)


def eh_rectenna(cfg: SimConfig) -> RectennaModel:
    return RectennaModel(cfg.eh_rho, cfg.eh_p_on_uw * 1e-6, cfg.eh_p_sat_mw * 1e-3)


def power_budget(cfg: SimConfig, technology: str | None = None) -> RisPowerBudget:
    return RisPowerBudget(
        n_cells=cfg.n_cells,
        n_per_controller=cfg.n_cb,
        p_controller_w=cfg.p_cb_uw * 1e-6,
        technology=technology or cfg.technology,
        p_switch_w=cfg.p_switch_uw * 1e-6,
        p_drive_w=cfg.p_drive_uw * 1e-6,
        p_varactor_w=cfg.p_varactor_uw * 1e-6,
    )


@dataclass(frozen=True)
class RunContext:
    """Everything one trial needs; immutable and shareable across workers."""

    cfg: SimConfig
    sigma2: float | None      # read by run_block_trial only, which the benchmark still calls
    channel_model: ChannelModel
    codebook: object
    constellation: object
    phase_set: object
    ris_model: RectennaModel
    eh_model: RectennaModel
    p_ris_rf_w: float
    p_ris_var_w: float


def make_context(cfg: SimConfig, sigma2: float | None) -> RunContext:
    cfg.validate()
    if cfg.scheme == "benchmark":
        codebook = build_benchmark_codebook(cfg.k_slots, cfg.l_slots)
    else:
        codebook = build_codebook(cfg.k_slots, cfg.l_slots, cfg.codebook_strategy)
    return RunContext(
        cfg=cfg,
        sigma2=sigma2,
        channel_model=build_channel_model(cfg),
        codebook=codebook,
        constellation=build_constellation(cfg.m_order, cfg.constellation),
        phase_set=phase_set_2bit(),
        ris_model=ris_rectenna(cfg),
        eh_model=eh_rectenna(cfg),
        p_ris_rf_w=ris_power_consumption(power_budget(cfg, TECH_RF_SWITCH)),
        p_ris_var_w=ris_power_consumption(power_budget(cfg, TECH_VARACTOR)),
    )


@dataclass(slots=True)
class BlockRecord:
    """Outcome of one block trial. Error counters stay zero when the trial
    runs harvest-only (no detection)."""

    dc_ris_w: float
    dc_eh_w: float
    ok_rf: bool
    ok_var: bool
    ptx_errors: int = 0
    ptx_bits: int = 0
    index_errors: int = 0
    index_bits: int = 0
    ris_errors: int = 0
    ris_bits: int = 0


def run_trial(ctx: RunContext, layouts: tuple, sigma2s: tuple, trial_index: int) -> list:
    """One trial at every grid point. Channels, bits, surface bit, frame and
    unit noise are drawn once; each cell-group layout gets its own surface
    state and harvest and, when detecting, one observation and one detector
    call on that observation stacked over every noise variance.
    Records come layout-major: one per (layout, variance), or per layout
    when no variance is given (harvest only)."""
    cfg = ctx.cfg
    rng = trial_rng(cfg.seed, trial_index)
    drawn = ctx.channel_model.realize(rng)

    eta_r = ctx.codebook.bits_index
    eta = eta_r + cfg.l_slots * ctx.constellation.bits_per_symbol
    bits = rng.integers(0, 2, size=eta)
    ris_bit = int(rng.integers(0, 2))
    noise = unit_noise((cfg.k_slots, cfg.m_rx), rng) if any(s > 0 for s in sigma2s) else None

    frame = encode_block(
        bits, ctx.codebook, ctx.constellation, cfg.p_low_w, cfg.p_high_w, cfg.omega_phase_rad
    )
    detect = ml_joint_detect if cfg.detector == "ml" else llr_detect
    records = []
    for group_sizes in layouts:
        channel = drawn.regroup(group_sizes)
        ris = make_ris_state(channel, ctx.phase_set, ris_bit)

        q_ris = ris_rectenna_input(channel.h_r[channel.group_slice(1)], frame.samples)
        dc_ris = float(np.mean(clc_dc_power(q_ris, ctx.ris_model)))
        _, q_eh = eh_received(channel, ris, frame.tau, frame.samples)
        dc_eh = float(np.mean(clc_dc_power(q_eh, ctx.eh_model)))
        harvest = (dc_ris, dc_eh, dc_ris >= ctx.p_ris_rf_w, dc_ris >= ctx.p_ris_var_w)
        if not sigma2s:
            records.append(BlockRecord(*harvest))
            continue

        clean = observe(channel, frame, ris, 0.0, rng)
        det = detect(clean.with_noise(sigma2s, noise), ctx.codebook, ctx.constellation,
                     ctx.phase_set.phi_info, frame.omega, cfg.p_low_w, cfg.paper_compat)
        wrong = det.ptx_bits != bits
        records.extend(
            BlockRecord(*harvest, ptx, eta, index, eta_r, ris_error, 1)
            for ptx, index, ris_error in zip(np.count_nonzero(wrong, axis=1).tolist(),
                                             np.count_nonzero(wrong[:, :eta_r], axis=1).tolist(),
                                             (det.ris_bit != ris_bit).astype(int).tolist())
        )
    return records


def run_block_trial(ctx: RunContext, trial_index: int) -> BlockRecord:
    """Draw channels and bits, transmit one block, harvest, and (when a
    noise variance is set) detect and count bit errors. No sweep calls it;
    it stays because the benchmark's set-up probe and span table do."""
    sigma2s = () if ctx.sigma2 is None else (ctx.sigma2,)
    return run_trial(ctx, (ctx.cfg.group_sizes,), sigma2s, trial_index)[0]


def _map_points(ctx: RunContext, layouts: tuple, sigma2s: tuple, workers: int) -> list:
    """Records of every grid point, each in trial order. Each trial runs once
    for the whole grid, over one process pool when ``workers > 1``."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    n = ctx.cfg.trials
    if workers == 1:
        trials = [run_trial(ctx, layouts, sigma2s, i) for i in range(n)]
    else:
        chunk = max(1, math.ceil(n / (workers * 4)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            trials = list(
                pool.map(run_trial, repeat(ctx), repeat(layouts), repeat(sigma2s), range(n),
                         chunksize=chunk)
            )
    return list(zip(*trials))


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


def _ber_and_se(errors, totals):
    """Pooled BER and its standard error from per-block error fractions."""
    totals = np.asarray(totals, dtype=float)
    if totals.sum() == 0:
        return None, None
    fractions = np.asarray(errors, dtype=float) / totals
    ber = float(np.asarray(errors, dtype=float).sum() / totals.sum())
    n = len(fractions)
    se = float(np.std(fractions, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return ber, se


def _aggregate(cfg: SimConfig, records, snr_db, n2) -> ResultRow:
    ber_ptx, se_ptx = _ber_and_se(
        [r.ptx_errors for r in records], [r.ptx_bits for r in records]
    )
    ber_idx, se_idx = _ber_and_se(
        [r.index_errors for r in records], [r.index_bits for r in records]
    )
    ber_ris, se_ris = _ber_and_se(
        [r.ris_errors for r in records], [r.ris_bits for r in records]
    )
    frac_rf = float(np.mean([r.ok_rf for r in records]))
    frac_var = float(np.mean([r.ok_var for r in records]))
    return ResultRow(
        scheme=cfg.scheme,
        k_slots=cfg.k_slots,
        l_slots=cfg.l_slots,
        m_order=cfg.m_order,
        detector=cfg.detector,
        snr_db=snr_db,
        n2=n2,
        ber_ptx=ber_ptx,
        se_ber_ptx=se_ptx,
        ber_index=ber_idx,
        se_ber_index=se_idx,
        ber_ris=ber_ris,
        se_ber_ris=se_ris,
        avg_dc_ris_uw=float(np.mean([r.dc_ris_w for r in records]) * 1e6),
        avg_dc_eh_uw=float(np.mean([r.dc_eh_w for r in records]) * 1e6),
        standalone_frac=frac_rf if cfg.technology == TECH_RF_SWITCH else frac_var,
        standalone_frac_rf=frac_rf,
        standalone_frac_var=frac_var,
        trials=len(records),
        seed=cfg.seed,
    )


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
    if isinstance(value, bool):
        return str(int(value))
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
    points = _map_points(ctx, (cfg.group_sizes,), sigma2s, workers)
    rows = [
        _aggregate(cfg, records, snr_db=float(snr_db), n2=cfg.n2)
        for snr_db, records in zip(cfg.snr_db_grid, points)
    ]
    return ResultTable(rows=rows, config_digest=config_hash(cfg), seed=cfg.seed)


@dataclass
class HarvestReport:
    table: ResultTable
    p_ris_rf_w: float
    p_ris_varactor_w: float
    min_n2_rf: int | None
    min_n2_varactor: int | None


def default_n2_grid(cfg: SimConfig) -> tuple:
    top = cfg.n_cells - cfg.n1
    return tuple(range(0, top + 1, 16))


def harvest_sweep(cfg: SimConfig, n2_grid=None, workers: int = 1) -> HarvestReport:
    """Average harvested DC power at the surface and the harvester versus the
    absorber count, plus the smallest grid point whose blocks meet the
    standalone condition (majority vote) for each cell technology."""
    if n2_grid is None:
        n2_grid = default_n2_grid(cfg)
    n2_grid = tuple(int(v) for v in n2_grid)
    if not n2_grid:
        raise ValueError("the absorber-count grid is empty")
    for n2 in n2_grid:
        if not 0 <= n2 <= cfg.n_cells - cfg.n1:
            raise ValueError(f"absorber count {n2} incompatible with the cell split")

    layouts = tuple(replace(cfg, n2=n2).group_sizes for n2 in n2_grid)
    ctx = make_context(replace(cfg, n2=n2_grid[0]), None)
    points = _map_points(ctx, layouts, (), workers)
    rows = [_aggregate(cfg, records, snr_db=None, n2=n2) for n2, records in zip(n2_grid, points)]
    return HarvestReport(
        table=ResultTable(rows=rows, config_digest=config_hash(cfg), seed=cfg.seed),
        p_ris_rf_w=ctx.p_ris_rf_w,
        p_ris_varactor_w=ctx.p_ris_var_w,
        min_n2_rf=next((r.n2 for r in rows if r.standalone_frac_rf >= 0.5), None),
        min_n2_varactor=next((r.n2 for r in rows if r.standalone_frac_var >= 0.5), None),
    )


@dataclass
class PowerBudgetReport:
    p_ris_rf_w: float
    p_ris_varactor_w: float
    ratio_db: float
    n2: int
    blocks: int
    avg_dc_ris_uw: float
    margin_rf_w: float
    margin_varactor_w: float
    standalone_frac_rf: float
    standalone_frac_var: float


def power_budget_report(cfg: SimConfig, workers: int = 1) -> PowerBudgetReport:
    """Deterministic consumption figures for both cell technologies and the
    harvest margin at the configured absorber count (fixed-seed blocks,
    mapped over ``workers`` processes like a sweep's)."""
    ctx = make_context(cfg, None)
    p_rf, p_var = ctx.p_ris_rf_w, ctx.p_ris_var_w
    (records,) = _map_points(ctx, (cfg.group_sizes,), (), workers)
    avg_dc = float(np.mean([r.dc_ris_w for r in records]))
    return PowerBudgetReport(
        p_ris_rf_w=p_rf,
        p_ris_varactor_w=p_var,
        ratio_db=10.0 * math.log10(p_var / p_rf),
        n2=cfg.n2,
        blocks=len(records),
        avg_dc_ris_uw=avg_dc * 1e6,
        margin_rf_w=avg_dc - p_rf,
        margin_varactor_w=avg_dc - p_var,
        standalone_frac_rf=float(np.mean([r.ok_rf for r in records])),
        standalone_frac_var=float(np.mean([r.ok_var for r in records])),
    )
