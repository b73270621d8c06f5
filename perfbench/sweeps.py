"""The benchmark's fixed sweeps, run through the public ``timsr.sim`` API,
and the checks their CSV output must pass."""

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import timsr
from timsr import make_config
from timsr.config import config_hash
from timsr.sim import (
    CSV_COLUMNS,
    ber_sweep,
    default_n2_grid,
    direct_snr_sigma2,
    harvest_sweep,
    make_context,
)

from benchenv import SRC

if Path(timsr.__file__).resolve().parent != SRC / "timsr":
    raise ImportError(f"timsr was imported from {timsr.__file__}, not from {SRC}")

DIGEST_FILE = Path(__file__).with_name("digests.json")

# The SimConfig default seed and one held-out seed; every run checks its
# workload's CSV at both against the SHA-256 digests in digests.json.
GATE_SEEDS = (1, 2407)


@dataclass(frozen=True)
class Workload:
    """One fixed sweep: ``kind`` is "ber" or "harvest", ``overrides`` the
    ``make_config`` arguments besides the seed."""

    name: str
    kind: str
    workers: int
    overrides: tuple

    def config(self, seed: int):
        return make_config(**dict(self.overrides), seed=seed)

    def points(self, cfg) -> int:
        return len(cfg.snr_db_grid) if self.kind == "ber" else len(default_n2_grid(cfg))

    def blocks(self, cfg) -> int:
        return cfg.trials * self.points(cfg)

    def sweep(self, cfg, workers: int):
        if self.kind == "ber":
            return ber_sweep(cfg, workers)
        return harvest_sweep(cfg, workers=workers).table

    def first_context(self, cfg):
        """The context the sweep builds for its first grid point."""
        if self.kind == "ber":
            return make_context(cfg, direct_snr_sigma2(cfg, cfg.snr_db_grid[0]))
        return make_context(replace(cfg, n2=default_n2_grid(cfg)[0]), None)


# Trials per point size one sweep to roughly a second on one core, so a
# run of ten seconds or more holds enough sweeps for a steady median.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ber_llr_8_2", "ber", 1, (("detector", "llr"), ("trials", 120))),
        Workload("ber_ml_8_4", "ber", 1, (("l_slots", 4), ("detector", "ml"), ("trials", 50))),
        Workload("harvest_n2_w2", "harvest", 2, (("trials", 200),)),
    )
}


def timed_sweep(wl: Workload, cfg, workers: int, csv_path: Path):
    """Run one sweep and write its CSV; returns (seconds from the sweep call
    through the CSV write, CSV bytes)."""
    start = time.perf_counter()
    wl.sweep(cfg, workers).to_csv(csv_path)
    seconds = time.perf_counter() - start
    return seconds, csv_path.read_bytes()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict:
    """{workload: {seed: CSV SHA-256}} for the gate seeds."""
    with open(DIGEST_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def check_csv(wl: Workload, cfg, data: bytes):
    """Structural check of one sweep's CSV; returns a problem or None."""
    lines = data.decode("utf-8").splitlines()
    expected_header = f"# config_hash={config_hash(cfg)} seed={cfg.seed}"
    if not lines or lines[0] != expected_header:
        return f"first line is not {expected_header!r}"
    reader = csv.reader(lines[1:])
    if tuple(next(reader, ())) != CSV_COLUMNS:
        return "column header differs from timsr.sim.CSV_COLUMNS"
    rows = [dict(zip(CSV_COLUMNS, row)) for row in reader]
    if len(rows) != wl.points(cfg):
        return f"{len(rows)} rows for {wl.points(cfg)} grid points"
    for row in rows:
        if row["trials"] != str(cfg.trials) or row["seed"] != str(cfg.seed):
            return f"row reports trials={row['trials']} seed={row['seed']}"
        for col in ("ber_ptx", "ber_index", "ber_ris"):
            value = row[col]
            ok = value == "" if wl.kind == "harvest" else value != "" and 0.0 <= float(value) <= 1.0
            if not ok:
                return f"{col}={value!r} is out of place for a {wl.kind} sweep"
        for col in ("avg_dc_ris_uw", "avg_dc_eh_uw"):
            value = float(row[col])
            if not (math.isfinite(value) and value >= 0.0):
                return f"{col}={value!r} is not a finite non-negative power"
    return None
