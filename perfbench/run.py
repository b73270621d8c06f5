#!/usr/bin/env python3
"""timsr benchmark: run one workload's sweep repeatedly for a fixed time,
check every CSV, and print the metrics.

    python3 perfbench/run.py --workload ber_llr_8_2 --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` installs the
timing wrappers of spans.py and reports the per-layer metrics. Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. See
perfbench/README.md for the workloads and what each metric should move.
"""

import benchenv

benchenv.prepare()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

try:
    import calibration
    import numpy as np
    import spans
    import sweeps
    from timsr.config import config_hash
except ImportError as exc:
    print(f"cannot import timsr from {benchenv.SRC}: {exc}", file=sys.stderr)
    sys.exit(2)

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 7

END_TO_END = {"blocks_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> (unit, span, statistic, denominator). "self" and
# "total" are microseconds, "calls" a count; the denominator is simulated
# blocks (trials x grid points) or grid points.
SPAN_METRICS = {
    "channel.realize_us": ("us", "channel.realize", "self", "block"),
    "channel.realize_per_block": ("count", "channel.realize", "calls", "block"),
    "txphy.encode_us": ("us", "txphy.encode", "self", "block"),
    "txphy.decode_us": ("us", "txphy.decode", "self", "block"),
    "ris.state_us": ("us", "ris.state", "self", "block"),
    "ris.align_us": ("us", "ris.align", "self", "block"),
    "ris.align_per_block": ("count", "ris.align", "calls", "block"),
    "ris.clc_us": ("us", "ris.clc", "self", "block"),
    "rx.observe_us": ("us", "rx.observe", "self", "block"),
    "rx.llr_stage_us": ("us", "rx.llr_stage", "self", "block"),
    "rx.select_us": ("us", "rx.select", "self", "block"),
    "rx.symphase_us": ("us", "rx.symphase", "self", "block"),
    "rx.ml_search_us": ("us", "rx.ml_search", "self", "block"),
    "sim.trial_rng_us": ("us", "sim.trial_rng", "self", "block"),
    "sim.block_us": ("us", "sim.block", "total", "block"),
    "sim.block_self_us": ("us", "sim.block", "self", "block"),
    "sim.context_us": ("us", "sim.context", "self", "point"),
    "sim.aggregate_us": ("us", "sim.aggregate", "self", "block"),
    "sim.csv_us": ("us", "sim.csv", "self", "block"),
}
MODULES = ("channel", "txphy", "ris", "rx", "sim")
PER_LAYER = {
    **{name: spec[0] for name, spec in SPAN_METRICS.items()},
    **{f"{module}.self_us": "us" for module in MODULES},
    "rx.hypotheses_per_block": "count",
    "sim.pools_per_sweep": "count",
    "sim.pool_overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


class Run:
    """Sweeps attempted and failed in one benchmark run. A sweep fails if
    it raises, if its CSV is malformed, or if its bytes differ from the
    digest expected of them."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.csv_path = OUT / f"{wl.name}-{os.getpid()}.csv"

    def sweep(self, cfg, workers, expect=None):
        """(seconds, CSV bytes) of one sweep, or None if it failed."""
        self.attempted += 1
        try:
            seconds, data = sweeps.timed_sweep(self.wl, cfg, workers, self.csv_path)
            problem = sweeps.check_csv(self.wl, cfg, data)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if problem is None and expect is not None and sweeps.sha256(data) != expect:
            problem = f"CSV SHA-256 differs from {expect}"
        if problem is not None:
            print(f"{self.wl.name} seed={cfg.seed} workers={workers}: {problem}", file=sys.stderr)
            self.failed += 1
            return None
        return seconds, data

    def gate(self, workers):
        """Check the workload's CSV at both gate seeds against the stored digests."""
        digests = sweeps.load_digests()[self.wl.name]
        for seed in sweeps.GATE_SEEDS:
            self.sweep(self.wl.config(seed), workers, expect=digests[str(seed)])


def config_seeds(seed):
    """Distinct config seeds for the run's timed sweeps, drawn from --seed."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(32)


def setup_seconds(wl, cfg_seed):
    """Seconds from starting a fresh process to its first block trial."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), wl.name, str(cfg_seed)]
    start = time.monotonic()
    out = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1]) - start


def peak_rss_mb():
    """Peak resident memory over this process and every waited-for child
    (setup probes and pool workers); Linux reports kilobytes."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def end_to_end(run, seed, seconds):
    wl = run.wl
    seeds = config_seeds(seed)
    first_seed = next(seeds)
    speed = calibration.SpeedProbe()
    setup = [setup_seconds(wl, first_seed) * speed.scale() for _ in range(SETUP_PROBES)]
    run.gate(wl.workers)

    rates, host_rates = [], []
    first = None
    cfg_seed = first_seed
    speed = calibration.SpeedProbe()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        cfg = wl.config(cfg_seed)
        result = run.sweep(cfg, wl.workers)
        scale = speed.scale()
        if result is not None:
            host_rates.append(wl.blocks(cfg) / result[0])
            rates.append(host_rates[-1] / scale)
            first = first or (cfg, sweeps.sha256(result[1]))
        cfg_seed = next(seeds)
    if first is None:
        return None
    # Worker-count determinism at this run's own seed.
    run.sweep(first[0], 1 if wl.workers > 1 else 2, expect=first[1])

    print(f"sweeps timed: {len(rates)}; blocks per host second: median "
          f"{statistics.median(host_rates):.1f}, quartiles {quartiles(host_rates)}")
    print(f"blocks per reference second: quartiles {quartiles(rates)}")
    print(f"speed kernel seconds: quartiles {quartiles(speed.history, 4)}")
    print(f"setup reference seconds per probe: {' '.join(f'{s:.4f}' for s in setup)}")
    return {
        "blocks_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }


def quartiles(values, digits=1):
    return [round(q, digits) for q in statistics.quantiles(values, n=4)] if len(values) > 1 else values


def per_layer(run, seed, seconds):
    wl = run.wl
    # Traced sweeps must reproduce the stored (untraced) digests.
    with spans.Tracer().installed() as warmup:
        run.gate(1)
    for target in warmup.missing:
        print(f"warning: {target} not found; its spans read 0", file=sys.stderr)

    tracer = spans.Tracer()
    seeds = config_seeds(seed)
    overheads, pairs = [], []
    blocks = points = 0
    speed = calibration.SpeedProbe()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        cfg = wl.config(next(seeds))
        plain = run.sweep(cfg, 1)
        plain_scale = speed.scale()
        if plain is None:
            continue
        with tracer.installed():
            timed = run.sweep(cfg, 1, expect=sweeps.sha256(plain[1]))
        timed_scale = speed.scale()
        if timed is None:
            continue
        plain_ref = plain[0] * plain_scale
        overheads.append(1.0 - plain_ref / (timed[0] * timed_scale))
        pairs.append((cfg, plain, plain_ref))
        blocks += wl.blocks(cfg)
        points += wl.points(cfg)
    if not pairs:
        return None

    # Pool dispatch: a 2-worker sweep against half the untraced 1-worker
    # time at the same seed.
    cfg, plain, plain_ref = pairs[0]
    pool_counter = spans.Tracer(spans.POOL_TARGETS)
    with pool_counter.installed():
        pooled = run.sweep(cfg, 2, expect=sweeps.sha256(plain[1]))
    pool_overhead = pooled[0] * speed.scale() - plain_ref / 2.0 if pooled else 0.0

    # Span times in reference microseconds, scaled by the window's median speed.
    to_ref_us = calibration.REFERENCE_S / statistics.median(speed.history) / 1e3
    denominators = {"block": blocks, "point": points}
    metrics = {}
    for name, (_, span, stat, per) in SPAN_METRICS.items():
        if stat == "calls":
            value = tracer.calls[span]
        else:
            value = (tracer.self_ns if stat == "self" else tracer.total_ns)[span] * to_ref_us
        metrics[name] = value / denominators[per]
    for module in MODULES:
        metrics[f"{module}.self_us"] = tracer.module_self_ns(module) * to_ref_us / blocks
    metrics["rx.hypotheses_per_block"] = tracer.hypotheses / blocks
    metrics["sim.pools_per_sweep"] = pool_counter.calls["sim.pool"]
    metrics["sim.pool_overhead_s"] = pool_overhead
    metrics["trace.overhead_frac"] = statistics.median(overheads)

    print(f"traced pairs: {len(pairs)}; blocks traced: {blocks}")
    print("spans (caller -> span: calls, inclusive ms):")
    for (caller, span), (calls, ns) in sorted(tracer.edges.items(), key=lambda kv: -kv[1][1]):
        print(f"  {caller or '-'} -> {span}: {calls}, {ns / 1e6:.1f}")
    return metrics


def provenance(wl, seed):
    src = sorted((benchenv.SRC / "timsr").glob("*.py"))
    return {
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in src),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in benchenv.THREAD_VARS},
        "workload": wl.name,
        "seed": seed,
        "config_hash": {name: config_hash(w.config(sweeps.GATE_SEEDS[0]))
                        for name, w in sweeps.WORKLOADS.items()},
    }


def git_commit():
    """HEAD of the checkout's git repository, or None when it has none."""
    git = benchenv.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(sweeps.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    wl = sweeps.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    run = Run(wl)
    print("provenance: " + json.dumps(provenance(wl, args.seed), sort_keys=True))
    try:
        measure = per_layer if args.trace else end_to_end
        values = measure(run, args.seed, args.seconds)
    finally:
        run.csv_path.unlink(missing_ok=True)
    if values is None:
        print("no sweep succeeded", file=sys.stderr)
        sys.exit(1)

    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(f"failed_frac = {run.failed}/{run.attempted} sweeps")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
