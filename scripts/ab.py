#!/usr/bin/env python3
"""Paired A/B timing of one benchmark workload on two checkouts.

    python3 scripts/ab.py TREE_A TREE_B --workload W [--pairs N] [--seed S]

In each of six rounds each tree gets one long-lived child process, which
imports that tree's ``perfbench/sweeps.py`` (read only, never modified) and
so its ``src/``. Only one child runs at a time. A run is five sweeps of
workload W at config seed S in one child, and its time is their median host
seconds. In each round N pairs run in ABBA order (A then B, then B then A,
and so on) in each of two passes: one with the five sweeps back to back, and
one with 100 ms of idle sleep before each sweep. Every sweep's CSV must
have the same SHA-256 in both trees, or the script exits 1.

For each pass it prints the median of the per-pair ratios A time / B time
(above 1 when B is faster), the share of pairs that B wins, and a 95%
percentile bootstrap interval of that median (Efron 1979), resampled with
the standard library's ``random`` at a fixed seed. A process's heap layout
alone can move its sweeps by several percent for its whole life, so the
bootstrap resamples the rounds, then the pairs within each round drawn.
No reference scaling is applied. Standard library only.
"""

import argparse
import json
import pathlib
import random
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
IDLE_S = 0.1
ROUNDS = 6
SWEEPS = 5
BOOTSTRAP_SEED = 1979
RESAMPLES = 10_000


def child(tree: pathlib.Path, workload: str, seed: int) -> None:
    """Serve runs of ``workload`` from ``tree`` until stdin closes: each line
    is JSON ``[idle seconds, sweeps]``, and each reply line is JSON
    ``[median seconds, sorted CSV SHA-256 digests]``."""
    sys.path.insert(0, str(tree / "perfbench"))
    import benchenv
    benchenv.prepare()
    import sweeps

    wl = sweeps.WORKLOADS[workload]
    cfg = wl.config(seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / f"{workload}.csv"
        for line in sys.stdin:
            idle, count = json.loads(line)
            seconds, digests = [], set()
            for _ in range(count):
                if idle:
                    time.sleep(idle)
                took, data = sweeps.timed_sweep(wl, cfg, wl.workers, path)
                seconds.append(took)
                digests.add(sweeps.sha256(data))
            print(json.dumps([statistics.median(seconds), sorted(digests)]), flush=True)


class Child:
    """One tree's long-lived child process."""

    def __init__(self, tree: pathlib.Path, workload: str, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--child", str(tree), workload, str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, idle: float, sweeps: int):
        self.proc.stdin.write(json.dumps([idle, sweeps]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"child exited with status {self.proc.wait()}")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def median_interval(rounds, resamples: int = RESAMPLES, seed: int = BOOTSTRAP_SEED):
    """The 2.5th and 97.5th percentiles of the median over ``resamples``
    two-stage bootstrap resamples of ``rounds``, lists of ratios: rounds
    drawn with replacement, then ratios within each drawn round."""
    rng = random.Random(seed)
    medians = sorted(
        statistics.median([r for drawn in rng.choices(rounds, k=len(rounds))
                           for r in rng.choices(drawn, k=len(drawn))])
        for _ in range(resamples))
    return medians[int(0.025 * resamples)], medians[int(0.975 * resamples) - 1]


def run_pass(children, idle: float, pairs: int, sweeps: int):
    """Per-pair (A seconds, B seconds) of one pass in ABBA order; a
    RuntimeError when the two trees' CSVs differ."""
    times = []
    for i in range(pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        got = {}
        for which in order:
            got[which] = children[which].run(idle, sweeps)
        digests = {tuple(d) for _, d in got.values()}
        if len(digests) != 1 or len(next(iter(digests))) != 1:
            raise RuntimeError(f"pair {i}: the CSVs differ: {sorted(digests)}")
        times.append((got[0][0], got[1][0]))
    return times


def summary(name: str, rounds) -> str:
    """One pass's line from its rounds, lists of (A seconds, B seconds)."""
    times = [pair for pairs in rounds for pair in pairs]
    low, high = median_interval([[a / b for a, b in pairs] for pairs in rounds])
    wins = sum(b < a for a, b in times)
    return (f"{name}: median A/B time ratio {statistics.median(a / b for a, b in times):.3f}, "
            f"95% interval [{low:.3f}, {high:.3f}], B faster in {wins}/{len(times)} pairs "
            f"over {len(rounds)} rounds; median seconds "
            f"A {statistics.median(a for a, _ in times):.5f}, "
            f"B {statistics.median(b for _, b in times):.5f}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        child(pathlib.Path(argv[1]), argv[2], int(argv[3]))
        return 0
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree_a", type=pathlib.Path)
    ap.add_argument("tree_b", type=pathlib.Path)
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--pairs", type=int, default=10, help="pairs per pass and round (default 10)")
    ap.add_argument("--seed", type=int, default=1, help="config seed (default 1)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    for tree in (args.tree_a, args.tree_b):
        if not (tree / "perfbench" / "sweeps.py").is_file():
            ap.error(f"{tree} has no perfbench/sweeps.py")

    passes = {"back to back": 0.0, f"after {IDLE_S * 1e3:.0f} ms idle": IDLE_S}
    rounds = {name: [] for name in passes}
    trees = (args.tree_a.resolve(), args.tree_b.resolve())
    for r in range(ROUNDS):
        children = [None, None]
        for i in ((0, 1) if r % 2 == 0 else (1, 0)):     # each tree's child starts first in turn
            children[i] = Child(trees[i], args.workload, args.seed)
        try:
            for c in children:       # warm up: imports, caches and any worker pool
                c.run(0.0, 2)
            for name, idle in passes.items():
                rounds[name].append(run_pass(children, idle, args.pairs, SWEEPS))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            for c in children:
                c.close()
    for name in passes:
        print(f"{args.workload} {summary(name, rounds[name])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
