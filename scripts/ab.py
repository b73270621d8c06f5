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
have the same SHA-256 in both trees, and when S is one of the benchmark's
gate seeds (``sweeps.GATE_SEEDS``) the SHA-256 that each tree's
``perfbench/digests.json`` stores (read only), or the script exits 1.

For each pass it prints the median of the per-pair ratios A time / B time
(above 1 when B is faster), the share of pairs that B wins, and a 95%
percentile bootstrap interval of that median (Efron 1979), resampled with
the standard library's ``random`` at a fixed seed. A process's heap layout
alone can move its sweeps by several percent for its whole life, so the
bootstrap resamples the rounds, then the pairs within each round drawn.
It also prints each tree's median minor page faults per sweep, in the
child's own process (``ru_minflt``) and summed over the workers of its
``timsr.sim`` pool (field 10 of each worker's ``/proc/<pid>/stat``; 0 with
no pool or no ``/proc``): where one tree's processes fault and the other's
do not, the system time of those faults shows in the ratio. Beside them
it prints each tree's line count of ``src/timsr``, so a change's cost in
code reads next to its speed. No reference scaling is applied. Standard
library only.
"""

import argparse
import json
import pathlib
import random
import resource
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
    """Serve runs of ``workload`` from ``tree`` until stdin closes. The first
    reply line is the CSV SHA-256 that the tree's ``perfbench/digests.json``
    stores for the seed, or null off the gate seeds; then each line is JSON
    ``[idle seconds, sweeps]``, and each reply line is JSON ``[median
    seconds, sorted CSV SHA-256 digests, [minor page faults per sweep of
    the child, of its pool's workers]]``."""
    sys.path.insert(0, str(tree / "perfbench"))
    import benchenv
    benchenv.prepare()
    import sweeps

    wl = sweeps.WORKLOADS[workload]
    cfg = wl.config(seed)
    stored = sweeps.load_digests()[workload][str(seed)] if seed in sweeps.GATE_SEEDS else None
    print(json.dumps(stored), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / f"{workload}.csv"
        for line in sys.stdin:
            idle, count = json.loads(line)
            seconds, digests = [], set()
            faults, workers = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, worker_faults()
            for _ in range(count):
                if idle:
                    time.sleep(idle)
                took, data = sweeps.timed_sweep(wl, cfg, wl.workers, path)
                seconds.append(took)
                digests.add(sweeps.sha256(data))
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            workers = sum(n - workers[pid] for pid, n in worker_faults().items() if pid in workers)
            print(json.dumps([statistics.median(seconds), sorted(digests),
                              [faults / count, workers / count]]), flush=True)


def worker_faults() -> dict:
    """{pid: minor page faults so far} of each worker of the shared pool of
    the ``timsr.sim`` this child imported; empty when it has none."""
    shared = getattr(sys.modules.get("timsr.sim"), "_shared", None)
    faults = {}
    for pid in shared[1]._processes if shared else ():
        try:
            with open(f"/proc/{pid}/stat") as stat:
                faults[pid] = int(stat.read().rpartition(")")[2].split()[7])
        except OSError:     # no /proc, or the worker is gone
            pass
    return faults


class Child:
    """One tree's long-lived child process."""

    def __init__(self, tree: pathlib.Path, workload: str, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--child", str(tree), workload, str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.tree = tree
        self.stored = self._reply()

    def _reply(self):
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"child exited with status {self.proc.wait()}")
        return json.loads(reply)

    def run(self, idle: float, sweeps: int):
        """(median seconds, CSV digests, [faults per sweep of the child,
        of its pool's workers]) of one run; a RuntimeError when a CSV misses
        the tree's stored digest."""
        self.proc.stdin.write(json.dumps([idle, sweeps]) + "\n")
        self.proc.stdin.flush()
        seconds, digests, faults = self._reply()
        if self.stored is not None and digests != [self.stored]:
            raise RuntimeError(f"{self.tree}: the CSV digests {digests} are not the one "
                               f"perfbench/digests.json stores, {self.stored}")
        return seconds, digests, faults

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def src_lines(tree: pathlib.Path) -> int:
    """Lines in the Python modules of the tree's ``src/timsr``."""
    return sum(len(path.read_text().splitlines())
               for path in (tree / "src" / "timsr").glob("*.py"))


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
    """Per-pair (A seconds, B seconds, A faults, A workers' faults, B faults,
    B workers' faults) of one pass in ABBA order, faults per sweep; a
    RuntimeError when the two trees' CSVs differ."""
    runs = []
    for i in range(pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        got = {}
        for which in order:
            got[which] = children[which].run(idle, sweeps)
        digests = {tuple(d) for _, d, _ in got.values()}
        if len(digests) != 1 or len(next(iter(digests))) != 1:
            raise RuntimeError(f"pair {i}: the CSVs differ: {sorted(digests)}")
        runs.append((got[0][0], got[1][0], *got[0][2], *got[1][2]))
    return runs


def summary(name: str, rounds, lines) -> str:
    """One pass's line from its rounds, lists of the tuples that
    ``run_pass`` returns, and the two trees' ``src_lines``."""
    runs = [run for pairs in rounds for run in pairs]
    low, high = median_interval([[a / b for a, b, *_ in pairs] for pairs in rounds])
    wins = sum(b < a for a, b, *_ in runs)
    a_s, b_s, a_f, a_w, b_f, b_w = (statistics.median(col) for col in zip(*runs))
    return (f"{name}: median A/B time ratio {statistics.median(a / b for a, b, *_ in runs):.3f}, "
            f"95% interval [{low:.3f}, {high:.3f}], B faster in {wins}/{len(runs)} pairs "
            f"over {len(rounds)} rounds; median seconds A {a_s:.5f}, B {b_s:.5f}; "
            f"median minor page faults per sweep A {a_f:.0f}, B {b_f:.0f}, "
            f"in pool workers A {a_w:.0f}, B {b_w:.0f}; "
            f"src/timsr lines A {lines[0]}, B {lines[1]}")


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
        try:
            for i in ((0, 1) if r % 2 == 0 else (1, 0)):     # each tree's child starts first in turn
                children[i] = Child(trees[i], args.workload, args.seed)
            for c in children:       # warm up: imports, caches and any worker pool
                c.run(0.0, 2)
            for name, idle in passes.items():
                rounds[name].append(run_pass(children, idle, args.pairs, SWEEPS))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            for c in children:
                if c is not None:
                    c.close()
    lines = [src_lines(tree) for tree in trees]
    for name in passes:
        print(f"{args.workload} {summary(name, rounds[name], lines)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
