#!/usr/bin/env python3
"""Append one benchmark record per workload to BENCH_<workload>.json.

For each workload that BENCHMARK.json lists, run

    python3 perfbench/run.py --workload W --seed 1 --seconds 30 --trace 0

in a subprocess, in the checkout given by --tree (this repository by
default), and append one record to BENCH_W.json at this repository's root:
the run's provenance line (commit, src line count, versions), its last-line
result (end-to-end metrics, sweeps attempted and failed) and its median
blocks per host second. Each file is a JSON list of records, oldest first.
Standard library only.

    python3 scripts/bench_record.py [--tree DIR]
"""

import argparse
import json
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HOST_RATE = re.compile(r"^sweeps timed: \d+; blocks per host second: median ([0-9.eE+-]+),",
                       re.MULTILINE)


def parse_output(text: str) -> dict:
    """The record of one ``perfbench/run.py --trace 0`` output: its
    provenance, its last-line result and its host blocks/s. A ValueError
    when any of them is missing."""
    lines = text.strip().splitlines()
    provenance = [line for line in lines if line.startswith("provenance: ")]
    host = HOST_RATE.search(text)
    if not (lines and provenance and host):
        raise ValueError("benchmark output lacks its provenance, host rate or result line")
    return {"provenance": json.loads(provenance[0][len("provenance: "):]),
            "result": json.loads(lines[-1]),
            "host_blocks_per_s": float(host.group(1))}


def record(tree: pathlib.Path, workload: str) -> dict:
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", "1", "--seconds", "30", "--trace", "0"],
                         cwd=tree, capture_output=True, text=True)
    if run.returncode != 0:
        raise ValueError(f"{workload} exited {run.returncode}: {run.stderr.strip()}")
    return parse_output(run.stdout)


def append(path: pathlib.Path, entry: dict) -> None:
    records = json.loads(path.read_text()) if path.exists() else []
    path.write_text(json.dumps(records + [entry], indent=1, sort_keys=True) + "\n")


def main() -> int:
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", type=pathlib.Path, default=ROOT,
                    help="checkout whose perfbench/run.py runs")
    args = ap.parse_args()

    try:
        for workload in workloads:
            entry = record(args.tree, workload)
            append(ROOT / f"BENCH_{workload}.json", entry)
            metrics = {k: v["value"] for k, v in entry["result"]["metrics"].items()}
            print(f"{workload}: {metrics}, host {entry['host_blocks_per_s']:.1f} blocks/s")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
