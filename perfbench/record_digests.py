"""Rewrite digests.json from the current code: the SHA-256 of every
workload's CSV at each gate seed, from a 1-worker sweep.

    python3 perfbench/record_digests.py

Only for a change that alters sweep output on purpose, such as a
stream-layout bump, and says so in CHANGES.md.
"""

import benchenv

benchenv.prepare()

import json  # noqa: E402

import sweeps  # noqa: E402


def main() -> None:
    csv_path = sweeps.DIGEST_FILE.with_name("out") / "record_digests.csv"
    csv_path.parent.mkdir(exist_ok=True)
    digests = {}
    for name, wl in sweeps.WORKLOADS.items():
        digests[name] = {}
        for seed in sweeps.GATE_SEEDS:
            _, data = sweeps.timed_sweep(wl, wl.config(seed), 1, csv_path)
            digests[name][str(seed)] = sweeps.sha256(data)
    csv_path.unlink()
    sweeps.DIGEST_FILE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
