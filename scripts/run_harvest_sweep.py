#!/usr/bin/env python3
"""Harvest campaign: average harvested DC power at the surface and at the
harvester versus the absorber count, for the (8, L) layouts, plus the
consumption lines and minimum absorber counts for both cell technologies.
"""

import argparse
import pathlib
import sys

from timsr import make_config
from timsr.sim import harvest_sweep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=2_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--step", type=int, default=8, help="absorber-count grid step")
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    try:
        if args.step < 1:
            raise ValueError(f"--step must be >= 1, got {args.step}")
        outdir = pathlib.Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        for l_slots in (1, 2, 4):
            cfg = make_config(k_slots=8, l_slots=l_slots, trials=args.trials, seed=args.seed)
            grid = tuple(range(0, cfg.n_cells - cfg.n1 + 1, args.step))
            report = harvest_sweep(cfg, n2_grid=grid, workers=args.workers)
            path = outdir / f"harvest_tim_8_{l_slots}.csv"
            report.table.to_csv(path)
            print(f"(8,{l_slots}): wrote {path}")
            print(f"  rf-switch needs {report.p_ris_rf_w * 1e3:.3f} mW, "
                  f"standalone from n2 = {report.min_n2_rf}")
            print(f"  varactor  needs {report.p_ris_varactor_w * 1e3:.3f} mW, "
                  f"standalone from n2 = {report.min_n2_varactor}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
