#!/usr/bin/env python3
"""BER campaign: sweep the (8, L) layouts for both detectors over the
0-30 dB direct-link SNR grid and write one CSV per (layout, detector).

Desk-scale defaults; raise --trials for publication-quality curves.
"""

import argparse
import pathlib
import sys

from timsr import make_config
from timsr.sim import ber_sweep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    try:
        outdir = pathlib.Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        for l_slots in (1, 2, 4):
            for detector in ("ml", "llr"):
                cfg = make_config(
                    k_slots=8,
                    l_slots=l_slots,
                    detector=detector,
                    trials=args.trials,
                    seed=args.seed,
                )
                table = ber_sweep(cfg, workers=args.workers)
                path = outdir / f"ber_tim_8_{l_slots}_{detector}.csv"
                table.to_csv(path)
                last = table.rows[-1]
                print(f"(8,{l_slots}) {detector:>3}: wrote {path} "
                      f"(ptx BER at {last.snr_db:g} dB = {last.ber_ptx:.2e})")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
