"""Command-line front end: sweep commands writing CSV, the power-budget
report, and the invariant self-check."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import load_config, make_config
from .sim import ber_sweep, default_n2_grid, harvest_sweep, power_budget_report


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="key = value config file")
    parser.add_argument("--seed", type=int, help="base seed for the trial streams")
    parser.add_argument("--trials", type=int, help="Monte Carlo blocks per sweep point")
    parser.add_argument("--out", metavar="PATH", help="output CSV path")
    parser.add_argument("--detector", choices=("ml", "llr"), help="receiver to simulate")
    parser.add_argument("--scheme", metavar="K,L", help="slots per block and information slots")
    parser.add_argument(
        "--paper-compat",
        action="store_true",
        help="use the literal metric variants (unscaled power-slot LLR term, "
        "information-slots-only joint metric)",
    )
    parser.add_argument("--workers", type=int, default=1, help="parallel worker processes")


def _parse_scheme(text: str):
    try:
        k, l = (int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"--scheme expects 'K,L', got {text!r}") from None
    return k, l


def _parse_grid(text: str):
    if ":" in text:
        parts = [int(v) for v in text.split(":")]
        if len(parts) != 3:
            raise ValueError(f"--n2-grid range expects 'start:stop:step', got {text!r}")
        return tuple(range(parts[0], parts[1], parts[2]))
    return tuple(int(v) for v in text.split(",") if v.strip())


def _build_config(args):
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = make_config()
    overrides = {}
    if args.command == "benchmark":
        overrides["scheme"] = "benchmark"
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.detector is not None:
        overrides["detector"] = args.detector
    if getattr(args, "scheme", None):
        overrides["k_slots"], overrides["l_slots"] = _parse_scheme(args.scheme)
    if args.paper_compat:
        overrides["paper_compat"] = True
    if overrides:
        cfg = replace(cfg, **overrides)
        cfg.validate()
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="timsr",
        description="Link-level Monte Carlo simulator for time-index-modulated "
        "transmission assisted by an energy-harvesting reconfigurable surface.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ber = sub.add_parser("ber-sweep", help="BER versus direct-link SNR")
    _add_common(p_ber)

    p_harv = sub.add_parser("harvest-sweep", help="harvested DC power versus absorber count")
    _add_common(p_harv)
    p_harv.add_argument(
        "--n2-grid", metavar="LIST|START:STOP:STEP", help="absorber counts to sweep"
    )

    p_budget = sub.add_parser("power-budget", help="surface consumption and harvest margin")
    _add_common(p_budget)

    p_bench = sub.add_parser("benchmark", help="BER sweep of the fixed-slot reference scheme")
    _add_common(p_bench)

    p_val = sub.add_parser("validate", help="run the invariant self-checks")
    _add_common(p_val)

    args = parser.parse_args(argv)

    if args.command == "validate":
        from .validate import run_all

        failed = run_all(verbose=True)
        print(f"{failed} check(s) failed" if failed else "all checks passed")
        return 1 if failed else 0

    try:
        cfg = _build_config(args)
        return _dispatch(args, cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args, cfg) -> int:
    if args.command == "power-budget":
        report = power_budget_report(cfg, workers=args.workers)
        print(f"consumption rf-switch : {report.p_ris_rf_w * 1e3:.3f} mW")
        print(f"consumption varactor  : {report.p_ris_varactor_w * 1e3:.3f} mW")
        print(f"varactor/rf ratio     : {report.ratio_db:.2f} dB")
        print(f"absorber cells (n2)   : {report.n2}")
        print(f"avg harvested DC      : {report.avg_dc_ris_uw:.1f} uW over {report.blocks} blocks")
        print(f"margin rf-switch      : {report.margin_rf_w * 1e3:+.3f} mW "
              f"(standalone in {report.standalone_frac_rf:.1%} of blocks)")
        print(f"margin varactor       : {report.margin_varactor_w * 1e3:+.3f} mW "
              f"(standalone in {report.standalone_frac_var:.1%} of blocks)")
        return 0

    if args.command == "ber-sweep":
        table = ber_sweep(cfg, workers=args.workers)
        out = args.out or "ber_sweep.csv"
    elif args.command == "benchmark":
        table = ber_sweep(cfg, workers=args.workers)
        out = args.out or "benchmark.csv"
    else:
        grid = default_n2_grid(cfg) if args.n2_grid is None else _parse_grid(args.n2_grid)
        report = harvest_sweep(cfg, grid, workers=args.workers)
        table = report.table
        out = args.out or "harvest_sweep.csv"
        print(f"consumption rf-switch : {report.p_ris_rf_w * 1e3:.3f} mW "
              f"(standalone from n2 = {report.min_n2_rf})")
        print(f"consumption varactor  : {report.p_ris_varactor_w * 1e3:.3f} mW "
              f"(standalone from n2 = {report.min_n2_varactor})")

    table.to_csv(out)
    print(f"wrote {len(table.rows)} row(s) to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
