"""Command-line front end: sweep commands writing CSV and the power-budget
report."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import DETECTORS, load_config, make_config
from .sim import ber_sweep, harvest_sweep, power_budget_report


def _flag_groups():
    """Parent parsers of the subcommands: the flags of every run, the output
    path of a command that writes a CSV, and the receiver flags of one that
    detects."""
    run, out, receiver = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    run.add_argument("--config", metavar="PATH", help="key = value config file")
    run.add_argument("--seed", type=int, help="base seed for the trial streams")
    run.add_argument("--trials", type=int, help="Monte Carlo blocks per sweep point")
    run.add_argument("--scheme", metavar="K,L", help="slots per block and information slots")
    run.add_argument("--workers", type=int, default=1,
                     help="processes to split the trials over, one shard each, each "
                          "on its own CPU when there are CPUs enough")
    out.add_argument("--out", metavar="PATH", help="output CSV path")
    receiver.add_argument("--detector", choices=DETECTORS, help="receiver to simulate")
    receiver.add_argument(
        "--paper-compat",
        action="store_true",
        help="use the literal metric variants (unscaled power-slot LLR term, "
        "information-slots-only joint metric)",
    )
    return run, out, receiver


def _check_writable(path) -> None:
    """Raise ``OSError`` before any trial runs if ``path`` cannot be opened
    for writing. An existing file is opened for appending, so it is kept; a
    file that this check creates is removed again."""
    existed = os.path.lexists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def _parse_scheme(text: str):
    try:
        k, l = (int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"--scheme expects 'K,L', got {text!r}") from None
    return k, l


def _parse_grid(text: str):
    try:
        if ":" in text:
            start, stop, step = (int(v) for v in text.split(":"))
            return tuple(range(start, stop, step))
        return tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ValueError(f"--n2-grid expects integers 'N,N,...' or 'START:STOP:STEP' with a "
                         f"nonzero step, got {text!r}") from None


def _build_config(args):
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    cfg = load_config(args.config) if args.config else make_config()
    overrides = {key: getattr(args, key, None) for key in ("seed", "trials", "detector")
                 if getattr(args, key, None) is not None}
    if args.command == "benchmark":
        overrides["scheme"] = "benchmark"
    if args.scheme:
        overrides["k_slots"], overrides["l_slots"] = _parse_scheme(args.scheme)
    if getattr(args, "paper_compat", False):
        overrides["paper_compat"] = True
    return replace(cfg, **overrides)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="timsr",
        description="Link-level Monte Carlo simulator for time-index-modulated "
        "transmission assisted by an energy-harvesting reconfigurable surface.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run, out, receiver = _flag_groups()
    sub.add_parser("ber-sweep", parents=[run, out, receiver], help="BER versus direct-link SNR")
    p_harv = sub.add_parser("harvest-sweep", parents=[run, out],
                            help="harvested DC power versus absorber count")
    p_harv.add_argument(
        "--n2-grid", metavar="LIST|START:STOP:STEP", help="absorber counts to sweep"
    )
    sub.add_parser("power-budget", parents=[run], help="surface consumption and harvest margin")
    sub.add_parser("benchmark", parents=[run, out, receiver],
                   help="BER sweep of the fixed-slot reference scheme")

    args = parser.parse_args(argv)

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

    out = args.out or f"{args.command.replace('-', '_')}.csv"
    _check_writable(out)
    if args.command != "harvest-sweep":
        table = ber_sweep(cfg, workers=args.workers)
    else:
        grid = None if args.n2_grid is None else _parse_grid(args.n2_grid)
        report = harvest_sweep(cfg, grid, workers=args.workers)
        table = report.table
        print(f"consumption rf-switch : {report.p_ris_rf_w * 1e3:.3f} mW "
              f"(standalone from n2 = {report.min_n2_rf})")
        print(f"consumption varactor  : {report.p_ris_varactor_w * 1e3:.3f} mW "
              f"(standalone from n2 = {report.min_n2_varactor})")

    table.to_csv(out)
    print(f"wrote {len(table.rows)} row(s) to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
