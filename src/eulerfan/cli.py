"""Command-line front end.

Exit codes: 0 success (or feasible / verifier pass), 1 valid run with a
negative finding (infeasible, threshold missing, verifier fail), 2
input error (bad flags, out-of-domain parameters, unreadable files).
"""

from __future__ import annotations

import argparse
import json
import sys

from .classifier import classify
from .eos import Eos
from .errors import DomainError, EulerFanError
from .functionals import RiemannData
from .reporting import (classification_record, read_witness, region_map_csv,
                        region_map_sweep, render_record, threshold_record,
                        threshold_table_record, verification_record,
                        witness_document, write_witness)
from .subsolution import verify_subsolution
from .threshold import feasibility_scan, threshold_V, threshold_table


def _add_state_flags(parser, *, v_minus2: bool, v1: bool = True):
    parser.add_argument("--rho-minus", type=float, required=True,
                        help="density left of the interface (> 0)")
    parser.add_argument("--rho-plus", type=float, required=True,
                        help="density right of the interface (> 0)")
    if v_minus2:
        parser.add_argument("--v-minus2", type=float, required=True,
                            help="left transverse velocity")
    parser.add_argument("--v-plus2", type=float, required=True,
                        help="right transverse velocity")
    parser.add_argument("--gamma", type=float, required=True,
                        help="adiabatic exponent (>= 1)")
    if v1:
        parser.add_argument("--v1", type=float, default=0.0,
                            help="common first velocity component (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerfan",
        description="Wave-fan classification, subsolution feasibility and "
                    "non-uniqueness thresholds for two-state interface data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify the self-similar solution")
    _add_state_flags(p, v_minus2=True)

    p = sub.add_parser("feasibility",
                       help="feasible middle-density intervals for one datum")
    _add_state_flags(p, v_minus2=True)
    p.add_argument("--grid", type=int, default=2048,
                   help="initial middle-density grid size (default 2048)")
    p.add_argument("--emit-witness", metavar="PATH",
                   help="write the found subsolution as a JSON witness file")

    p = sub.add_parser("threshold", help="gap threshold for one column")
    _add_state_flags(p, v_minus2=False, v1=False)

    p = sub.add_parser("threshold-table",
                       help="thresholds for several downstream velocities")
    p.add_argument("--rho-minus", type=float, required=True)
    p.add_argument("--rho-plus", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--v-plus2", type=float, nargs="+", required=True,
                   help="downstream transverse velocities, one per row")

    p = sub.add_parser("region-map",
                       help="sweep a (rho_plus, v_plus2) grid to CSV")
    p.add_argument("--rho-minus", type=float, required=True)
    p.add_argument("--v-minus2", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--v1", type=float, default=0.0)
    p.add_argument("--rho-plus-range", type=float, nargs=3, required=True,
                   metavar=("MIN", "MAX", "N"))
    p.add_argument("--v-plus2-range", type=float, nargs=3, required=True,
                   metavar=("MIN", "MAX", "N"))
    p.add_argument("--with-threshold", action="store_true",
                   help="also compute the gap threshold per cell (slow)")
    p.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")

    p = sub.add_parser("verify", help="re-verify a witness JSON file")
    p.add_argument("witness", help="path to a witness document")

    return parser


def _data_from_args(args) -> RiemannData:
    return RiemannData(rho_minus=args.rho_minus, rho_plus=args.rho_plus,
                       v_minus=(args.v1, args.v_minus2),
                       v_plus=(args.v1, args.v_plus2),
                       eos=Eos(gamma=args.gamma))


def _cmd_classify(args) -> int:
    data = _data_from_args(args)
    print(render_record(classification_record(data, classify(data))))
    return 0


def _cmd_feasibility(args) -> int:
    data = _data_from_args(args)
    intervals, sub = feasibility_scan(data, grid=args.grid)
    record = {
        "feasible": bool(intervals),
        "intervals": intervals,
        "witness": None if sub is None else witness_document(data, sub),
    }
    print(render_record(record))
    if args.emit_witness:
        if sub is None:
            print("no witness to emit", file=sys.stderr)
        else:
            write_witness(args.emit_witness, data, sub)
    return 0 if intervals else 1


def _cmd_threshold(args) -> int:
    result = threshold_V(args.rho_minus, args.rho_plus, args.v_plus2,
                         Eos(gamma=args.gamma))
    print(render_record(threshold_record(result)))
    return 0 if result.V is not None else 1


def _cmd_threshold_table(args) -> int:
    rows = threshold_table(args.rho_minus, args.rho_plus, Eos(gamma=args.gamma),
                           args.v_plus2)
    print(render_record(threshold_table_record(rows)))
    ok = all(r.error is None and r.result is not None and r.result.V is not None
             for r in rows)
    return 0 if ok else 1


def _cmd_region_map(args) -> int:
    cells = region_map_sweep(args.rho_minus, args.v_minus2, Eos(gamma=args.gamma),
                             tuple(args.rho_plus_range), tuple(args.v_plus2_range),
                             v1=args.v1, with_threshold=args.with_threshold)
    text = region_map_csv(cells)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    failed = sum(1 for c in cells if c.error is not None)
    if failed:
        print(f"{failed} of {len(cells)} cells recorded errors", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    data, sub = read_witness(args.witness)
    report = verify_subsolution(data, sub)
    print(render_record(verification_record(report)))
    return 0 if report.passed else 1


_COMMANDS = {
    "classify": _cmd_classify,
    "feasibility": _cmd_feasibility,
    "threshold": _cmd_threshold,
    "threshold-table": _cmd_threshold_table,
    "region-map": _cmd_region_map,
    "verify": _cmd_verify,
}


def run_cli(argv) -> int:
    """Parse argv (without the program name) and run one subcommand."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid witness JSON: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EulerFanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
