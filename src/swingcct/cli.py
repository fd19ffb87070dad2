"""Command-line interface: single study, parameter sweeps, branch diagrams.

Exit codes: 0 success, 2 no admissible parameter point, 3 input error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

from .equilibria import continue_branch, fold_locations
from .errors import ScenarioFormatError, ToolkitError
from .faultstudy import FaultScenario, check_search, run_fault_study
from .report import emit_reports
from .scenario import load_scenario
from .sweep import METRICS, SweepSpec, detect_uep_switches, find_optimum, run_sweep

EXIT_OK = 0
EXIT_INADMISSIBLE = 2
EXIT_INPUT = 3


def _load(path: str, freq: float | None) -> FaultScenario:
    sc = load_scenario(path)
    if freq is not None:
        sc = replace(sc, net=replace(sc.net, frequency=freq))
    return sc


def _parse_range(text: str, want_step: bool) -> tuple[float, float, float | None]:
    parts = text.split(":")
    if want_step and len(parts) != 3 or not want_step and len(parts) not in (2, 3):
        raise ScenarioFormatError(f"range {text!r}: expected lo:hi{':step' if want_step else '[:step]'}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        step = float(parts[2]) if len(parts) == 3 else None
    except ValueError:
        raise ScenarioFormatError(f"range {text!r}: values must be numbers") from None
    if not -math.inf < lo < hi < math.inf:
        raise ScenarioFormatError(f"range {text!r}: lo must be below hi, both finite")
    if step is not None and not 0.0 < step < math.inf:
        raise ScenarioFormatError(f"range {text!r}: step must be positive and finite")
    return lo, hi, step


def _fmt_metric(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    if value is None:
        return "-"
    return str(value)


def cmd_study(args: argparse.Namespace) -> int:
    sc = _load(args.scenario, args.freq)
    try:
        check_search(args.resolution, args.horizon, args.tolerance)
    except ValueError as exc:
        raise ScenarioFormatError(str(exc)) from None
    result = run_fault_study(
        sc,
        resolution=args.resolution,
        horizon=args.horizon,
        tol=args.tolerance,
    )
    print(f"scenario:   {sc.name or args.scenario}")
    print(f"admissible: {result.admissible}")
    if result.delta_E is not None:
        print(f"E_c:        {result.E_c:.6f}")
        print(f"dE:         {result.delta_E:.6f}")
    if result.closest_uep is not None:
        angles = ", ".join(f"{v:.6f}" for v in result.closest_uep.delta)
        print(f"closest UEP: [{angles}]")
    print(f"tau:        {_fmt_metric(result.tau)}")
    print(f"tau_H:      {_fmt_metric(result.tau_H)}")
    print(f"tau_A:      {_fmt_metric(result.tau_A)}")
    if result.verdicts:
        notes = "; ".join(f"{k}={v}" for k, v in sorted(result.verdicts.items()))
        print(f"verdicts:   {notes}")
    return EXIT_OK if result.admissible else EXIT_INADMISSIBLE


def cmd_sweep(args: argparse.Namespace) -> int:
    sc = _load(args.scenario, args.freq)
    lo, hi, step = _parse_range(args.range, want_step=True)
    spec = SweepSpec(
        scenario=sc,
        param=args.param,
        lo=lo,
        hi=hi,
        step=step,
        jobs=args.jobs,
        resolution=args.resolution,
        horizon=args.horizon,
        tol=args.tolerance,
    )
    rows = run_sweep(spec)
    label = args.param
    written = emit_reports(rows, None, args.out, x_label=label, outputs=spec.outputs)
    for key, p in written.items():
        print(f"{key}: {p}")
    admissible = [r for r in rows if r.admissible]
    print(f"points: {len(rows)} total, {len(admissible)} admissible")
    if not admissible:
        return EXIT_INADMISSIBLE
    for metric in METRICS:
        try:
            p, v = find_optimum(rows, metric)
            print(f"argmax {metric}: {label} = {p:g} ({metric} = {v:.6f})")
        except ValueError:
            print(f"argmax {metric}: n/a")
    for s in detect_uep_switches(rows):
        print(f"closest-UEP switch near {label} = {s:g}")
    return EXIT_OK


def cmd_branches(args: argparse.Namespace) -> int:
    sc = _load(args.scenario, args.freq)
    lo, hi, step = _parse_range(args.range, want_step=False)
    branches = continue_branch(
        sc, (lo, hi), initial_step=(hi - lo) / 200.0 if step is None else step, param=args.param
    )
    if not branches:
        print("no equilibrium branches found in range", file=sys.stderr)
        return EXIT_INADMISSIBLE
    written = emit_reports([], branches, args.out, x_label=args.param)
    for key, p in written.items():
        print(f"{key}: {p}")
    print(f"branches: {len(branches)}")
    folds = fold_locations(branches)
    for f in folds:
        print(f"fold at {args.param} = {f:.4f}")
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("scenario", help="scenario file path, or the bundled name 'wscc9-tmib'")
    p.add_argument("--freq", type=float, default=None, help="override the grid frequency [Hz]")
    p.add_argument("--tolerance", type=float, default=1e-8, help="integrator relative tolerance")
    p.add_argument("--horizon", type=float, default=1.0, help="clearing-time search upper bound [s]")
    p.add_argument("--resolution", type=float, default=1e-4, help="binary-search bracket width [s]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swingcct",
        description="Clearing-time metrics and load sweeps for swing-equation fault studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("study", help="run one fault study and print the metrics")
    _add_common(p)
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("sweep", help="sweep one load parameter and emit reports")
    _add_common(p)
    p.add_argument("--param", required=True, help="parameter path, e.g. 8.B (bus 8 susceptance)")
    p.add_argument("--range", required=True, help="lo:hi:step")
    p.add_argument("--out", default="reports", help="output directory")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("branches", help="trace equilibrium branches over a parameter range")
    _add_common(p)
    p.add_argument("--param", required=True, help="parameter path, e.g. 8.G")
    p.add_argument("--range", required=True, help="lo:hi (optionally lo:hi:step)")
    p.add_argument("--out", default="reports", help="output directory")
    p.set_defaults(func=cmd_branches)
    return parser


def _merge_value_flags(argv: list[str]) -> list[str]:
    """Join '--range -10:0:0.05' into '--range=...' so argparse does not
    mistake a leading minus sign for an option."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] in ("--range",) and i + 1 < len(argv):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_merge_value_flags(list(argv if argv is not None else sys.argv[1:])))
    try:
        return args.func(args)
    except ScenarioFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
