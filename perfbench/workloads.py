"""Seeded inputs, one unit of work per workload, and the correctness checks.

Every call goes through the public functions the CLI uses, looked up on the
package at call time so a traced run sees its wrappers:
``load_scenario``, ``run_fault_study``, ``run_sweep`` + ``emit_reports``,
``continue_branch`` + ``fold_locations``.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

#: seed whose outputs are recorded in reference.json
DEFAULT_SEED = 1

# run_fault_study defaults; every reported time must lie inside its horizon
HORIZON = 1.0
TAU_H_HORIZON = 2.0
RESOLUTION = 1e-4

#: acceptance ranges whose admissible interiors the study cases are drawn from
STUDY_RANGES = {"8.B": (-10.0, 0.0), "6.B": (-10.0, 0.0), "8.G": (0.0, 7.5)}
STUDY_DRAWS = 3     # stratified draws per parameter in one pass
STUDY_NOMINAL = 3   # nominal cases in one pass

SWEEP_PARAM, SWEEP_LO, SWEEP_STEP, SWEEP_POINTS = "8.G", 0.0, 0.5, 19
# the grid moves by at most a tenth of a step, so its last two points stay on
# the same side of the SEP fold near 8.56 for every seed
SWEEP_SHIFT = 0.1
SWEEP_MIN_POINTS = 3

BRANCH_STEP = 0.05
BRANCH_RANGES = {"8.B": (-10.0, 0.0), "8.G": (0.0, 9.0)}
BRANCH_MIN_RANGES = {"8.G": (8.0, 9.0)}
#: fold landmarks of acceptance criteria 4 (8.G) and 5 (8.B): (location, tolerance)
FOLD_LANDMARKS = {"8.B": ((-5.78, 0.3), (-3.62, 0.3)), "8.G": ((2.95, 0.3), (8.56, 0.4))}

VERDICT_CODES = {
    "scenario": {"no-sep", "no-boundary", "negative-margin", "bad-angles", "pm-nonpositive"},
    "tau": {"unbounded", "unstable-at-zero"},
    "tau_H": {"no-crossing"},
    "tau_A": {"no-real-root"},
}
TIME_BOUNDS = {"tau": HORIZON, "tau_H": TAU_H_HORIZON, "tau_A": TAU_H_HORIZON}
TIME_TOL = 3 * RESOLUTION   # times: a few bisection resolutions
CLOSED_FORM_RTOL = 1e-9     # tau_A, dE, E_c
FOLD_TOL = 5e-4             # folds are refined to 1e-4


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _close(a, b, atol: float = 0.0, rtol: float = 0.0) -> bool:
    if a is None or b is None or isinstance(a, str) or isinstance(b, str):
        return a == b
    return abs(a - b) <= atol + rtol * abs(b)


def _matches(rec: dict, ref: dict) -> bool:
    """Verdicts exactly, simulated times loosely, closed-form quantities tightly."""
    return (
        rec["verdicts"] == ref["verdicts"] and rec["admissible"] == ref["admissible"]
        and all(_close(rec[k], ref[k], atol=TIME_TOL) for k in ("tau", "tau_H"))
        and all(_close(rec[k], ref[k], rtol=CLOSED_FORM_RTOL) for k in ("tau_A", "dE", "E_c"))
    )


# ---------------------------------------------------------------------------
# study: independent fault studies, one after another
# ---------------------------------------------------------------------------


def study_cases(seed: int, min_size: bool = False) -> list[tuple[str | None, float | None]]:
    """One pass of (param, value) cases; (None, None) is the nominal case.

    Draws are stratified (one per equal-width slice of each range), so every
    seed gets the same mix of cheap and expensive parameter regions.
    """
    rng = _rng(seed, 0)
    cases: list[tuple[str | None, float | None]] = [(None, None)] * STUDY_NOMINAL
    for param, (lo, hi) in STUDY_RANGES.items():
        width = (hi - lo) / STUDY_DRAWS
        u = rng.uniform(0.0, 1.0, size=STUDY_DRAWS)
        cases += [(param, lo + (k + float(u[k])) * width) for k in range(STUDY_DRAWS)]
    cases = [cases[i] for i in rng.permutation(len(cases))]
    if min_size:
        nominal = cases.index((None, None))
        return [cases[nominal]] + [c for c in cases if c[0] is not None][:2]
    return cases


def write_study_files(swingcct, cases, out: Path) -> list[Path]:
    """Scenario file per case, written with the package's own writer."""
    from swingcct.sweep import parse_param_path

    base = swingcct.load_scenario("wscc9-tmib")
    paths = []
    for i, (param, value) in enumerate(cases):
        sc = base
        if param is not None:
            bus, part = parse_param_path(base, param)
            Y = base.net.shunt_loads[bus]
            sc = base.with_load(bus, complex(value, Y.imag) if part == "G" else complex(Y.real, value))
        path = out / f"case-{i:02d}.json"
        swingcct.save_scenario(sc, path)
        paths.append(path)
    return paths


def run_study(swingcct, path: Path):
    return swingcct.run_fault_study(swingcct.load_scenario(path))


def study_record(result) -> dict:
    return {
        "tau": result.tau, "tau_H": result.tau_H, "tau_A": result.tau_A,
        "dE": result.delta_E, "E_c": result.E_c, "admissible": result.admissible,
        "verdicts": dict(result.verdicts),
    }


def _time_ok(key: str, value) -> bool:
    if isinstance(value, str):
        return value in VERDICT_CODES[key]
    return isinstance(value, float) and 0.0 <= value <= TIME_BOUNDS[key]


def check_study(rec: dict, case, ref: dict | None) -> bool:
    """Seed-independent invariants, plus the recorded reference when given."""
    ok = (
        rec["admissible"]
        and all(_time_ok(k, rec[k]) for k in TIME_BOUNDS)
        and all(v in VERDICT_CODES.get(k, ()) for k, v in rec["verdicts"].items())
        and rec["dE"] is not None and rec["dE"] > 0.0 and math.isfinite(rec["E_c"])
    )
    if case == (None, None):  # criterion 1: nominal CCT
        ok = ok and isinstance(rec["tau"], float) and abs(rec["tau"] - 0.107) <= 0.015
    return bool(ok and (ref is None or _matches(rec, ref)))


# ---------------------------------------------------------------------------
# sweep-gc: one serial sweep of 8.G plus its CSV and SVG
# ---------------------------------------------------------------------------


def sweep_grid(seed: int, min_size: bool = False) -> tuple[float, float]:
    """(lo, hi) of the sweep grid: fixed point count, shifted by the seed."""
    shift = float(_rng(seed, 1).uniform(0.0, SWEEP_SHIFT)) * SWEEP_STEP
    first = SWEEP_POINTS - SWEEP_MIN_POINTS if min_size else 0
    lo = SWEEP_LO + shift + first * SWEEP_STEP
    hi = SWEEP_LO + shift + (SWEEP_POINTS - 1) * SWEEP_STEP
    return lo, hi


def run_sweep(swingcct, sc, grid: tuple[float, float], out: Path):
    spec = swingcct.SweepSpec(
        scenario=sc, param=SWEEP_PARAM, lo=grid[0], hi=grid[1], step=SWEEP_STEP
    )
    rows = swingcct.run_sweep(spec)
    written = swingcct.emit_reports(rows, None, out, x_label=SWEEP_PARAM, outputs=spec.outputs)
    return rows, written


def row_record(row) -> dict:
    return {
        "param": row.param, "tau": row.tau, "tau_H": row.tau_H, "tau_A": row.tau_A,
        "dE": row.dE, "E_c": row.E_c, "admissible": row.admissible, "verdicts": row.verdicts,
    }


def _row_ok(rec: dict) -> bool:
    codes = dict(v.split("=", 1) for v in rec["verdicts"].split(";") if v)
    if not all(v in VERDICT_CODES.get(k, ()) for k, v in codes.items()):
        return False
    if not rec["admissible"]:
        return "scenario" in codes and rec["tau"] is None
    return all(
        (rec[k] is None and k in codes) or _time_ok(k, rec[k]) for k in TIME_BOUNDS
    ) and rec["dE"] is not None and rec["dE"] > 0.0


def check_sweep(swingcct, rows, written, ref_rows: list[dict] | None, full: bool) -> list[bool]:
    """Per-row verdicts (an operation is one row); landmarks fail every row."""
    recs = [row_record(r) for r in rows]
    oks = [_row_ok(r) for r in recs]
    if ref_rows is not None:
        by_param = {round(r["param"], 9): r for r in ref_rows}
        for i, rec in enumerate(recs):
            ref = by_param.get(round(rec["param"], 9))
            oks[i] = oks[i] and ref is not None and _matches(rec, ref)
    whole = swingcct.read_sweep_csv(written["sweep_csv"]) == list(rows)
    whole = whole and written["trend_svg"].stat().st_size > 0
    if full:
        # criterion 4: closest-UEP switch, dE optimum, tau decreasing from the left end
        taus = [(r.param, r.tau) for r in rows if r.admissible and r.tau is not None]
        spacing = int(round(1.0 / SWEEP_STEP))
        whole = whole and len(rows) == SWEEP_POINTS
        whole = whole and any(6.0 <= s <= 6.5 for s in swingcct.detect_uep_switches(rows))
        whole = whole and abs(swingcct.find_optimum(rows, "dE")[0] - 4.0) <= 0.5
        whole = whole and swingcct.find_optimum(rows, "tau")[0] == taus[0][0] and all(
            taus[i + spacing][1] <= taus[i][1] + 1e-6 for i in range(len(taus) - spacing)
        )
    return [ok and whole for ok in oks]


# ---------------------------------------------------------------------------
# branches: equilibrium branch traces, no integration at all
# ---------------------------------------------------------------------------


def branch_ranges(seed: int, min_size: bool = False) -> dict[str, tuple[float, float]]:
    shift = float(_rng(seed, 2).uniform(0.0, 1.0)) * BRANCH_STEP
    ranges = BRANCH_MIN_RANGES if min_size else BRANCH_RANGES
    return {p: (lo + shift, hi + shift) for p, (lo, hi) in ranges.items()}


def run_branches(swingcct, sc, ranges) -> dict[str, list[float]]:
    folds = {}
    for param, prange in ranges.items():
        branches = swingcct.continue_branch(sc, prange, initial_step=BRANCH_STEP, param=param)
        if not branches:
            raise RuntimeError(f"no branches traced for {param} over {prange}")
        folds[param] = [float(f) for f in swingcct.fold_locations(branches)]
    return folds


def check_branches(folds: dict, ranges: dict, ref: dict | None) -> list[bool]:
    """One verdict per trace: fold landmarks inside the range, plus the reference."""
    oks = []
    for param, found in folds.items():
        lo, hi = ranges[param]
        ok = all(
            any(abs(f - at) <= tol for f in found)
            for at, tol in FOLD_LANDMARKS[param]
            if lo <= at <= hi
        )
        if ref is not None:
            want = ref[param]
            ok = ok and len(found) == len(want) and all(
                abs(a - b) <= FOLD_TOL for a, b in zip(found, want)
            )
        oks.append(bool(ok))
    return oks
