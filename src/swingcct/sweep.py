"""Parametric sweep driver: one fault study per load-parameter value."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from .equilibria import wrapped_distance
from .errors import ScenarioFormatError
from .faultstudy import CHAIN, FaultScenario, FaultStudyResult, LoadFamily, check_search, parse_param_path, run_studies

METRICS = ("tau", "tau_H", "tau_A", "dE")
#: closest-UEP positions further apart than this across one grid interval
#: count as a switch between branches [rad, modulo 2*pi]
UEP_JUMP = 0.5


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: which load component to vary, over what grid (`values`)."""

    scenario: FaultScenario
    param: str          # "<bus>.G" or "<bus>.B"
    lo: float
    hi: float
    step: float
    jobs: int = 1
    resolution: float = 1e-4
    horizon: float = 1.0
    tol: float = 1e-8
    outputs: ClassVar[tuple[str, ...]] = ("csv", "svg")

    def __post_init__(self) -> None:
        if not -np.inf < self.lo < self.hi < np.inf:
            raise ScenarioFormatError(f"range [{self.lo}, {self.hi}]: lo must be below hi, both finite")
        if not 0.0 < self.step < np.inf:
            raise ScenarioFormatError(f"step {self.step}: must be positive and finite")
        if self.jobs < 1:
            raise ScenarioFormatError(f"jobs {self.jobs}: must be at least 1")
        # hi is a point despite rounding, and no point lies beyond hi by more than
        # min(1e-12, 1e-9 * step) or, where more, four float spacings of the larger end
        pad = max(min(1e-12, 1e-9 * self.step), 4 * float(np.spacing(max(abs(self.lo), abs(self.hi)))))
        try:
            values = np.arange(self.lo, self.hi + pad, self.step)
        except (ValueError, MemoryError):  # numpy cannot size or allocate the grid
            raise ScenarioFormatError(f"range [{self.lo}, {self.hi}] at step {self.step}: too many points") from None
        object.__setattr__(self, "values", values)
        parse_param_path(self.scenario, self.param)
        check_search(self.resolution, self.horizon, self.tol)


@dataclass(frozen=True)
class SweepRow:
    """One parameter point of a sweep (CSV-facing fields plus the UEP hook)."""

    param: float
    tau: float | None
    tau_H: float | None
    tau_A: float | None
    dE: float | None
    E_c: float | None
    admissible: bool
    verdicts: str                       # canonical "key=value;..." encoding
    closest: tuple[float, ...] | None = field(default=None, compare=False)
    message: str | None = field(default=None, compare=False)   # why the point was rejected


def _verdict_string(result: FaultStudyResult) -> str:
    parts = []
    for key in sorted(result.verdicts):
        parts.append(f"{key}={result.verdicts[key]}")
    return ";".join(parts)


def _row_from_result(value: float, result: FaultStudyResult) -> SweepRow:
    def num(x: float | str | None) -> float | None:
        return x if isinstance(x, float) else None

    closest = None
    if result.closest_uep is not None:
        closest = tuple(float(v) for v in result.closest_uep.delta)
    return SweepRow(
        param=float(value),
        tau=num(result.tau),
        tau_H=num(result.tau_H),
        tau_A=num(result.tau_A),
        dE=result.delta_E,
        E_c=result.E_c,
        admissible=result.admissible,
        verdicts=_verdict_string(result),
        closest=closest,
        message=result.message,
    )


def _eval_block(args: tuple) -> list[SweepRow]:
    """Rows of a run of whole chains (its first value starts a chain)."""
    spec, values = args
    family = LoadFamily(spec.scenario, spec.param)
    results = run_studies(family.contexts(values), resolution=spec.resolution, horizon=spec.horizon, tol=spec.tol)
    return [_row_from_result(value, result) for value, result in zip(values, results)]


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate every grid point, ascending; rows keep inadmissible points.

    Each point is a value of the scenario's LoadFamily, and the points of a
    block are built as one stack (`LoadFamily.contexts`) and studied
    together (`run_studies`), in chains of CHAIN grid points whose
    enumerations continue from point to point.
    With jobs > 1 each worker of a process pool takes one block of whole
    chains, so every block starts a chain where the serial run does; a
    point's result depends only on the grid, and parallel and serial runs
    produce identical tables.
    """
    values = [float(v) for v in spec.values]
    chains = np.arange(0, len(values), CHAIN)
    starts = [int(run[0]) for run in np.array_split(chains, min(spec.jobs, chains.size))]
    blocks = [values[a:b] for a, b in zip(starts, starts[1:] + [len(values)])]
    if len(blocks) == 1:
        return _eval_block((spec, values))
    from concurrent.futures import ProcessPoolExecutor  # costly to import: only where a pool runs

    with ProcessPoolExecutor(max_workers=len(blocks)) as pool:
        return [row for rows in pool.map(_eval_block, [(spec, b) for b in blocks]) for row in rows]


def find_optimum(rows: Sequence[SweepRow], metric: str) -> tuple[float, float]:
    """(parameter, value) of the admissible argmax; ties go to the smaller
    parameter (rows are scanned in ascending order)."""
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    best: tuple[float, float] | None = None
    for row in rows:
        if not row.admissible:
            continue
        value = getattr(row, metric)
        if value is None:
            continue
        if best is None or value > best[1]:
            best = (row.param, value)
    if best is None:
        raise ValueError(f"no admissible rows carry metric {metric!r}")
    return best


def detect_uep_switches(rows: Sequence[SweepRow]) -> list[float]:
    """Parameter values where the closest UEP jumps between branches.

    Reported as the midpoint of the first grid interval whose endpoints hold
    closest-UEP positions further apart than UEP_JUMP (angles modulo 2*pi).
    """
    switches = []
    prev: SweepRow | None = None
    for row in rows:
        if not row.admissible or row.closest is None:
            prev = None
            continue
        if prev is not None and wrapped_distance(np.array(row.closest), np.array(prev.closest)) > UEP_JUMP:
            switches.append(0.5 * (prev.param + row.param))
        prev = row
    return switches
