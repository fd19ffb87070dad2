"""Stationary points of the conservative post-fault system.

SEP location solves the anchored field self-consistently (the frozen
conductance power depends on the equilibrium it anchors).  Saddles come from
a batched multi-start Newton over a grid around the SEP, wrapped into the
2*pi cell centered on it; the lowest type-1 saddle defines the critical
energy.  Branches of equilibria under a load-parameter change are traced by
a natural-parameter predictor/corrector with fold refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .energy import HamiltonianModel, potential, potential_gradient
from .errors import EquilibriumError, InadmissibleScenario
from .netmodel import ReducedNetwork
from .swing import Coupling, GeneratorParams

_EIG_AXIS_TOL = 1e-9
#: stationary_points retires a grid start whose best residual has not
#: improved for this many Newton iterations
_STALL = 3
#: continue_branch re-enumerates at every this fraction of its range
_CHECKPOINT_STEP = 0.05
#: fold_locations pools folds closer than this in the parameter
_FOLD_MERGE = 0.02


def _newton(
    coupling: Coupling,
    drive: np.ndarray,
    starts: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 50,
    stall: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on power[act] = drive from a (k, m) stack of starts.

    Steps are capped at 1 rad in the max norm.  A start stops once its
    residual is within tol and is dropped when its Jacobian is (near)
    singular or its iterate leaves the finite numbers.  With `stall`, a
    start whose best residual (max norm) has not improved for `stall`
    iterations is dropped too.  Returns the iterates and the mask of
    converged starts; each row's result is independent of the others in
    the stack.
    """
    X = np.array(starts, dtype=float)
    converged = np.zeros(X.shape[0], dtype=bool)
    work = np.arange(X.shape[0])
    best = np.full(X.shape[0], np.inf)
    idle = np.zeros(X.shape[0], dtype=int)
    for _ in range(max_iter):
        if work.size == 0:
            break
        Xw = X[work]
        R = drive - coupling.active_power(Xw)
        res = np.max(np.abs(R), axis=1)
        done = res <= tol
        converged[work[done]] = True
        J = coupling.jacobian(Xw)
        keep = ~done & (np.abs(np.linalg.det(J)) > 1e-14)
        if stall is not None:
            improved = res < best[work]
            best[work[improved]] = res[improved]
            idle[work] = np.where(improved, 0, idle[work] + 1)
            keep &= idle[work] < stall
        step = np.linalg.solve(J[keep], R[keep, :, None])[:, :, 0]
        norms = np.max(np.abs(step), axis=1, keepdims=True)
        Xw = Xw[keep] + step * (1.0 / np.maximum(norms, 1.0))
        finite = np.all(np.isfinite(Xw), axis=1)
        work = work[keep][finite]
        X[work] = Xw[finite]
    return X, converged


@dataclass(frozen=True)
class EquilibriumPoint:
    """A stationary point of the conservative system (omega = 0 implied)."""

    delta: np.ndarray
    energy: float
    type_index: int
    spectrum: np.ndarray


@dataclass(frozen=True)
class CriticalEnergy:
    """Closest type-1 saddle and its potential energy level."""

    closest_uep: EquilibriumPoint
    E_c: float


def _spectrum(hm: HamiltonianModel, delta: np.ndarray) -> np.ndarray:
    gp = hm.gp
    m = gp.n_active
    H = hm.coupling.jacobian(delta)
    Minv = 1.0 / gp.M[gp.active]
    J = np.zeros((2 * m, 2 * m))
    J[:m, m:] = np.eye(m)
    J[m:, :m] = -(Minv[:, None] * H)
    return np.linalg.eigvals(J)


def _equilibrium_point(hm: HamiltonianModel, delta: np.ndarray) -> EquilibriumPoint:
    spectrum = _spectrum(hm, delta)
    near_zero = (np.abs(spectrum.real) <= _EIG_AXIS_TOL) & (np.abs(spectrum.imag) <= _EIG_AXIS_TOL)
    if np.any(near_zero):
        raise EquilibriumError("marginal equilibrium: eigenvalue at the origin")
    t = int(np.sum(spectrum.real > _EIG_AXIS_TOL))
    delta = np.asarray(delta, dtype=float).copy()
    # energy is always that of the canonical-cell representative, so traced
    # (unwrapped) points stay comparable with enumerated ones
    canonical = _wrap_to_cell(delta, np.asarray(hm.anchor, dtype=float))
    return EquilibriumPoint(
        delta=delta,
        energy=float(potential(hm, canonical)),
        type_index=t,
        spectrum=spectrum,
    )


def find_sep(
    red: ReducedNetwork,
    gp: GeneratorParams,
    guess: np.ndarray,
) -> tuple[EquilibriumPoint, HamiltonianModel]:
    """Locate the stable post-fault equilibrium and its anchored model.

    The anchored field with the anchor at its own equilibrium has the same
    residual as the exact field, so the joint fixed point (equilibrium plus
    frozen conductance power) is found in one Newton run on the exact field.
    """
    guess = np.asarray(guess, dtype=float)
    kernel = Coupling(red, gp.active)
    X, converged = _newton(kernel, gp.Pm[gp.active], guess[None, :])
    if not converged[0]:
        raise EquilibriumError("SEP Newton did not converge")
    delta = X[0]
    if np.max(np.abs(delta - guess)) >= np.pi:
        raise EquilibriumError("Newton left the principal cell of the initial guess")
    hm = HamiltonianModel.at_anchor(red, gp, delta, kernel)
    if np.max(np.abs(potential_gradient(hm, delta))) > 1e-10:
        raise EquilibriumError("anchored residual check failed at the SEP")
    point = _equilibrium_point(hm, delta)
    if point.type_index != 0:
        raise EquilibriumError(f"converged point is type-{point.type_index}, not a SEP")
    return point, hm


def _wrap_to_cell(delta: np.ndarray, center: np.ndarray) -> np.ndarray:
    # subtract whole turns only, so in-cell coordinates pass through bit-exact;
    # the lower cell edge belongs to the +pi side (half-open cell)
    d = delta - center
    w = d - 2.0 * np.pi * np.round(d / (2.0 * np.pi))
    w = np.where(w <= -np.pi + 1e-9, w + 2.0 * np.pi, w)
    return center + w


def wrapped_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max-norm distance between angle vectors modulo 2*pi per coordinate."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    w = np.mod(d + np.pi, 2.0 * np.pi) - np.pi
    return float(np.max(np.abs(w)))


def _distinct(roots: np.ndarray) -> np.ndarray:
    """Greedy 1e-6 dedup (modulo 2*pi) of roots rounded to 1e-12.

    The rounded rows are taken in lexicographic order; each kept row drops
    every later row within 1e-6 of it, so boundary pairs (-pi / +pi) are one
    point.  One pass per distinct root.
    """
    rows = np.unique(np.round(roots, 12), axis=0)
    kept = []
    while rows.shape[0]:
        kept.append(rows[0])
        w = np.mod(rows - rows[0] + np.pi, 2.0 * np.pi) - np.pi
        rows = rows[np.max(np.abs(w), axis=1) > 1e-6]
    return np.array(kept).reshape(-1, roots.shape[1])


def stationary_points(
    hm: HamiltonianModel,
    box: tuple[np.ndarray, np.ndarray] | None = None,
    grid_density: int = 40,
) -> list[EquilibriumPoint]:
    """All stationary points in the SEP-centered angle cell, classified.

    Starts a Newton run from each node of a grid over `box` (default: the
    anchor plus/minus 2*pi in every modeled angle); a start whose residual
    stalls for `_STALL` iterations is retired.  The converged roots are
    wrapped into the canonical cell and deduplicated at 1e-6, and each
    distinct root is polished by a plain Newton run from its value rounded
    to 1e-6, so a returned point depends on its cluster only, not on which
    starts reached it.
    """
    gp = hm.gp
    m = gp.n_active
    center = np.asarray(hm.anchor, dtype=float)
    if box is None:
        box = (center - 2.0 * np.pi, center + 2.0 * np.pi)
    lo, hi = (np.asarray(b, dtype=float) for b in box)
    axes = [np.linspace(lo[i], hi[i], grid_density) for i in range(m)]
    mesh = np.meshgrid(*axes, indexing="ij")
    starts = np.stack([g.ravel() for g in mesh], axis=1)

    X, converged = _newton(hm.coupling, hm.drive, starts, max_iter=60, stall=_STALL)
    clusters = _distinct(_wrap_to_cell(X[converged], center))
    X, converged = _newton(hm.coupling, hm.drive, np.round(clusters, 6), max_iter=60)
    kept = _distinct(_wrap_to_cell(X[converged], center))

    points = []
    for r in kept:
        if np.max(np.abs(potential_gradient(hm, r))) > 1e-10:
            continue
        try:
            points.append(_equilibrium_point(hm, r))
        except EquilibriumError:
            continue  # marginal point exactly at a fold; unusable for typing
    points.sort(key=lambda p: tuple(np.round(p.delta, 9)))
    return points


def closest_uep(S: Sequence[EquilibriumPoint]) -> CriticalEnergy:
    """Minimum-energy type-1 saddle; non-type-1 entries are filtered out."""
    type1 = [p for p in S if p.type_index == 1]
    if not type1:
        raise EquilibriumError("no energy boundary: type-1 UEP set is empty")
    best = min(type1, key=lambda p: (p.energy, tuple(np.round(p.delta, 9))))
    return CriticalEnergy(closest_uep=best, E_c=best.energy)


# ---------------------------------------------------------------------------
# Natural-parameter continuation
# ---------------------------------------------------------------------------

ModelFactory = Callable[[float], HamiltonianModel]


@dataclass
class Branch:
    """One traced solution branch: ordered (parameter, equilibrium) samples."""

    points: list[tuple[float, EquilibriumPoint]] = field(default_factory=list)
    folds: list[float] = field(default_factory=list)

    @property
    def params(self) -> np.ndarray:
        return np.array([p for p, _ in self.points])

    def nearest(self, param: float) -> tuple[float, EquilibriumPoint]:
        k = int(np.argmin(np.abs(self.params - param)))
        return self.points[k]

    def covers(self, param: float, slack: float) -> bool:
        ps = self.params
        return bool(ps.min() - slack <= param <= ps.max() + slack)


def _correct(hm: HamiltonianModel, guess: np.ndarray, jump_guard: float = 0.45) -> EquilibriumPoint | None:
    """Newton-correct a predicted point on `hm`; None on failure or jump."""
    X, converged = _newton(hm.coupling, hm.drive, np.asarray(guess, dtype=float)[None, :], max_iter=25)
    if not converged[0]:
        return None
    root = X[0]
    if np.max(np.abs(root - guess)) > jump_guard:
        return None
    try:
        return _equilibrium_point(hm, root)
    except EquilibriumError:
        return None


def _trace(
    factory: ModelFactory,
    p0: float,
    point0: EquilibriumPoint,
    p_stop: float,
    initial_step: float,
    fold_tol: float = 1e-4,
    step_floor: float = 1e-5,
) -> Branch:
    """Trace one branch from (p0, point0) towards p_stop."""

    def correct(param: float, guess: np.ndarray) -> EquilibriumPoint | None:
        try:
            hm = factory(param)
        except (InadmissibleScenario, EquilibriumError):
            return None
        return _correct(hm, guess)

    branch = Branch(points=[(p0, point0)])
    direction = 1.0 if p_stop >= p0 else -1.0
    step = initial_step
    p_prev, d_prev = p0, point0.delta
    last_type = point0.type_index
    p_prev2: float | None = None
    d_prev2: np.ndarray | None = None

    while direction * (p_stop - p_prev) > 1e-12:
        p_next = p_prev + direction * min(step, abs(p_stop - p_prev))
        if p_prev2 is not None and abs(p_prev - p_prev2) > 1e-14:
            slope = (d_prev - d_prev2) / (p_prev - p_prev2)
            guess = d_prev + slope * (p_next - p_prev)
        else:
            guess = d_prev
        point = correct(p_next, guess)
        if point is not None:
            branch.points.append((p_next, point))
            p_prev2, d_prev2 = p_prev, d_prev
            p_prev, d_prev = p_next, point.delta
            last_type = point.type_index
            step = min(step * 1.5, initial_step)
            continue
        if step > step_floor:
            step = max(step / 2.0, step_floor)
            continue
        # persistent corrector failure at the floor: bracket the end point
        lo, hi = p_prev, p_next
        try:
            factory(p_next)
            domain_edge = False
        except InadmissibleScenario as exc:
            # a model that dies because its SEP vanished is the SEP branch
            # folding, not a domain edge
            domain_edge = not (exc.code == "no-sep" and last_type == 0)
        except EquilibriumError:
            domain_edge = last_type != 0
        while abs(hi - lo) > fold_tol:
            mid = 0.5 * (lo + hi)
            point = correct(mid, d_prev)
            if point is not None:
                branch.points.append((mid, point))
                p_prev, d_prev = mid, point.delta
                last_type = point.type_index
                lo = mid
            else:
                hi = mid
        if not domain_edge:
            branch.folds.append(0.5 * (lo + hi))
        break
    return branch


def continue_branch(
    source,
    prange: tuple[float, float],
    initial_step: float = 0.05,
    param: str | None = None,
) -> list[Branch]:
    """Trace all equilibrium branches over a load-parameter range.

    `source` is either a model factory (parameter value -> anchored model) or
    a fault scenario, in which case `param` selects the swept shunt-load
    component ("<bus>.G" / "<bus>.B").  Seeds come from a full enumeration at
    the range start, re-enumerated at every _CHECKPOINT_STEP of the range to
    pick up disconnected branches; every new seed is traced in both directions.
    Fold locations are refined to 1e-4 in the parameter.  Raises ValueError
    unless lo < hi are finite and initial_step is positive and finite.
    """
    lo, hi = prange
    if not -np.inf < lo < hi < np.inf:
        raise ValueError(f"parameter range {prange}: need finite lo < hi")
    if not 0.0 < initial_step < np.inf:
        raise ValueError(f"initial step {initial_step!r}: must be positive and finite")
    if callable(source):
        factory: ModelFactory = source
    else:
        if param is None:
            raise ValueError("a parameter path is required when passing a scenario")
        from .faultstudy import hamiltonian_model_factory
        from .sweep import parse_param_path

        bus, part = parse_param_path(source, param)
        factory = hamiltonian_model_factory(source, bus, part)
    branches: list[Branch] = []

    def is_covered(hm: HamiltonianModel, param: float, delta: np.ndarray) -> bool:
        # comparisons are modulo 2*pi: traced branches are left unwrapped for
        # continuity while enumeration wraps into the SEP-centered cell
        for br in branches:
            if not br.covers(param, slack=initial_step):
                continue
            p_near, pt = br.nearest(param)
            if abs(p_near - param) <= 1e-12 and wrapped_distance(pt.delta, delta) <= 1e-6:
                return True
            refit = _correct(hm, pt.delta)
            if refit is not None and wrapped_distance(refit.delta, delta) <= 1e-6:
                return True
        return False

    checkpoints = np.arange(lo, hi + 1e-12, (hi - lo) * _CHECKPOINT_STEP)
    for cp in checkpoints:
        try:
            hm = factory(float(cp))
        except (InadmissibleScenario, EquilibriumError):
            continue
        for seed in stationary_points(hm):
            if is_covered(hm, float(cp), seed.delta):
                continue
            fwd = _trace(factory, float(cp), seed, hi, initial_step)
            bwd = _trace(factory, float(cp), seed, lo, initial_step)
            merged = Branch(
                points=list(reversed(bwd.points[1:])) + fwd.points,
                folds=bwd.folds + fwd.folds,
            )
            branches.append(merged)
    return branches


def fold_locations(branches: Sequence[Branch]) -> list[float]:
    """Pooled fold parameter values, deduplicated across branch ends."""
    raw = sorted(f for br in branches for f in br.folds)
    out: list[float] = []
    for f in raw:
        if not out or abs(f - out[-1]) > _FOLD_MERGE:
            out.append(f)
    return out
