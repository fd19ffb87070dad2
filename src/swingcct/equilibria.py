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
from typing import Callable, Generator, Sequence

import numpy as np

from .energy import HamiltonianModel, potential, potential_gradient
from .errors import EquilibriumError, InadmissibleScenario, ScenarioFormatError
from .netmodel import ReducedNetwork
from .swing import Coupling, GeneratorParams

_EIG_AXIS_TOL = 1e-9
_NEWTON_TOL = 1e-12
#: iterations of every Newton run: on the bundled case's load ranges the
#: starts that converge at all do so within 20 iterations
_NEWTON_ITER = 25
#: stationary_points retires a grid start whose best residual has not
#: improved for this many Newton iterations
_STALL = 3
#: most Newton starts one enumeration grid may hold (40 per axis at m = 3)
_START_BUDGET = 64000
#: points per axis of the coarse grid that checks a seeded enumeration
_COARSE = 6
#: continue_branch re-enumerates at every this fraction of its range
_CHECKPOINT_STEP = 0.05
#: fold_locations pools folds closer than this in the parameter
_FOLD_MERGE = 0.02
#: a corrected branch point may lie at most this far (max norm) from its guess
_JUMP_GUARD = 0.45
#: a branch trace halves its step down to _STEP_FLOOR, then brackets its end to _FOLD_TOL
_STEP_FLOOR, _FOLD_TOL = 1e-5, 1e-4


def _newton(
    coupling: Coupling,
    drive: np.ndarray,
    starts: np.ndarray,
    stall: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on power = drive from a (k, m) stack of starts, for at
    most _NEWTON_ITER iterations.

    Steps are capped at 1 rad in the max norm.  A start stops once its
    residual is within _NEWTON_TOL and is dropped when its Jacobian is (near)
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
    for _ in range(_NEWTON_ITER):
        if work.size == 0:
            break
        Xw = X[work]
        R = drive - coupling.power(Xw)
        res = np.max(np.abs(R), axis=1)
        done = res <= _NEWTON_TOL
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
    m = hm.gp.n_active
    H = hm.coupling.jacobian(delta)
    Minv = 1.0 / hm.gp.M
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
    X, converged = _newton(kernel, gp.Pm, guess[None, :])
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


def wrapped_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Max-norm distance between angle vectors modulo 2*pi per coordinate,
    over the last axis of the broadcast a - b."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return np.max(np.abs(np.mod(d + np.pi, 2.0 * np.pi) - np.pi), axis=-1)


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
        rows = rows[wrapped_distance(rows, rows[0]) > 1e-6]
    return np.array(kept).reshape(-1, roots.shape[1])


def _density(m: int, grid_density: int) -> int:
    """Points per axis of an m-dimensional start grid: grid_density, capped
    so that the grid holds at most _START_BUDGET starts."""
    # the m-th root in integers: in floats 64000 ** (1 / 3) is 39.999...
    d = round(_START_BUDGET ** (1.0 / m))
    while d**m > _START_BUDGET:
        d -= 1
    while (d + 1) ** m <= _START_BUDGET:
        d += 1
    return min(grid_density, d)


def _grid(lo: np.ndarray, hi: np.ndarray, grid_density: int) -> np.ndarray:
    """The nodes of an evenly spaced grid over the box [lo, hi], one per row."""
    d = _density(lo.size, grid_density)
    mesh = np.meshgrid(*(np.linspace(a, b, d) for a, b in zip(lo, hi)), indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def _polish(hm: HamiltonianModel, center: np.ndarray, roots: np.ndarray) -> list[EquilibriumPoint]:
    """Classified points of the distinct in-cell `roots` (deduplicated at
    1e-6), each polished by a plain Newton run from its value rounded to
    1e-6, sorted by angle."""
    X, converged = _newton(hm.coupling, hm.drive, np.round(_distinct(roots), 6))
    points = []
    for r in _distinct(_wrap_to_cell(X[converged], center)):
        if np.max(np.abs(potential_gradient(hm, r))) > 1e-10:
            continue
        try:
            points.append(_equilibrium_point(hm, r))
        except EquilibriumError:
            continue  # marginal point exactly at a fold; unusable for typing
    points.sort(key=lambda p: tuple(np.round(p.delta, 9)))
    return points


def _seeded_points(
    hm: HamiltonianModel,
    center: np.ndarray,
    box: tuple[np.ndarray, np.ndarray],
    seeds: Sequence[EquilibriumPoint],
) -> list[EquilibriumPoint] | None:
    """The points the seeds converge to, or None when that set is in doubt.

    One Newton stack runs from the seeds and from a coarse grid (_COARSE per
    axis) under the stall rule.  The seeds' roots are polished as in the full
    enumeration; the coarse grid only checks them.  In doubt means: a seed
    does not converge, a coarse start reaches a root no seed reached, or the
    closest type-1 saddle is not the root of the seeds' closest saddle.
    """
    k = len(seeds)
    starts = np.concatenate([np.array([s.delta for s in seeds]), _grid(*box, _COARSE)])
    X, converged = _newton(hm.coupling, hm.drive, starts, stall=_STALL)
    if not converged[:k].all():
        return None
    roots = _wrap_to_cell(X[:k], center)
    probes = _wrap_to_cell(X[k:][converged[k:]], center)
    if np.any(np.min(wrapped_distance(probes[:, None, :], roots[None, :, :]), axis=1) > 1e-6):
        return None
    points = _polish(hm, center, roots)
    before, after = _closest_saddle(seeds), _closest_saddle(points)
    if before is None and after is None:
        return points
    if before is None or after is None or wrapped_distance(roots[before], points[after].delta) > 1e-6:
        return None
    return points


def stationary_points(
    hm: HamiltonianModel,
    box: tuple[np.ndarray, np.ndarray] | None = None,
    grid_density: int = 40,
    seeds: Sequence[EquilibriumPoint] | None = None,
) -> list[EquilibriumPoint]:
    """All stationary points in the SEP-centered angle cell, classified.

    Starts a Newton run from each node of a grid over `box` (default: the
    anchor plus/minus 2*pi in every modeled angle), grid_density per axis
    but at most _START_BUDGET nodes in all; a start whose residual stalls
    for `_STALL` iterations is retired.  The converged roots are wrapped
    into the canonical cell and deduplicated at 1e-6, and each distinct
    root is polished by a plain Newton run from its value rounded to 1e-6,
    so a returned point depends on its cluster only, not on which starts
    reached it.

    With `seeds` (the points of a nearby model, such as the previous point
    of a load sweep), the points are those the seeds converge to, checked
    by a coarse grid; the full grid runs only when that check leaves them
    in doubt (see `_seeded_points`).
    """
    center = np.asarray(hm.anchor, dtype=float)
    if box is None:
        box = (center - 2.0 * np.pi, center + 2.0 * np.pi)
    box = tuple(np.asarray(b, dtype=float) for b in box)
    if seeds:
        points = _seeded_points(hm, center, box, seeds)
        if points is not None:
            return points
    X, converged = _newton(hm.coupling, hm.drive, _grid(*box, grid_density), stall=_STALL)
    return _polish(hm, center, _wrap_to_cell(X[converged], center))


def _closest_saddle(S: Sequence[EquilibriumPoint]) -> int | None:
    """Index of the minimum-energy type-1 saddle in S; None when S has none."""
    type1 = [i for i, p in enumerate(S) if p.type_index == 1]
    if not type1:
        return None
    return min(type1, key=lambda i: (S[i].energy, tuple(np.round(S[i].delta, 9))))


def closest_uep(S: Sequence[EquilibriumPoint]) -> CriticalEnergy:
    """Minimum-energy type-1 saddle; non-type-1 entries are filtered out."""
    best = _closest_saddle(S)
    if best is None:
        raise EquilibriumError("no energy boundary: type-1 UEP set is empty")
    return CriticalEnergy(closest_uep=S[best], E_c=S[best].energy)


# ---------------------------------------------------------------------------
# Natural-parameter continuation
# ---------------------------------------------------------------------------

ModelFactory = Callable[[float], HamiltonianModel]


@dataclass
class Branch:
    """One traced solution branch: ordered (parameter, equilibrium) samples."""

    points: list[tuple[float, EquilibriumPoint]] = field(default_factory=list)
    folds: list[float] = field(default_factory=list)


def _correct_rows(hm: HamiltonianModel, guesses: np.ndarray) -> list[EquilibriumPoint | None]:
    """Newton-correct a (k, m) stack of predicted points on `hm` as one stack.

    A row is None when its Newton run fails or its root lies more than
    _JUMP_GUARD from its guess; each row gets the bits it gets alone.
    """
    X, converged = _newton(hm.coupling, hm.drive, guesses)
    points: list[EquilibriumPoint | None] = []
    for root, guess, ok in zip(X, guesses, converged):
        point = None
        if ok and np.max(np.abs(root - guess)) <= _JUMP_GUARD:
            try:
                point = _equilibrium_point(hm, root)
            except EquilibriumError:
                pass
        points.append(point)
    return points


#: what a tracer is sent back for a request: the corrected point, None when
#: the corrector fails or jumps, or the exception the factory raised there
Answer = EquilibriumPoint | InadmissibleScenario | EquilibriumError | None
Tracer = Generator[tuple[float, np.ndarray], Answer, Branch]


def _trace(
    p0: float,
    point0: EquilibriumPoint,
    p_stop: float,
    initial_step: float,
) -> Tracer:
    """Trace one branch from (p0, point0) towards p_stop.

    A generator: it yields each (param, guess) it needs corrected, is sent
    the answer at that value, and returns the branch (see `_lockstep`).
    """
    branch = Branch(points=[(p0, point0)])
    direction = 1.0 if p_stop >= p0 else -1.0
    step = initial_step
    p_prev, d_prev = p0, point0.delta
    last_type = point0.type_index
    p_prev2: float | None = None
    d_prev2: np.ndarray | None = None

    # the end is reached within a tiny fraction of the step, so that a range
    # far narrower than 1e-12 is traced too
    while direction * (p_stop - p_prev) > 1e-10 * initial_step:
        p_next = p_prev + direction * min(step, abs(p_stop - p_prev))
        if p_prev2 is not None and abs(p_prev - p_prev2) > 1e-14:
            slope = (d_prev - d_prev2) / (p_prev - p_prev2)
            guess = d_prev + slope * (p_next - p_prev)
        else:
            guess = d_prev
        answer = yield p_next, guess
        if isinstance(answer, EquilibriumPoint):
            branch.points.append((p_next, answer))
            p_prev2, d_prev2 = p_prev, d_prev
            p_prev, d_prev = p_next, answer.delta
            last_type = answer.type_index
            step = min(step * 1.5, initial_step)
            continue
        if step > _STEP_FLOOR:
            step = max(step / 2.0, _STEP_FLOOR)
            continue
        # persistent corrector failure at the floor: bracket the end point;
        # the factory's answer at p_next tells a domain edge from a fold
        lo, hi = p_prev, p_next
        if isinstance(answer, InadmissibleScenario):
            # a model that dies because its SEP vanished is the SEP branch
            # folding, not a domain edge
            domain_edge = not (answer.code == "no-sep" and last_type == 0)
        elif isinstance(answer, EquilibriumError):
            domain_edge = last_type != 0
        else:
            domain_edge = False
        while abs(hi - lo) > _FOLD_TOL:
            mid = 0.5 * (lo + hi)
            answer = yield mid, d_prev
            if isinstance(answer, EquilibriumPoint):
                branch.points.append((mid, answer))
                p_prev, d_prev = mid, answer.delta
                last_type = answer.type_index
                lo = mid
            else:
                hi = mid
        if not domain_edge:
            branch.folds.append(0.5 * (lo + hi))
        break
    return branch


def _lockstep(factory: ModelFactory, tracers: Sequence[Tracer]) -> list[Branch]:
    """Run the tracers together; their branches, in order.

    Each round collects the request of every live tracer and groups the
    requests by exact parameter value: one model per value, and one Newton
    stack for all of its guesses.  A factory exception at a value answers
    every request there.  No model outlives its round.
    """
    done: dict[int, Branch] = {}
    answers: dict[int, Answer] = dict.fromkeys(range(len(tracers)))
    while answers:
        requests: dict[float, list[tuple[int, np.ndarray]]] = {}
        for i, answer in answers.items():
            try:
                param, guess = tracers[i].send(answer)
            except StopIteration as stop:
                done[i] = stop.value
                continue
            requests.setdefault(param, []).append((i, guess))
        answers = {}
        for param, asks in requests.items():
            try:
                hm = factory(param)
            except (InadmissibleScenario, EquilibriumError) as exc:
                answers.update((i, exc) for i, _guess in asks)
                continue
            points = _correct_rows(hm, np.array([guess for _i, guess in asks]))
            answers.update((i, point) for (i, _guess), point in zip(asks, points))
    return [done[i] for i in range(len(tracers))]


def _uncovered(
    hm: HamiltonianModel, cp: float, points: Sequence[EquilibriumPoint], branches: Sequence[Branch], reach: float
) -> list[EquilibriumPoint]:
    """The points of hm, the model at cp, that lie on none of the branches.

    Each branch reaching within `reach` of cp offers its point nearest to cp,
    and all of them are refit on hm as one stack.  A point is covered when it
    lies within 1e-6 of a refit or of an offered point at cp, modulo 2*pi:
    traced branches stay unwrapped while enumeration wraps into the cell.
    """
    near = []
    for br in branches:
        ps = np.array([p for p, _pt in br.points])
        if ps.min() - reach <= cp <= ps.max() + reach:
            near.append(br.points[int(np.argmin(np.abs(ps - cp)))])
    m = hm.gp.n_active
    refits = _correct_rows(hm, np.array([pt.delta for _p, pt in near]).reshape(-1, m))
    known = [pt.delta for p, pt in near if abs(p - cp) <= 1e-12] + [r.delta for r in refits if r is not None]
    known = np.array(known).reshape(-1, m)
    return [point for point in points if not np.any(wrapped_distance(known, point.delta) <= 1e-6)]


def continue_branch(
    source,
    prange: tuple[float, float],
    initial_step: float = 0.05,
    param: str | None = None,
) -> list[Branch]:
    """Trace all equilibrium branches over a load-parameter range.

    `source` is either a model factory (parameter value -> anchored model) or
    a fault scenario, which traces its `model_factory(param)`: `param` names
    the swept shunt-load component ("<bus>.G" / "<bus>.B").  Seeds come from
    an enumeration at every _CHECKPOINT_STEP of the range, which picks up
    disconnected branches; each checkpoint's enumeration is seeded by the
    points of the one before it.  Every new seed is traced in both
    directions, and all branches of one checkpoint are traced together
    (`_lockstep`): one model per parameter value per round, shared by every
    branch that asks for it.  A factory must therefore be a pure function of the value; it is
    called fewer times than there are traced points.
    Fold locations are refined to _FOLD_TOL in the parameter.  Raises
    ScenarioFormatError unless lo < hi are finite with a finite, nonzero
    checkpoint spacing and initial_step is positive and finite.
    """
    lo, hi = prange
    if not (-np.inf < lo < hi < np.inf and 0.0 < (hi - lo) * _CHECKPOINT_STEP < np.inf):
        raise ScenarioFormatError(f"parameter range {prange}: need finite lo < hi with a finite, nonzero width")
    if not 0.0 < initial_step < np.inf:
        raise ScenarioFormatError(f"initial step {initial_step!r}: must be positive and finite")
    if callable(source):
        factory: ModelFactory = source
    else:
        if param is None:
            raise ValueError("a parameter path is required when passing a scenario")
        factory = source.model_factory(param)
    branches: list[Branch] = []
    spacing = (hi - lo) * _CHECKPOINT_STEP
    checkpoints = np.arange(lo, hi + 0.5 * spacing, spacing)
    points = None
    for cp in map(float, checkpoints):
        try:
            hm = factory(cp)
        except (InadmissibleScenario, EquilibriumError):
            points = None
            continue
        points = stationary_points(hm, seeds=points)
        # every seed is checked before any is traced: a branch traced from
        # another seed here holds that seed's own exact point at cp, which
        # refits to itself, so it never covers this one
        fresh = _uncovered(hm, cp, points, branches, initial_step)
        traced = _lockstep(factory, [_trace(cp, seed, end, initial_step) for seed in fresh for end in (hi, lo)])
        for fwd, bwd in zip(traced[::2], traced[1::2]):
            branches.append(
                Branch(points=list(reversed(bwd.points[1:])) + fwd.points, folds=bwd.folds + fwd.folds)
            )
    return branches


def fold_locations(branches: Sequence[Branch]) -> list[float]:
    """Pooled fold parameter values, deduplicated across branch ends."""
    raw = sorted(f for br in branches for f in br.folds)
    out: list[float] = []
    for f in raw:
        if not out or abs(f - out[-1]) > _FOLD_MERGE:
            out.append(f)
    return out
