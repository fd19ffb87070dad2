"""Stationary points of the conservative post-fault system.

SEP location solves the anchored field self-consistently (the frozen
conductance power depends on the equilibrium it anchors).  Saddles come from
a batched multi-start Newton over a grid around the SEP, wrapped into the
2*pi cell centered on it; the lowest type-1 saddle defines the critical
energy.  Branches of equilibria under a load-parameter change are traced by
a natural-parameter predictor/corrector that halves its step at a fold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Sequence

import numpy as np

from .energy import HamiltonianModel, _Rows, _rows, potential
from .errors import EquilibriumError, InadmissibleScenario, ScenarioFormatError
from .netmodel import ReducedNetwork
from .swing import Coupling, GeneratorParams

_EIG_AXIS_TOL = 1e-9
_NEWTON_TOL = 1e-12
#: iterations of every Newton run: on the bundled case's load ranges the
#: starts that converge at all do so within 20 iterations
_NEWTON_ITER = 25
#: a Newton run retires a start whose best residual has not improved for
#: this many iterations
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
#: steps halve down to _STEP_FLOOR; a failed step there ends the branch, a fold at its midpoint
_STEP_FLOOR = 1e-5


def _newton(coupling: Coupling, drive: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on power = drive from a (k, m) stack of starts, for at
    most _NEWTON_ITER iterations.

    `drive` is one (m,) input for every row, or a (k, m) stack of them; a
    stacked kernel (`Coupling.stack`) evaluates row i on its network i.
    Steps are capped at 1 rad in the max norm.  A start stops once its
    residual is within _NEWTON_TOL and is dropped when its Jacobian is (near)
    singular, when its iterate leaves the finite numbers, or when its best
    residual (max norm) has not improved for _STALL iterations.  Returns the
    iterates and the mask of converged starts; each row's result is
    independent of the others in the stack.
    """
    X = np.array(starts, dtype=float)
    converged = np.zeros(X.shape[0], dtype=bool)
    # the live rows: their indices into X, iterates, drives, kernel and stall state
    work, Xw, Dw, kernel = np.arange(X.shape[0]), X, np.empty_like(X), coupling
    Dw[:] = drive
    best, idle = np.full(X.shape[0], np.inf), np.zeros(X.shape[0], dtype=int)
    for _ in range(_NEWTON_ITER):
        P, J = kernel.power_jacobian(Xw)
        R = np.subtract(Dw, P, order="F")  # column-major like P, which the row maximum reads faster
        res = np.abs(R).max(axis=1)
        done = res <= _NEWTON_TOL
        converged[work[done]] = True
        improved = res < best
        best = np.where(improved, res, best)
        idle = np.where(improved, 0, idle + 1)
        keep = ~done & (np.abs(np.linalg.det(J)) > 1e-14) & (idle < _STALL)
        if not keep.all():
            if not keep.any():
                break
            work, Xw, Dw, J, R, best, idle = work[keep], Xw[keep], Dw[keep], J[keep], R[keep], best[keep], idle[keep]
            kernel = coupling.take(work)
        step = np.linalg.solve(J, R[:, :, None])[:, :, 0]
        norms = np.abs(step).max(axis=1, keepdims=True)
        Xw = Xw + step * (1.0 / np.maximum(norms, 1.0))
        finite = np.isfinite(Xw).all(axis=1)
        if not finite.all():
            work, Xw, Dw, best, idle = work[finite], Xw[finite], Dw[finite], best[finite], idle[finite]
            kernel = coupling.take(work)
        X[work] = Xw
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


def _classified(
    hm: HamiltonianModel | _Rows, deltas: np.ndarray
) -> tuple[list[EquilibriumPoint | None], np.ndarray]:
    """The stationary points of hm at the rows of a (k, m) stack, classified
    as one stack (`_typed`), and the potential gradient at each row."""
    deltas = np.array(deltas, dtype=float).reshape(-1, hm.gp.n_active)
    P, J = hm.coupling.power_jacobian(deltas)
    return _typed(hm, deltas, J), P - hm.drive


def _typed(hm: HamiltonianModel | _Rows, deltas: np.ndarray, jacobian: np.ndarray) -> list[EquilibriumPoint | None]:
    """The stationary points of hm at the rows of a (k, m) stack, given the
    anchored Jacobian at each, classified as one stack: each row gets the
    bits it gets alone, or None when it is marginal (an eigenvalue at the
    origin)."""
    m = deltas.shape[1]
    A = np.zeros((deltas.shape[0], 2 * m, 2 * m))
    A[:, :m, m:] = np.eye(m)
    A[:, m:, :m] = -((1.0 / hm.gp.M)[:, None] * jacobian)
    # energy is always that of the canonical-cell representative, so traced
    # (unwrapped) points stay comparable with enumerated ones
    energies = potential(hm, _wrap_to_cell(deltas, np.asarray(hm.anchor, dtype=float)))
    spectra = np.linalg.eigvals(A)
    marginal = ((np.abs(spectra.real) <= _EIG_AXIS_TOL) & (np.abs(spectra.imag) <= _EIG_AXIS_TOL)).any(axis=1)
    types = (spectra.real > _EIG_AXIS_TOL).sum(axis=1)
    points: list[EquilibriumPoint | None] = []
    for delta, spectrum, energy, t, off in zip(deltas, spectra, energies, types.tolist(), marginal):
        # a stack is complex when any row is; a row keeps the dtype one eigvals call gives it
        if not spectrum.imag.any():
            spectrum = spectrum.real
        points.append(None if off else EquilibriumPoint(delta, float(energy), t, spectrum))
    return points


def find_seps(
    reds: Sequence[ReducedNetwork],
    gps: Sequence[GeneratorParams],
    guess: np.ndarray,
) -> list[tuple[EquilibriumPoint, HamiltonianModel] | EquilibriumError]:
    """`find_sep` of each network reds[k] with its generators gps[k] (of the
    same machines), from one guess, as one stack.

    One Newton run covers every network, each row with its own drive, and
    one classification types all the roots.  Each network gets the bits it
    gets alone, or the EquilibriumError find_sep raises for it.
    """
    guess = np.asarray(guess, dtype=float)
    kernels = [Coupling(red, gp.active) for red, gp in zip(reds, gps)]
    Pm = np.array([gp.Pm for gp in gps])
    stacked = Coupling.stack(kernels)
    X, converged = _newton(stacked, Pm, np.tile(guess, (len(gps), 1)))
    out: list = [None if ok else EquilibriumError("SEP Newton did not converge") for ok in converged]
    inside = converged & (np.abs(X - guess).max(axis=1) < np.pi)
    for k in np.flatnonzero(converged & ~inside):
        out[k] = EquilibriumError("Newton left the principal cell of the initial guess")
    rows = np.flatnonzero(inside)
    if not rows.size:
        return out
    kernel = stacked if rows.size == len(kernels) else stacked.take(rows)
    anchors = X[rows]
    Pa = kernel.conductance(anchors)
    stack = _Rows(kernel.anchored(), Pm[rows] - Pa, anchors, gps[0])
    P, J = stack.coupling.power_jacobian(anchors)
    residual = np.abs(P - stack.drive).max(axis=1)
    points = _typed(stack, np.array(anchors), J)
    for i, k in enumerate(rows):
        if residual[i] > 1e-10:
            out[k] = EquilibriumError("anchored residual check failed at the SEP")
        elif points[i] is None:
            out[k] = EquilibriumError("marginal equilibrium: eigenvalue at the origin")
        elif points[i].type_index != 0:
            out[k] = EquilibriumError(f"converged point is type-{points[i].type_index}, not a SEP")
        else:
            hm = HamiltonianModel(reds[k], gps[k], Pa[i], anchors[i], kernels[k].anchored())
            out[k] = (points[i], hm)
    return out


def find_sep(
    red: ReducedNetwork,
    gp: GeneratorParams,
    guess: np.ndarray,
) -> tuple[EquilibriumPoint, HamiltonianModel]:
    """Locate the stable post-fault equilibrium and its anchored model.

    The anchored field with the anchor at its own equilibrium has the same
    residual as the exact field, so the joint fixed point (equilibrium plus
    frozen conductance power) is found in one Newton run on the exact field
    (`find_seps` of one network).
    """
    (found,) = find_seps([red], [gp], guess)
    if isinstance(found, EquilibriumError):
        raise found
    return found


def _wrap_to_cell(delta: np.ndarray, center: np.ndarray) -> np.ndarray:
    # subtract whole turns only, so in-cell coordinates pass through bit-exact;
    # the lower cell edge belongs to the +pi side (half-open cell)
    d = delta - center
    w = d - 2.0 * np.pi * np.rint(d / (2.0 * np.pi))
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
    1e-6), each polished by a Newton run from its value rounded to 1e-6,
    sorted by angle."""
    X, converged = _newton(hm.coupling, hm.drive, np.round(_distinct(roots), 6))
    found, gradient = _classified(hm, _distinct(_wrap_to_cell(X[converged], center)))
    # None: a marginal point exactly at a fold, unusable for typing
    points = [p for p, g in zip(found, gradient) if p is not None and not np.abs(g).max() > 1e-10]
    points.sort(key=lambda p: tuple(np.round(p.delta, 9)))
    return points


def _seeded_points(
    hm: HamiltonianModel,
    center: np.ndarray,
    seeds: Sequence[EquilibriumPoint],
    probes: tuple[np.ndarray, np.ndarray],
) -> list[EquilibriumPoint] | None:
    """The points the seeds converge to, or None when that set is in doubt.

    Newton runs from the seeds, and their roots are polished as in the full
    enumeration.  `probes` holds the Newton run (iterates, converged mask)
    of a coarse grid, _COARSE per axis over the enumeration box, which only
    checks them.  In doubt means: a seed does not converge, a coarse start
    reaches a root no seed reached, or the closest type-1 saddle is not the
    root of the seeds' closest saddle.
    """
    X, converged = _newton(hm.coupling, hm.drive, np.array([s.delta for s in seeds]))
    if not converged.all():
        return None
    roots = _wrap_to_cell(X, center)
    found = _wrap_to_cell(probes[0][probes[1]], center)
    if np.any(np.min(wrapped_distance(found[:, None, :], roots[None, :, :]), axis=1) > 1e-6):
        return None
    points = _polish(hm, center, roots)
    before, after = _closest_saddle(seeds), _closest_saddle(points)
    if before is None and after is None:
        return points
    if before is None or after is None or wrapped_distance(roots[before], points[after].delta) > 1e-6:
        return None
    return points


def _coarse_probes(models: Sequence[HamiltonianModel]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per model, the Newton run (iterates, converged mask) of the coarse grid
    over its default box, all models as one stack with a network and a drive
    per row: each gets the bits of its own run (see `stationary_points`)."""
    if not models:
        return []
    stack = _rows(models)
    grids = [_grid(a - 2.0 * np.pi, a + 2.0 * np.pi, _COARSE) for a in stack.anchor]
    rows = stack.take(np.repeat(np.arange(len(models)), len(grids[0])))
    X, converged = _newton(rows.coupling, rows.drive, np.concatenate(grids))
    return list(zip(np.split(X, len(models)), np.split(converged, len(models))))


def stationary_points(
    hm: HamiltonianModel,
    box: tuple[np.ndarray, np.ndarray] | None = None,
    grid_density: int = 40,
    seeds: Sequence[EquilibriumPoint] | None = None,
    probes: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[EquilibriumPoint]:
    """All stationary points in the SEP-centered angle cell, classified.

    Starts a Newton run from each node of a grid over `box` (default: the
    anchor plus/minus 2*pi in every modeled angle), grid_density per axis
    but at most _START_BUDGET nodes in all.  The converged roots are wrapped
    into the canonical cell and deduplicated at 1e-6, and each distinct
    root is polished by a Newton run from its value rounded to 1e-6,
    so a returned point depends on its cluster only, not on which starts
    reached it.

    With `seeds` (the points of a nearby model, such as the previous point
    of a load sweep), the points are those the seeds converge to, checked
    by the Newton run of a coarse grid over `box`; the full grid runs only
    when that check leaves them in doubt (see `_seeded_points`).  `probes`
    holds the coarse grid's run when it was made ahead (`_coarse_probes`);
    without it, the grid runs here.
    """
    center = np.asarray(hm.anchor, dtype=float)
    if box is None:
        box = (center - 2.0 * np.pi, center + 2.0 * np.pi)
    box = tuple(np.asarray(b, dtype=float) for b in box)
    if seeds:
        if probes is None:
            probes = _newton(hm.coupling, hm.drive, _grid(*box, _COARSE))
        points = _seeded_points(hm, center, seeds, probes)
        if points is not None:
            return points
    X, converged = _newton(hm.coupling, hm.drive, _grid(*box, grid_density))
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

#: a model factory maps a parameter value to its anchored model; one that
#: also has `models(values)` builds many values as one stack (`_builder`)
ModelFactory = Callable[[float], HamiltonianModel]
#: what a build gives for a value: the model, or the exception a factory raises there
Built = HamiltonianModel | InadmissibleScenario | EquilibriumError


def _builder(factory: ModelFactory) -> Callable[[Sequence[float]], list[Built]]:
    """The factory's `models(values)`: for each value its model or the
    InadmissibleScenario or EquilibriumError the factory raises there (any
    other exception propagates).  A factory without one is called per value."""
    models = getattr(factory, "models", None)
    if models is not None:
        return models

    def one_by_one(values: Sequence[float]) -> list[Built]:
        out: list[Built] = []
        for value in values:
            try:
                out.append(factory(value))
            except (InadmissibleScenario, EquilibriumError) as exc:
                out.append(exc.with_traceback(None))    # kept as a value: its traceback holds this frame
        return out

    return one_by_one


@dataclass
class Branch:
    """One traced solution branch: ordered (parameter, equilibrium) samples."""

    points: list[tuple[float, EquilibriumPoint]] = field(default_factory=list)
    folds: list[float] = field(default_factory=list)


def _correct_rows(models: Sequence[HamiltonianModel], guesses: np.ndarray) -> list[EquilibriumPoint | None]:
    """Newton-correct a (k, m) stack of predicted points, row i on
    models[i], as one stack.

    A row is None when its Newton run fails or its root lies more than
    _JUMP_GUARD from its guess; each row gets the bits it gets alone.
    """
    if not models:
        return []
    stack = _rows(models)
    X, converged = _newton(stack.coupling, stack.drive, guesses)
    rows = converged.nonzero()[0]
    rows = rows[np.abs(X[rows] - guesses[rows]).max(axis=1) <= _JUMP_GUARD]
    points: list[EquilibriumPoint | None] = [None] * len(guesses)
    if rows.size:
        found, _gradient = _classified(stack if rows.size == len(models) else stack.take(rows), X[rows])
        for i, point in zip(rows, found):
            points[i] = point
    return points


#: what a tracer is sent back for a request: the corrected point, None when
#: the corrector fails or jumps, or the exception the factory raised there
Answer = EquilibriumPoint | InadmissibleScenario | EquilibriumError | None
Tracer = Generator[tuple[float, np.ndarray, list[float]], Answer, None]


def _trace(branch: Branch, p_stop: float, initial_step: float) -> Tracer:
    """Trace a branch from its one point towards p_stop.

    A generator: it yields each (param, guess, ahead) it needs corrected and
    is sent the answer at param (see `_round`); `ahead` holds the values it
    asks for next if every answer is a point, bit for bit, as many as it has
    accepted steps in a row.  Accepted points, which move monotonically
    towards p_stop, are added to `branch` as they are found.

    A failed step is halved down to _STEP_FLOOR.  A failure there ends the
    branch, at a fold unless the factory's answer at the failed value marks a
    domain edge; the fold is the midpoint of that last step, so it lies
    within _STEP_FLOOR / 2 of the branch's last point.
    """
    p0, point0 = branch.points[0]
    direction = 1.0 if p_stop >= p0 else -1.0
    step = initial_step
    p_prev, d_prev = p0, point0.delta
    last_type = point0.type_index
    p_prev2: float | None = None
    d_prev2: np.ndarray | None = None
    accepted = 0

    def after(p: float, s: float) -> float | None:
        # the value asked for after p at step s; None at p_stop, which is reached within a
        # tiny fraction of the step, so that a range far narrower than 1e-12 is traced too
        if direction * (p_stop - p) > 1e-10 * initial_step:
            return p + direction * min(s, abs(p_stop - p))
        return None

    while (p_next := after(p_prev, step)) is not None:
        if p_prev2 is not None and abs(p_prev - p_prev2) > 1e-14:
            slope = (d_prev - d_prev2) / (p_prev - p_prev2)
            guess = d_prev + slope * (p_next - p_prev)
        else:
            guess = d_prev
        ahead, p, s = [], p_next, step
        for _ in range(accepted):
            s = min(s * 1.5, initial_step)
            if (p := after(p, s)) is None:
                break
            ahead.append(p)
        answer = yield p_next, guess, ahead
        if isinstance(answer, EquilibriumPoint):
            branch.points.append((p_next, answer))
            p_prev2, d_prev2 = p_prev, d_prev
            p_prev, d_prev = p_next, answer.delta
            last_type = answer.type_index
            step = min(step * 1.5, initial_step)
            accepted += 1
            continue
        accepted = 0
        if step > _STEP_FLOOR:
            step = max(step / 2.0, _STEP_FLOOR)
            continue
        # the factory's answer at p_next tells a fold from a domain edge: a model that
        # dies because its SEP vanished is the SEP branch folding
        if isinstance(answer, InadmissibleScenario):
            fold = answer.code == "no-sep" and last_type == 0
        else:
            fold = last_type == 0 or not isinstance(answer, EquilibriumError)
        if fold:
            branch.folds.append(0.5 * (p_prev + p_next))
        break


def _round(
    build: Callable[[Sequence[float]], list[Built]], requests: dict[float, list[tuple[int, np.ndarray]]]
) -> dict[int, Answer]:
    """The answers to one round of requests (parameter value -> its
    (tracer, guess) pairs), by tracer.

    The models of all values are built as one stack, one per value, and all
    guesses at all values are corrected as one Newton stack.  A build
    exception at a value answers every request there.
    """
    answers: dict[int, Answer] = {}
    rows = []
    for value, model in zip(requests, build(list(requests))):
        for i, guess in requests[value]:
            if isinstance(model, HamiltonianModel):
                rows.append((i, model, guess))
            else:
                answers[i] = model
    if rows:
        points = _correct_rows([model for _i, model, _guess in rows], np.array([guess for *_, guess in rows]))
        answers.update((i, point) for (i, _model, _guess), point in zip(rows, points))
    return answers


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
    refits = _correct_rows([hm] * len(near), np.array([pt.delta for _p, pt in near]).reshape(-1, m))
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
    directions.

    Every checkpoint's model is built first, in one build, and their coarse
    probes run as one Newton stack (`_coarse_probes`).  All branches are
    traced together, in rounds (`_round`): one model per parameter value per
    round, shared by every branch that asks for it, and one Newton stack for
    all their guesses.  A factory with `models(values)` builds a value that
    a round misses together with the values its requesters announce
    (`_trace`), some of which no branch asks for in the end; any other
    factory is called once per value asked for.  A checkpoint's new seeds
    (those on no earlier checkpoint's branch, `_uncovered`) join the running
    rounds as soon as every forward trace from an earlier checkpoint has
    passed it or ended: from then on, the point of that branch nearest to
    the checkpoint is final.  A factory must therefore be a pure function of
    the value.  A branch ends where a step of _STEP_FLOOR fails, and a fold
    there is recorded at the midpoint of that step (`_trace`).  Raises
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
    build = _builder(factory)
    spacing = (hi - lo) * _CHECKPOINT_STEP
    checkpoints = [float(cp) for cp in np.arange(lo, hi + 0.5 * spacing, spacing)]
    at_checkpoint = build(checkpoints)
    probes = iter(_coarse_probes([hm for hm in at_checkpoint if isinstance(hm, HamiltonianModel)]))
    # per tracer: its branch half, its generator and whether it has ended;
    # tracers come in pairs per seed, forward (towards hi) first
    halves: list[Branch] = []
    tracers: list[Tracer] = []
    ended: list[bool] = []
    points = None
    k = 0
    # models built before they are asked for; per value of this round, what its requesters announced
    built: dict[float, Built] = {}
    ahead: dict[float, list[float]] = {}

    def build_round(values: Sequence[float]) -> list[Built]:
        """The models of the values, a stacked factory's with what their requesters announced."""
        missing = [v for v in values if v not in built]
        if missing:
            extra = [a for v in missing for a in ahead[v] if a not in built] if hasattr(factory, "models") else []
            fresh = list(dict.fromkeys(missing + extra))
            built.update(zip(fresh, build(fresh)))
        return [built.pop(v) for v in values]

    answers: dict[int, Answer] = {}
    requests: dict[float, list[tuple[int, np.ndarray]]] = {}
    while True:
        for i, answer in answers.items():
            try:
                value, guess, announced = tracers[i].send(answer)
            except StopIteration:
                ended[i] = True
                continue
            requests.setdefault(value, []).append((i, guess))
            ahead.setdefault(value, []).extend(announced)
        answers = {}
        # seed the next checkpoint once every forward trace from an earlier one has passed it or ended
        while not answers and k < len(checkpoints) and all(
            ended[i] or halves[i].points[-1][0] >= checkpoints[k] for i in range(0, len(halves), 2)
        ):
            cp, hm = checkpoints[k], at_checkpoint[k]
            k += 1
            if not isinstance(hm, HamiltonianModel):
                points = None
                continue
            points = stationary_points(hm, seeds=points, probes=next(probes))
            for seed in _uncovered(hm, cp, points, halves[::2], initial_step):
                for end in (hi, lo):
                    answers[len(tracers)] = None
                    halves.append(Branch(points=[(cp, seed)]))
                    tracers.append(_trace(halves[-1], end, initial_step))
                    ended.append(False)
        if answers:
            # the new tracers ask first: one that ends at once may let the next checkpoint in
            continue
        if not requests:
            break
        answers, requests = _round(build_round, requests), {}
        ahead.clear()
    return [
        Branch(points=list(reversed(bwd.points[1:])) + fwd.points, folds=bwd.folds + fwd.folds)
        for fwd, bwd in zip(halves[::2], halves[1::2])
    ]


def fold_locations(branches: Sequence[Branch]) -> list[float]:
    """Pooled fold parameter values, deduplicated across branch ends: folds
    closer than _FOLD_MERGE count as one, the lowest."""
    raw = sorted(f for br in branches for f in br.folds)
    out: list[float] = []
    for f in raw:
        if not out or abs(f - out[-1]) > _FOLD_MERGE:
            out.append(f)
    return out
