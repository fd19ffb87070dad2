"""Three-regime fault study: true CCT, energy CCT, analytic CCT, margin."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Callable, Mapping, Sequence

import numpy as np

from . import energy as en
from . import equilibria as eq
from . import netmodel as nm
from . import swing as sw
from .errors import EquilibriumError, InadmissibleScenario, IntegrationError, ScenarioFormatError, SingularNetworkError

UNBOUNDED = "unbounded"
#: verdict for tau and tau_H when the fault-on integration fails
INTEGRATION_FAILED = "integration-failed"

#: first-swing divergence threshold on pairwise angle excursions [rad]
DIVERGENCE_THRESHOLD = np.pi
#: pairs moving less than this never count as diverging-without-return [rad]
SMALL_SWING = 0.05
#: verdict rows true_cct aims at per round of admissions, one for every open
#: point: each open point admits the midpoints of its next `levels`
#: bisection steps, open points x (2^levels - 1) rows, levels at least 3
#: (at least 1 where the bracket is a guess past a running row)
ROWS_PER_ROUND = 32
#: post-fault observation window of a first-swing verdict [s]
WINDOW = 3.0
#: spacing of the samples a first-swing verdict checks [s]
SAMPLE_STEP = 0.005
#: the sample times of a first-swing verdict
_SAMPLES = np.append(np.arange(0.0, WINDOW, SAMPLE_STEP), WINDOW)
#: verdict rows a check folds at a time
_FOLD_ROWS = 128
#: points per chain of continued enumerations: run_studies seeds the
#: stationary points of each point with those of the one before it, except
#: at every CHAIN-th index
CHAIN = 20


@dataclass(frozen=True)
class FaultScenario:
    """One fault case: network, fault location, clearing action, operating point."""

    net: nm.BusNetwork
    fault_bus: str
    clearing_branch: str
    prefault_angles: Mapping[str, float]  # generator bus id -> rotor angle [rad]
    name: str = ""

    @property
    def frequency(self) -> float:
        return self.net.frequency

    def with_load(self, bus_id: str, Y: complex) -> "FaultScenario":
        return replace(self, net=nm.set_load(self.net, bus_id, Y))

    def model_factory(self, param: str) -> "eq.ModelFactory":
        """Post-fault model builder of the load parameter `param` (`hamiltonian_model_factory`)."""
        return hamiltonian_model_factory(self, param)


@dataclass(frozen=True)
class FaultStudyResult:
    """All stability metrics for one scenario; times carry verdict strings
    (or None) when a numeric value does not exist."""

    tau: float | str | None
    tau_H: float | str | None
    tau_A: float | str | None
    delta_E: float | None
    E_c: float | None
    closest_uep: eq.EquilibriumPoint | None
    admissible: bool
    verdicts: Mapping[str, str]
    #: why the scenario was rejected (the exception text), if it was
    message: str | None = None


@dataclass(frozen=True)
class StudyContext:
    """Prepared pipeline shared by the metric computations."""

    red_pre: nm.ReducedNetwork
    red_post: nm.ReducedNetwork
    gp: sw.GeneratorParams
    x_pre: np.ndarray     # packed pre-fault state [delta_pre; 0]
    sep: eq.EquilibriumPoint
    hm: en.HamiltonianModel
    points: list[eq.EquilibriumPoint]
    fom: en.FaultOnHamiltonianModel
    crit: eq.CriticalEnergy
    delta_E: float


def _inadmissible(exc: Exception) -> Exception:
    """The InadmissibleScenario a singular eliminated block or a failed SEP
    search makes of a scenario, caused by it; any other exception as it is."""
    if isinstance(exc, SingularNetworkError):
        out = InadmissibleScenario(str(exc), code="singular-network")
    elif isinstance(exc, EquilibriumError):
        out = InadmissibleScenario(f"no post-fault SEP: {exc}", code="no-sep")
    else:
        return exc
    out.__cause__ = exc
    return out


def regimes(sc: FaultScenario) -> list[nm.ReducedNetwork]:
    """Reduced admittance parameters for pre-fault, fault-on and post-fault;
    a singular eliminated block makes the scenario inadmissible."""
    pre = sc.net
    nets = (pre, nm.apply_fault(pre, sc.fault_bus), nm.apply_clearing(pre, sc.clearing_branch))
    try:
        return [nm.reduce_to_generators(net) for net in nets]
    except SingularNetworkError as exc:
        raise _inadmissible(exc) from exc


def _machines(sc: FaultScenario) -> tuple[np.ndarray, np.ndarray, int]:
    """Modeled-machine inertias M, pre-fault angles and the infinite machine index."""
    gen_buses = sc.net.generator_buses
    infinite_index = gen_buses.index(sc.net.infinite_bus)
    modeled = [b for i, b in enumerate(gen_buses) if i != infinite_index]
    if not modeled:
        raise ScenarioFormatError(f"no modeled machine: the only generator is on the infinite bus {gen_buses[0]!r}")
    missing = [b for b in modeled if b not in sc.prefault_angles]
    if missing:
        raise InadmissibleScenario(f"missing pre-fault angle for generator bus {missing[0]!r}", code="bad-angles")
    delta = [float(sc.prefault_angles[b]) for b in modeled]
    if not np.all(np.isfinite(delta)):
        raise InadmissibleScenario(f"non-finite pre-fault angles {delta}", code="bad-angles")
    omega0 = 2.0 * np.pi * sc.frequency
    M = np.array([2.0 * sc.net.generators[b].inertia / omega0 for b in modeled])
    return M, np.array(delta), infinite_index


#: the part of the model step that no load changes (`_fixed_part`)
Fixed = tuple[np.ndarray, np.ndarray, sw.Dispatch]


def _fixed_part(sc: FaultScenario) -> Fixed:
    """The part of the model step that no load changes: the modeled
    machines' inertias M, their pre-fault angles and their dispatch."""
    M, delta_pre, infinite_index = _machines(sc)
    return M, delta_pre, sw.Dispatch(delta_pre, infinite_index)


def _model(
    fixed: Callable[[], Fixed],
    pairs: Sequence[tuple[nm.ReducedNetwork, nm.ReducedNetwork]],
) -> list[tuple | InadmissibleScenario]:
    """The model step of every (red_pre, red_post) pair, as one stack:
    dispatch on red_pre, then the SEP on red_post.  Per pair, (gp, delta_pre,
    sep, hm) or the InadmissibleScenario the pair is; every pair gets the
    scenario's own where `fixed()` (its `_fixed_part`) or the dispatch
    rejects the scenario as a whole."""
    if not pairs:
        return []
    try:
        M, delta_pre, dispatch = fixed()
        out: list = dispatch.powers([pre for pre, _post in pairs])
    except InadmissibleScenario as exc:
        return [exc.with_traceback(None)] * len(pairs)    # kept as a value: its traceback holds this frame
    gps = {
        i: sw.GeneratorParams(M=M, Pm=Pm, infinite_index=dispatch.infinite_index)
        for i, Pm in enumerate(out)
        if not isinstance(Pm, InadmissibleScenario)
    }
    if gps:
        seps = eq.find_seps([pairs[i][1] for i in gps], list(gps.values()), delta_pre)
        for (i, gp), sep in zip(gps.items(), seps):
            out[i] = _inadmissible(sep) if isinstance(sep, EquilibriumError) else (gp, delta_pre, *sep)
    return out


def _contexts(
    fixed: Callable[[], Fixed],
    reds: Sequence[Sequence[nm.ReducedNetwork] | InadmissibleScenario],
    seeds: Sequence[eq.EquilibriumPoint] | None = None,
) -> list[StudyContext | InadmissibleScenario]:
    """The pipeline up to the critical energy of every point, given its
    pre-fault, fault-on and post-fault reductions or the InadmissibleScenario
    it is: one model step for all points, one coarse probe stack for every
    point that may be seeded (`_coarse_probes`), then the enumerations in
    point order.  `seeds` seed point 0; point i > 0 is seeded by the
    stationary points of point i-1 unless i is a multiple of CHAIN or point
    i-1 has no context.  Per point, its StudyContext or the
    InadmissibleScenario it is."""
    out: list = list(reds)
    ok = [i for i, r in enumerate(out) if not isinstance(r, InadmissibleScenario)]
    for i, step in zip(ok, _model(fixed, [(out[i][0], out[i][2]) for i in ok])):
        out[i] = step if isinstance(step, InadmissibleScenario) else (*out[i], *step)
    stepped = [not isinstance(r, InadmissibleScenario) for r in out]
    seeded = [i for i in ok if stepped[i] and (stepped[i - 1] and i % CHAIN if i else seeds)]
    probes = dict(zip(seeded, eq._coarse_probes([out[i][-1] for i in seeded])))
    points = seeds
    for i, r in enumerate(out):
        if i and not (i % CHAIN and stepped[i - 1]):
            points = None
        if not stepped[i]:
            continue
        red_pre, red_on, red_post, gp, delta_pre, sep, hm = r
        points = eq.stationary_points(hm, seeds=points, probes=probes.get(i))
        try:
            crit = eq.closest_uep(points)
        except EquilibriumError as exc:
            out[i] = InadmissibleScenario(str(exc), code="no-boundary")
            out[i].__cause__ = exc.with_traceback(None)
            stepped[i] = False
            continue
        x_pre = np.concatenate([delta_pre, np.zeros_like(delta_pre)])
        out[i] = StudyContext(
            red_pre=red_pre, red_post=red_post, gp=gp, x_pre=x_pre, sep=sep, hm=hm, points=points,
            fom=en.FaultOnHamiltonianModel.at_prefault(red_on, gp, delta_pre), crit=crit,
            delta_E=en.energy_margin(crit.E_c, hm, x_pre),
        )
    return out


def build_context(sc: FaultScenario, seeds: Sequence[eq.EquilibriumPoint] | None = None) -> StudyContext:
    """Run the full pipeline up to the critical energy; `seeds` seed the
    enumeration of the post-fault stationary points (`stationary_points`).
    This is the one-point form of a sweep's context step (`LoadFamily.contexts`).

    Raises InadmissibleScenario (with a reason code) when the scenario fails
    one of the admissibility constraints.
    """
    (ctx,) = _contexts(partial(_fixed_part, sc), [regimes(sc)], seeds)
    if isinstance(ctx, InadmissibleScenario):
        # a fresh exception: raising ctx would tie it to this frame, which holds it
        raise InadmissibleScenario(str(ctx), code=ctx.code) from ctx.__cause__
    return ctx


def _pair_excursions(coupling: sw.Coupling, states: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """|pairwise angle difference - its SEP value `ref`| of packed states (..., 2m)."""
    return np.abs(coupling.pair_diffs(states[..., : coupling.act.size]) - ref)


class _VerdictStack:
    """First-swing verdict rows of many points, run as one lockstep stack.

    A row is one clearing time of one point: its post-fault run starts from
    the point's fault-on state at that time, on the point's post-fault
    network, with its own step control (`swing.dopri_run`).  Each check of
    the run folds the 5 ms samples of its `swing.Block` into the verdict
    state of the rows whose verdict it can change (`_unsettled`) and decides
    a row once it diverges, fails or finishes its WINDOW.  `admit` adds
    rows, which join at the next check with their clearing states read in
    one sample of all the points' fault-on runs, and `run` retires rows
    (what its `plan` returns), while every row's verdict stays the one it
    gets alone.
    """

    def __init__(self, ctx: Sequence[StudyContext], fault_on: Sequence[sw.Trajectory], tol: float):
        self._fault_on, self._tol = sw.Runs(fault_on), tol
        self._coupling = ctx[0].hm.coupling
        # a kernel per row: one kernel shared by the rows evaluates them by broadcasting, more slowly
        self._fields = [sw.swing_field(c.red_post, c.gp) for c in ctx]
        # pairwise angle differences at each point's post-fault SEP
        self._ref = self._coupling.pair_diffs(np.array([c.sep.delta for c in ctx]))
        pairs = self._ref.shape[1]
        # per row: its point and clearing time, the verdict state and the verdict
        self.point = np.zeros(0, dtype=int)
        self.time = np.zeros(0)
        self._peak = np.zeros((0, pairs))
        self._returned = np.zeros((0, pairs), dtype=bool)
        self.stable = np.zeros(0, dtype=bool)
        self._failed: dict[int, float] = {}
        self._rows = 0     # rows admitted, queued ones included
        self._queue: list[tuple[np.ndarray, np.ndarray]] = []

    def admit(self, p: int, times: Sequence[float]) -> np.ndarray:
        """Add a row per clearing time of point p; returns their row ids."""
        times = np.asarray(times, dtype=float)
        ids = np.arange(self._rows, self._rows + times.size)
        self._rows += times.size
        self._queue.append((np.full(times.size, p), times))
        return ids

    def _admitted(self) -> tuple | None:
        """The rows admitted since the last call as a `dopri_run` triple
        (ids, field, y); their verdict state joins the stack's."""
        if not self._queue:
            return None
        points, times = (np.concatenate(x) for x in zip(*self._queue))
        self._queue.clear()
        ids = np.arange(self.point.size, self._rows)
        self.point = np.concatenate([self.point, points])
        self.time = np.concatenate([self.time, times])
        self._peak = np.concatenate([self._peak, np.zeros((ids.size, self._peak.shape[1]))])
        self._returned = np.concatenate([self._returned, np.zeros((ids.size, self._peak.shape[1]), dtype=bool)])
        self.stable = np.concatenate([self.stable, np.zeros(ids.size, dtype=bool)])
        return ids, sw.SwingField.stack([self._fields[p] for p in points]), self._fault_on.sample(points, times)

    def _fold(self, block: sw.Block) -> np.ndarray:
        """Fold a block into the verdict state of its rows; whether each row diverged."""
        rows = block.ids
        angles = sw.sample_block(block, _SAMPLES, self._coupling.act.size)
        # (slots, rows, pairs), NaN in the slots a row has no sample in, which fmax and comparisons skip
        exc = _pair_excursions(self._coupling, angles, self._ref[self.point[rows]])
        # peak[j]: the peak of each pair before slot j, and after the last one
        peak = np.fmax.accumulate(np.concatenate([self._peak[rows][None], exc]), axis=0)
        self._returned[rows] |= np.any(exc < peak[:-1] - 1e-2, axis=0)
        self._peak[rows] = peak[-1]
        # the divergence bound is enforced over the whole window: an orbit may
        # complete its first return swing and still run away afterwards
        return np.any(exc >= DIVERGENCE_THRESHOLD, axis=(0, 2))

    def _unsettled(self, block: sw.Block) -> np.ndarray:
        """Whether a check must fold each row: a pair of it has not swung
        back, or an accepted step of the block starts within its reach (h *
        sum |Q_i|, a bound on its dense output, mapped to the pairs) of the
        divergence bound, less 1e-9 for rounding.  Once every pair has swung
        back only that bound can change a verdict, so the other rows are not
        folded and their `peak` is no longer kept."""
        out = ~self._returned[block.ids].all(axis=1)
        settled = np.flatnonzero(~out)
        if settled.size:
            b = block.take(settled)
            start = _pair_excursions(self._coupling, b.y, self._ref[self.point[b.ids]])
            dense = np.abs(b.Q[..., : self._coupling.act.size]).sum(axis=1)
            reach = ((b.t_new - b.t)[..., None] * dense) @ np.abs(self._coupling._K_pairs)
            out[settled] = np.any(b.accept[..., None] & ~(start + reach < DIVERGENCE_THRESHOLD - 1e-9), (0, 2))
        return out

    def _check(self, block: sw.Block) -> np.ndarray:
        """Fold a block of steps into the verdict state of the rows it may
        change (`_unsettled`), _FOLD_ROWS rows at a time (the samples of a
        block are its largest arrays); the rows it decides."""
        finished = (block.t[-1] == WINDOW) | (block.accept[-1] & (block.t_new[-1] == WINDOW))
        # a failed run counts as diverged
        lost = np.isin(block.ids, list(self._failed))
        fold = np.flatnonzero(self._unsettled(block))
        for k in range(0, fold.size, _FOLD_ROWS):
            part = fold[k : k + _FOLD_ROWS]
            lost[part] |= self._fold(block.take(part))
        done = lost | finished
        decided = block.ids[done]
        swung = self._returned[decided] | (self._peak[decided] < SMALL_SWING)
        self.stable[decided] = ~lost[done] & swung.all(axis=1)
        return decided

    def run(self, plan: Callable[[np.ndarray], list[int]] = lambda decided: []) -> None:
        """Integrate until no row runs and none is waiting.  After each check
        the rows it decided retire, and plan(decided) may admit rows and
        returns the ids of more rows to retire."""
        def check(block: sw.Block) -> tuple:
            decided = self._check(block)
            return np.concatenate([decided, np.array(plan(decided), dtype=int)]), self._admitted()

        if (admit := self._admitted()) is not None:
            sw.dopri_run(admit[1], admit[2], WINDOW, self._tol, sw.ATOL, self._failed, check, admit[0])


def first_swing_stable(
    ctx: Sequence[StudyContext],
    fault_on: Sequence[sw.Trajectory],
    t_cl: Sequence[Sequence[float]],
    tol: float = 1e-8,
) -> list[np.ndarray]:
    """First-swing verdicts for faults cleared at the times t_cl.

    ctx, fault_on and t_cl are equal-length sequences with one entry per
    point: its context, its fault-on trajectory and its clearing times.
    Returns one bool array per point, one verdict per clearing time.  All
    rows are admitted at once to one verdict stack (the one `true_cct`
    grows as it searches) and integrated in lockstep, each with its point's
    post-fault network and its own step control, from the fault-on state at
    its clearing time.  Stable means every pairwise rotor-angle difference
    stays within DIVERGENCE_THRESHOLD of its post-fault equilibrium value
    over the observation window (WINDOW) and swings back (reaches a peak and
    retreats), judged on the dense output every SAMPLE_STEP.  The samples
    are checked as the steps arrive, at every check of `swing.dopri_run`,
    and a row leaves the stack at the first check that finds it diverged.
    """
    sw.equal_lengths(ctx=ctx, fault_on=fault_on, t_cl=t_cl)
    times = [np.asarray(t, dtype=float) for t in t_cl]
    for fo, tp in zip(fault_on, times):
        for t in tp:
            if not 0.0 <= t <= fo.t_end:
                raise ValueError(f"clearing time {t:.6g} outside the fault-on run [0, {fo.t_end:.6g}]")
    stack = _VerdictStack(ctx, fault_on, tol)
    ids = [stack.admit(p, tp) for p, tp in enumerate(times)]
    stack.run()
    return [stack.stable[i] for i in ids]


def _midpoints(lo: float, hi: float, resolution: float, levels: int) -> list[float]:
    """Every midpoint bisection from [lo, hi] may visit in its next `levels` steps."""
    if levels == 0 or hi - lo <= resolution:
        return []
    mid = 0.5 * (lo + hi)
    return [mid] + _midpoints(lo, mid, resolution, levels - 1) + _midpoints(mid, hi, resolution, levels - 1)


def _replay(
    verdict: Callable[[float], bool | None], horizon: float, resolution: float
) -> tuple[tuple[float | str, str | None] | None, tuple[float, float] | None]:
    """Replay plain bisection over verdict(t_cl): True (stable), False or
    None (not known).  Returns (result, None) once the search is decided,
    else (None, bracket): the bracket whose midpoint is the first one not
    known, or None when only 0 or the horizon is missing.  A missing end
    is presumed to bracket the search.  Bisection asks 0 first, so a point
    stable at the horizon waits for its verdict at 0."""
    if verdict(0.0) is False:
        return (0.0, "unstable-at-zero"), None
    if verdict(horizon) is True:
        return ((UNBOUNDED, None) if verdict(0.0) else None), None
    lo, hi = 0.0, horizon
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        v = verdict(mid)
        if v is None:
            return None, (lo, hi)
        lo, hi = (mid, hi) if v else (lo, mid)
    if verdict(0.0) is None or verdict(horizon) is None:
        return None, None
    return (lo, None), None


def _reachable(known: Mapping[float, bool], asked: Mapping[float, int], horizon: float, resolution: float) -> set[float]:
    """0, the horizon and the asked midpoints some replay of bisection over
    the known verdicts may still visit: from [0, horizon], a known verdict
    picks one half and an unknown one both.  The asked times hold every
    parent of an asked midpoint, so the walk stops at the first one not
    asked."""
    if known.get(horizon):    # a search stable at the horizon ends at 0 or at the horizon
        return {0.0, horizon}
    out, brackets = {0.0, horizon}, [(0.0, horizon)]
    while brackets:
        lo, hi = brackets.pop()
        mid = 0.5 * (lo + hi)
        if hi - lo <= resolution or mid not in asked:
            continue
        out.add(mid)
        v = known.get(mid)
        if v is not False:
            brackets.append((mid, hi))
        if v is not True:
            brackets.append((lo, mid))
    return out


def check_search(resolution: float, horizon: float, tol: float) -> None:
    """Raise ScenarioFormatError unless the clearing-time search settings are
    positive and finite (a bisection with resolution <= 0 would never end)."""
    for name, value in (("resolution", resolution), ("horizon", horizon), ("tolerance", tol)):
        if not 0.0 < value < np.inf:
            raise ScenarioFormatError(f"{name} must be positive and finite, got {value!r}")


def true_cct(
    ctx: Sequence[StudyContext],
    fault_on: Sequence[sw.Trajectory],
    resolution: float = 1e-4,
    horizon: float = 1.0,
    tol: float = 1e-8,
) -> list[tuple[float | str, str | None]]:
    """Binary search for the largest stable clearing time of each point;
    ctx and fault_on are equal-length sequences, searched in lockstep.

    Every clearing state is read from the point's fault-on trajectory, which
    must cover the horizon.  All points share one running verdict stack
    (`first_swing_stable` is its one-shot form), and each point's search is
    replanned at every check of that stack:

    - a point with new verdicts replays plain bisection over its decided
      verdicts, 0 first, so stable at the horizon decides nothing until 0
      is known; once that replay ends, the point is decided and its running
      rows retire, else it retires the running rows no such replay can
      reach any more;
    - every open point replays again, counting a midpoint row still
      running as stable (every running row has been through at least one
      check), and admits every midpoint its next steps from the first
      midpoint not asked yet may visit; the first plan adds 0 and the
      horizon.  It looks as many steps ahead as keep a round of all open
      points near ROWS_PER_ROUND rows: at least 3 from a bracket of decided
      verdicts, at least 1 from one past a running row, which is a guess.

    Each clearing time is integrated at most once, and a point's bracket is
    the one serial bisection gets: every verdict it replays is the verdict
    of a row that ran alone.  Returns (value, verdict) per point: value is
    the lower end of the final bracket, UNBOUNDED when stable at the
    horizon; verdict flags the degenerate case of a post-fault system
    unstable even at instant clearing.
    """
    check_search(resolution, horizon, tol)
    sw.equal_lengths(ctx=ctx, fault_on=fault_on)
    for fo in fault_on:
        if fo.t_end < horizon:
            raise ValueError(f"fault-on run ends at t={fo.t_end:.6g}, before the horizon {horizon:.6g}")
    if not ctx:
        return []
    stack = _VerdictStack(ctx, fault_on, tol)
    known: list[dict[float, bool]] = [{} for _ in ctx]
    asked: list[dict[float, int]] = [{} for _ in ctx]   # clearing time -> row, of every row admitted
    running: list[set[float]] = [set() for _ in ctx]    # the clearing times of the rows still running
    results: list = [None] * len(ctx)
    frontier: list = [(0.0, horizon)] * len(ctx)     # the bracket of the replay over decided verdicts

    def plan(decided: np.ndarray) -> list[int]:
        settled = set()
        for p, t, v in zip(*(x[decided].tolist() for x in (stack.point, stack.time, stack.stable))):
            known[p][t] = v
            running[p].discard(t)
            settled.add(p)
        retire: list[int] = []
        # a point's decided replay and reachable rows change only with its
        # verdicts (redoing them for every open point at every check costs
        # about 60 ms more on a serial 201-point 8.B sweep)
        for p in settled:
            results[p], frontier[p] = _replay(known[p].get, horizon, resolution)
            keep = _reachable(known[p], asked[p], horizon, resolution) if results[p] is None else set()
            retire += [asked[p][t] for t in running[p] - keep]
            running[p] &= keep
        open_points = [p for p, r in enumerate(results) if r is None]
        ahead = int(math.log2(ROWS_PER_ROUND / max(len(open_points), 1) + 1))
        for p in open_points:
            k, a = known[p], asked[p]
            _, bracket = _replay(lambda t: k.get(t, True if t in a and t not in (0.0, horizon) else None), horizon, resolution)
            # past a running row the bracket is a guess, kept to its share of
            # ROWS_PER_ROUND: a floor of 3 there grew a sweep's stack and checks
            levels = max(3, ahead) if bracket == frontier[p] else max(1, ahead)
            wanted = [0.0, horizon] + (_midpoints(*bracket, resolution, levels) if bracket else [])
            new = [t for t in dict.fromkeys(wanted) if t not in a]
            if new:
                a.update(zip(new, stack.admit(p, new).tolist()))
                running[p].update(new)
        return retire

    plan(np.zeros(0, dtype=int))
    stack.run(plan)
    return results


def run_studies(
    contexts: Sequence[StudyContext | InadmissibleScenario],
    resolution: float = 1e-4,
    horizon: float = 1.0,
    tol: float = 1e-8,
) -> list[FaultStudyResult]:
    """Compute tau, tau_H, tau_A and the energy margin for every point, given
    its context or the InadmissibleScenario it is (as `LoadFamily.contexts`
    builds them), as stacks; the points must share their machines.

    The fault-on runs of all admissible points are one stacked integration
    to the longer of the tau and tau_H horizons, and a run stops once it has
    passed the tau horizon and the point where its energy reaches E_c
    (`fault_on_trajectory` with `stop`); both metrics only read it.
    `tau_H` of all points is one stack, and the true_cct searches run in
    lockstep.  A point's result depends only on its context.  Raises
    ValueError for a resolution, horizon or tol that is not positive and
    finite.
    """
    check_search(resolution, horizon, tol)
    # the FaultStudyResult fields of each point, filled in as they are found
    fields = []
    admitted = []
    for ctx in contexts:
        f = dict(
            tau=None, tau_H=None, tau_A=None, delta_E=None, E_c=None, closest_uep=None,
            admissible=False, verdicts={}, message=None,
        )
        fields.append(f)
        if isinstance(ctx, InadmissibleScenario):
            f.update(verdicts={"scenario": ctx.code}, message=str(ctx))
            continue
        f.update(delta_E=ctx.delta_E, E_c=ctx.crit.E_c, closest_uep=ctx.crit.closest_uep)
        if ctx.delta_E <= 0.0:
            f["verdicts"]["scenario"] = "negative-margin"
            continue
        qc = en.quartic_coefficients(ctx.hm, ctx.fom, ctx.crit.E_c)
        f.update(admissible=True, tau_A=en.tau_A(qc))
        admitted.append((f, ctx))

    searched = []
    if admitted:
        found, ctxs = zip(*admitted)
        fault_on = en.fault_on_trajectory(
            [c.fom for c in ctxs], [c.gp for c in ctxs], [c.x_pre for c in ctxs], max(horizon, en.TAU_H_HORIZON),
            tol=tol, stop=([c.hm for c in ctxs], [c.crit.E_c for c in ctxs], horizon),
        )
        for f, ctx, fo in zip(found, ctxs, fault_on):
            if isinstance(fo, IntegrationError):
                f["verdicts"].update(tau=INTEGRATION_FAILED, tau_H=INTEGRATION_FAILED)
            else:
                searched.append((f, ctx, fo))
    if searched:
        found, ctxs, runs = zip(*searched)
        for f, t_H in zip(found, en.tau_H([c.hm for c in ctxs], [c.crit.E_c for c in ctxs], runs)):
            f["tau_H"] = t_H
        for f, (t, t_verdict) in zip(found, true_cct(ctxs, runs, resolution=resolution, horizon=horizon, tol=tol)):
            f["tau"] = t
            if t_verdict is not None:
                f["verdicts"]["tau"] = t_verdict
    for f in fields:
        # a metric without a time carries its verdict string
        f["verdicts"].update((k, f[k]) for k in ("tau", "tau_H", "tau_A") if isinstance(f[k], str))
    return [FaultStudyResult(**f) for f in fields]


def run_fault_study(
    sc: FaultScenario,
    resolution: float = 1e-4,
    horizon: float = 1.0,
    tol: float = 1e-8,
) -> FaultStudyResult:
    """Compute tau, tau_H, tau_A and the energy margin for one scenario
    (`run_studies` of its build_context)."""
    try:
        ctx: StudyContext | InadmissibleScenario = build_context(sc)
    except InadmissibleScenario as exc:
        ctx = exc.with_traceback(None)    # kept as a value: its traceback holds this frame
    return run_studies([ctx], resolution, horizon, tol)[0]


def parse_param_path(sc: FaultScenario, param: str) -> tuple[str, str]:
    """Split a load parameter '<bus>.G' / '<bus>.B' into (bus, part); raise
    ScenarioFormatError unless it has that form with a bus of the scenario."""
    bus, dot, part = param.rpartition(".")
    if not dot:
        raise ScenarioFormatError(f"param path {param!r}: expected '<bus>.G' or '<bus>.B'")
    if part not in ("G", "B"):
        raise ScenarioFormatError(f"param path {param!r}: part must be 'G' or 'B'")
    if bus not in {b.id for b in sc.net.buses}:
        raise ScenarioFormatError(f"param path {param!r}: no bus {bus!r} in scenario")
    return bus, part


class LoadFamily:
    """One scenario's models as a function of one load parameter `param`:
    the conductance ('<bus>.G') or susceptance ('<bus>.B') of a shunt load.

    The Kron templates are built once: pre-fault with post-fault when the
    family is made, fault-on at the first context (a branch trace needs
    none, so it runs even where the fault bus does not exist).  So are the
    machines and their pre-fault angles, at the first model.  `models` and
    `contexts` stamp the load of every value they are given, solve once per
    template for all of them and run one model step: those of build_context
    on the scenario with that load, bit for bit.  The family is a model
    factory: calling it is `model`.  Raises ScenarioFormatError for a path
    parse_param_path rejects.
    """

    def __init__(self, sc: FaultScenario, param: str):
        bus_id, part = parse_param_path(sc, param)
        self.sc, self.bus_id = sc, bus_id
        base = sc.net.shunt_loads.get(bus_id, 0j)
        self._load = (lambda v: complex(v, base.imag)) if part == "G" else (lambda v: complex(base.real, v))
        self._pair = nm.KronTemplate([sc.net, nm.apply_clearing(sc.net, sc.clearing_branch)], bus_id)

    @cached_property
    def _fault_on(self) -> nm.KronTemplate:
        return nm.KronTemplate([nm.apply_fault(self.sc.net, self.sc.fault_bus)], self.bus_id)

    @cached_property
    def _fixed(self) -> Fixed:
        return _fixed_part(self.sc)

    def _reductions(self, templates: Sequence[nm.KronTemplate], values: Sequence[float]) -> list:
        """Per value, the regimes of the templates in turn, or the
        InadmissibleScenario a singular eliminated block makes of it; any
        other NetworkError raises."""
        loads = [self._load(v) for v in values]
        out = []
        for regs in zip(*(t.reductions(loads) for t in templates)):
            bad = next((_inadmissible(r) for r in regs if isinstance(r, Exception)), None)
            if bad is not None and not isinstance(bad, InadmissibleScenario):
                raise bad
            out.append(bad or [red for r in regs for red in r])
        return out

    def models(self, values: Sequence[float]) -> list[en.HamiltonianModel | InadmissibleScenario]:
        """`model` of every value, as one stack: one solve for all their
        reductions and one model step.  Per value, its model or the
        InadmissibleScenario `model` raises there; any other exception
        `model` raises propagates."""
        out: list = self._reductions([self._pair], values)
        pairs = [i for i, r in enumerate(out) if not isinstance(r, InadmissibleScenario)]
        for i, step in zip(pairs, _model(lambda: self._fixed, [out[i] for i in pairs])):
            out[i] = step if isinstance(step, InadmissibleScenario) else step[-1]
        return out

    def model(self, value: float) -> en.HamiltonianModel:
        (hm,) = self.models([value])
        if isinstance(hm, InadmissibleScenario):
            raise InadmissibleScenario(str(hm), code=hm.code) from hm.__cause__    # fresh, as in build_context
        return hm

    __call__ = model

    def contexts(self, values: Sequence[float]) -> list[StudyContext | InadmissibleScenario]:
        """The study context of every value, or the InadmissibleScenario it
        is, as one stack (`_contexts`): values[i] is seeded by values[i-1]
        unless i is a multiple of CHAIN."""
        reds = self._reductions([self._fault_on, self._pair], values)
        return _contexts(lambda: self._fixed, [r if isinstance(r, Exception) else (r[1], r[0], r[2]) for r in reds])


def hamiltonian_model_factory(sc: FaultScenario, param: str) -> "eq.ModelFactory":
    """Post-fault anchored-model builder of one load parameter: its
    LoadFamily, which builds one value per call and many as one stack
    (`LoadFamily.models`)."""
    return LoadFamily(sc, param)
