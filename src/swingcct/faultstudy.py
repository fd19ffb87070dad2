"""Three-regime fault study: true CCT, energy CCT, analytic CCT, margin."""

from __future__ import annotations

import math
from contextlib import contextmanager
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
#: verdict rows one true_cct round aims at: open points x (2^levels - 1)
ROWS_PER_ROUND = 32
#: post-fault observation window of a first-swing verdict [s]
WINDOW = 3.0
#: spacing of the samples a first-swing verdict checks [s]
SAMPLE_STEP = 0.005
#: integrator attempts between two checks of the verdict samples
_BLOCK = 16
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


@contextmanager
def _verdicts():
    """A singular eliminated block or a failed SEP search makes the scenario inadmissible."""
    try:
        yield
    except SingularNetworkError as exc:
        raise InadmissibleScenario(str(exc), code="singular-network") from exc
    except EquilibriumError as exc:
        raise InadmissibleScenario(f"no post-fault SEP: {exc}", code="no-sep") from exc


def regimes(sc: FaultScenario) -> list[nm.ReducedNetwork]:
    """Reduced admittance parameters for pre-fault, fault-on and post-fault."""
    pre = sc.net
    nets = (pre, nm.apply_fault(pre, sc.fault_bus), nm.apply_clearing(pre, sc.clearing_branch))
    with _verdicts():
        return [nm.reduce_to_generators(net) for net in nets]


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


def _model(sc: FaultScenario, red_pre: nm.ReducedNetwork, red_post: nm.ReducedNetwork) -> tuple:
    """The model step: dispatch on red_pre, then the SEP on red_post; (gp, delta_pre, sep, hm)."""
    M, delta_pre, infinite_index = _machines(sc)
    with _verdicts():
        Pm = sw.dispatch_from_angles(red_pre, delta_pre, infinite_index)
        gp = sw.GeneratorParams(M=M, Pm=Pm, infinite_index=infinite_index)
        return (gp, delta_pre) + eq.find_sep(red_post, gp, delta_pre)


def _context(
    sc: FaultScenario, red_pre: nm.ReducedNetwork, red_on: nm.ReducedNetwork, red_post: nm.ReducedNetwork,
    seeds: Sequence[eq.EquilibriumPoint] | None,
) -> StudyContext:
    """The pipeline from the pre-fault, fault-on and post-fault reductions up to the critical energy."""
    gp, delta_pre, sep, hm = _model(sc, red_pre, red_post)
    x_pre = np.concatenate([delta_pre, np.zeros_like(delta_pre)])

    points = eq.stationary_points(hm, seeds=seeds)
    try:
        crit = eq.closest_uep(points)
    except EquilibriumError as exc:
        raise InadmissibleScenario(str(exc), code="no-boundary") from exc

    delta_E = en.energy_margin(crit.E_c, hm, x_pre)
    fom = en.FaultOnHamiltonianModel.at_prefault(red_on, gp, delta_pre)
    return StudyContext(
        red_pre=red_pre, red_post=red_post, gp=gp,
        x_pre=x_pre, sep=sep, hm=hm, points=points, fom=fom, crit=crit, delta_E=delta_E,
    )


def build_context(sc: FaultScenario, seeds: Sequence[eq.EquilibriumPoint] | None = None) -> StudyContext:
    """Run the full pipeline up to the critical energy; `seeds` seed the
    enumeration of the post-fault stationary points (`stationary_points`).

    Raises InadmissibleScenario (with a reason code) when the scenario fails
    one of the admissibility constraints.
    """
    return _context(sc, *regimes(sc), seeds)


def _pair_excursions(coupling: sw.Coupling, states: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """|pairwise angle difference - its SEP value `ref`| of packed states (..., 2m)."""
    return np.abs(coupling.pair_diffs(states[..., : coupling.act.size]) - ref)


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
    rows are integrated as one stack, each with its point's post-fault
    network and its own step control, from the fault-on state at its
    clearing time.  Stable means every pairwise rotor-angle difference stays
    within DIVERGENCE_THRESHOLD of its post-fault equilibrium value over the
    observation window (WINDOW) and swings back (reaches a peak and
    retreats), judged on the dense output every SAMPLE_STEP.  The samples
    are checked as the steps arrive, every _BLOCK integrator attempts, and a
    row leaves the stack at the first check that finds it diverged.
    """
    times = [np.asarray(t, dtype=float) for t in t_cl]
    for fo, tp in zip(fault_on, times):
        for t in tp:
            if not 0.0 <= t <= fo.t_end:
                raise ValueError(f"clearing time {t:.6g} outside the fault-on run [0, {fo.t_end:.6g}]")
    sizes = [tp.size for tp in times]
    of_point = np.repeat(np.arange(len(ctx)), sizes)

    coupling = ctx[0].hm.coupling
    field = sw.SwingField.stack([sw.swing_field(c.red_post, c.gp) for c in ctx]).take(of_point)
    # pairwise angle differences at each row's post-fault SEP
    ref = coupling.pair_diffs(np.array([c.sep.delta for c in ctx]))[of_point]
    state = np.concatenate([fo.sample(tp) for fo, tp in zip(fault_on, times)])

    ts = np.append(np.arange(0.0, WINDOW, SAMPLE_STEP), WINDOW)
    peak = np.zeros(ref.shape)
    returned = np.zeros(ref.shape, dtype=bool)
    diverged = np.zeros(of_point.size, dtype=bool)
    failed = np.full(of_point.size, np.nan)

    def check(block: list) -> np.ndarray:
        """Fold a block of steps into the verdict state; the rows it diverged."""
        rows = block[0][0]
        count, angles = sw.sample_steps(block, ts, coupling.act.size)
        block.clear()
        # one line per row and pair, padded with NaN, which fmax and comparisons skip
        line = np.repeat(np.arange(rows.size), count)
        exc = np.full((rows.size, ref.shape[1], count.max(initial=1)), np.nan)
        exc[line, :, np.arange(line.size) - np.repeat(np.cumsum(count) - count, count)] = (
            _pair_excursions(coupling, angles.T, ref[rows[line]])
        )
        # prior[..., j]: the peak of each pair before sample j
        prior = np.fmax.accumulate(np.concatenate([peak[rows, :, None], exc[..., :-1]], axis=-1), axis=-1)
        returned[rows] |= np.any(exc < prior - 1e-2, axis=-1)
        peak[rows] = np.fmax(prior[..., -1], exc[..., -1])
        # the divergence bound is enforced over the whole window: an orbit may
        # complete its first return swing and still run away afterwards
        out = rows[np.any(exc >= DIVERGENCE_THRESHOLD, axis=(1, 2))]
        diverged[out] = True
        return out

    steps = sw.dopri_steps(field, state, WINDOW, tol, sw.ATOL, failed)
    block: list = []
    retire = None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            try:
                block.append(steps.send(retire))
            except StopIteration:
                break
            retire = check(block) if len(block) == _BLOCK else None
        if block:
            check(block)
    # a failed run counts as diverged
    stable = ~diverged & np.isnan(failed) & np.all(returned | (peak < SMALL_SWING), axis=1)
    return np.split(stable, np.cumsum(sizes)[:-1])


def _midpoints(lo: float, hi: float, resolution: float, levels: int) -> list[float]:
    """Every midpoint bisection from [lo, hi] may visit in its next `levels` steps."""
    if levels == 0 or hi - lo <= resolution:
        return []
    mid = 0.5 * (lo + hi)
    return [mid] + _midpoints(lo, mid, resolution, levels - 1) + _midpoints(mid, hi, resolution, levels - 1)


def _bisect(
    known: Mapping[float, bool], horizon: float, resolution: float, levels: int
) -> tuple[tuple[float | str, str | None] | None, list[float]]:
    """Replay plain bisection over the verdicts known so far (t_cl -> stable).

    Returns (result, []) once the search is decided, else (None, wanted):
    the clearing times its next `levels` steps may ask for.
    """
    if 0.0 not in known or horizon not in known:
        return None, [0.0, horizon] + _midpoints(0.0, horizon, resolution, levels)
    if not known[0.0]:
        return (0.0, "unstable-at-zero"), []
    if known[horizon]:
        return (UNBOUNDED, None), []
    lo, hi = 0.0, horizon
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if mid not in known:
            return None, _midpoints(lo, hi, resolution, levels)
        if known[mid]:
            lo = mid
        else:
            hi = mid
    return (lo, None), []


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
    must cover the horizon.  Each round checks, in one batched verdict call,
    every clearing time the open points' next bisection steps may ask for
    (the first round adds 0 and the horizon), over as many steps as keep the
    round near ROWS_PER_ROUND rows and at least 3: 5 for one point, 4 for
    two, 3 for five or more.  Each point then replays plain bisection over
    its verdicts, so its bracket is the one serial bisection gets.  Returns
    (value, verdict) per point: value is the lower end of the final bracket,
    UNBOUNDED when stable at the horizon; verdict flags the degenerate case
    of a post-fault system unstable even at instant clearing.
    """
    check_search(resolution, horizon, tol)
    for fo in fault_on:
        if fo.t_end < horizon:
            raise ValueError(f"fault-on run ends at t={fo.t_end:.6g}, before the horizon {horizon:.6g}")
    known: list[dict[float, bool]] = [{} for _ in ctx]
    results: list = [None] * len(ctx)
    while open_points := [p for p, r in enumerate(results) if r is None]:
        levels = max(3, int(math.log2(ROWS_PER_ROUND / len(open_points) + 1)))
        wanted = {}
        for p in open_points:
            results[p], w = _bisect(known[p], horizon, resolution, levels)
            if w:
                wanted[p] = w
        if wanted:
            stable = first_swing_stable(
                [ctx[p] for p in wanted], [fault_on[p] for p in wanted], list(wanted.values()), tol=tol
            )
            for (p, w), verdicts in zip(wanted.items(), stable):
                known[p].update(zip(w, verdicts.tolist()))
    return results


def run_studies(
    builds: Sequence[Callable[[Sequence[eq.EquilibriumPoint] | None], StudyContext]],
    resolution: float = 1e-4,
    horizon: float = 1.0,
    tol: float = 1e-8,
) -> list[FaultStudyResult]:
    """Compute tau, tau_H, tau_A and the energy margin for every point, given
    one context builder per point (seeds -> StudyContext, as build_context).

    The points must share their machines and come in parameter order (as
    the points of a load sweep do).  The stationary points of point i are
    seeded by those of point i-1 when i is not a multiple of CHAIN and point
    i-1 built a context; every other enumeration runs the full grid.  The
    fault-on runs of all admissible points are one stacked integration, each
    to the longer of the tau and tau_H horizons, and both metrics only read
    it; the true_cct searches run in lockstep.  A point's result depends
    only on itself and on the points before it in its chain.  Raises
    ValueError for a resolution, horizon or tol that is not positive and
    finite.
    """
    check_search(resolution, horizon, tol)
    # the FaultStudyResult fields of each point, filled in as they are found
    fields = []
    admitted = []
    points = None
    for i, build in enumerate(builds):
        f = dict(
            tau=None, tau_H=None, tau_A=None, delta_E=None, E_c=None, closest_uep=None,
            admissible=False, verdicts={}, message=None,
        )
        fields.append(f)
        seeds = points if i % CHAIN else None
        points = None
        try:
            ctx = build(seeds)
        except InadmissibleScenario as exc:
            f.update(verdicts={"scenario": exc.code}, message=str(exc))
            continue
        points = ctx.points
        f.update(delta_E=ctx.delta_E, E_c=ctx.crit.E_c, closest_uep=ctx.crit.closest_uep)
        if ctx.delta_E <= 0.0:
            f["verdicts"]["scenario"] = "negative-margin"
            continue
        qc = en.quartic_coefficients(ctx.hm, ctx.fom, ctx.crit.E_c)
        f.update(admissible=True, tau_A=en.tau_A(qc))
        admitted.append((f, ctx))

    searched = []
    if admitted:
        fault_on = en.fault_on_trajectory(
            [c.fom for _, c in admitted], [c.gp for _, c in admitted], [c.x_pre for _, c in admitted],
            max(horizon, en.TAU_H_HORIZON), tol=tol,
        )
        for (f, ctx), fo in zip(admitted, fault_on):
            if isinstance(fo, IntegrationError):
                f["verdicts"].update(tau=INTEGRATION_FAILED, tau_H=INTEGRATION_FAILED)
            else:
                f["tau_H"] = en.tau_H(ctx.hm, ctx.crit.E_c, fo)
                searched.append((f, ctx, fo))
    taus = true_cct(
        [s[1] for s in searched], [s[2] for s in searched], resolution=resolution, horizon=horizon, tol=tol
    )
    for (f, _ctx, _fo), (t, t_verdict) in zip(searched, taus):
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
    return run_studies([partial(build_context, sc)], resolution, horizon, tol)[0]


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
    none, so it runs even where the fault bus does not exist).  Per value,
    `model` and `context` stamp the load, solve once per template and run
    the model step: those of build_context on the scenario with that load,
    bit for bit.  Raises ScenarioFormatError for a path parse_param_path rejects.
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

    def model(self, value: float) -> en.HamiltonianModel:
        with _verdicts():
            return _model(self.sc, *self._pair.reduce(self._load(value)))[-1]

    def context(self, value: float, seeds: Sequence[eq.EquilibriumPoint] | None = None) -> StudyContext:
        with _verdicts():
            (red_on,) = self._fault_on.reduce(self._load(value))
            red_pre, red_post = self._pair.reduce(self._load(value))
        return _context(self.sc, red_pre, red_on, red_post, seeds)


def hamiltonian_model_factory(sc: FaultScenario, param: str) -> "eq.ModelFactory":
    """Post-fault anchored-model builder of one load parameter (`LoadFamily.model`)."""
    return LoadFamily(sc, param).model
