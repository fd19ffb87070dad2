import math
from pathlib import Path

import numpy as np
import pytest

from swingcct import energy as en
from swingcct import equilibria as eq
from swingcct import faultstudy as fs
from swingcct import netmodel as nm
from swingcct import swing as sw
from swingcct.errors import EquilibriumError, InadmissibleScenario, SingularNetworkError
from swingcct.netmodel import ReducedNetwork
from swingcct.scenario import load_scenario
from swingcct.swing import Coupling, GeneratorParams


@pytest.fixture(scope="session")
def wscc():
    """Bundled two-machine-infinite-bus scenario (60 Hz, static charging)."""
    return load_scenario("wscc9-tmib")


@pytest.fixture(scope="session")
def three_machine():
    """The bundled case with machine 1 modeled (pre-fault angle 0.05 rad) and
    a new infinite bus 10 tied to bus 4 by y = -5j."""
    return load_scenario(Path(__file__).parent / "data" / "wscc9_three_machine.json")


@pytest.fixture(scope="session")
def wscc_lossless(wscc):
    """The bundled scenario with the conductance of loads A, B and C set to 0.1."""
    sc = wscc
    for bus in ("5", "6", "8"):
        sc = sc.with_load(bus, complex(0.1, sc.net.shunt_loads[bus].imag))
    return sc


def rebuilt_reduction(net):
    """A regime's reduction to the generator internal nodes the long way, as
    the oracle of `netmodel.KronTemplate`: build_ybus of the whole network,
    a partition into retained and eliminated nodes, one 2-D solve and a
    symmetrisation; raises SingularNetworkError naming the eliminated bus
    set, as the template does."""
    Y = nm.build_ybus(net)
    gens = net.generator_buses
    retained = {nm.internal_node(b) for b in gens}
    keep = [i for i, node in enumerate(Y.nodes) if node in retained]
    drop = [i for i, node in enumerate(Y.nodes) if node not in retained]
    A = Y.values
    try:
        X = np.linalg.solve(A[np.ix_(drop, drop)], A[np.ix_(drop, keep)])
    except np.linalg.LinAlgError:
        raise SingularNetworkError(f"singular eliminated block for bus set {[Y.nodes[i] for i in drop]}") from None
    red = A[np.ix_(keep, keep)] - A[np.ix_(keep, drop)] @ X
    red = 0.5 * (red + red.T)
    (reduced,) = ReducedNetwork.from_stack(red[None], [net.generators[b].emf for b in gens])
    return reduced


def with_part(sc, bus, part, value):
    """The scenario with the conductance ('G') or susceptance ('B') of the
    shunt load at `bus` set to value, rebuilt through `with_load`."""
    load = sc.net.shunt_loads.get(bus, 0j)
    return sc.with_load(bus, complex(value, load.imag) if part == "G" else complex(load.real, value))


@pytest.fixture(scope="session")
def nominal_ctx(wscc):
    """Prepared pipeline for the nominal fault (bus 7, clear line 5-7)."""
    return fs.build_context(wscc)


@pytest.fixture(scope="session")
def nominal_fault_on(nominal_ctx):
    """Fault-on run of the nominal fault to 2 s, as `run_fault_study` integrates it."""
    return fault_on(nominal_ctx, 2.0)


def fault_on(ctx, horizon, **kw):
    """`energy.fault_on_trajectory` of one context; raises if the run fails."""
    (run,) = en.fault_on_trajectory([ctx.fom], [ctx.gp], [ctx.x_pre], horizon, **kw)
    if isinstance(run, Exception):
        raise run
    return run


def stable(ctx, fo, t):
    """`faultstudy.first_swing_stable` of one clearing time of one point."""
    return bool(fs.first_swing_stable([ctx], [fo], [[t]])[0][0])


def cct(ctx, fo, **kw):
    """`faultstudy.true_cct` of one point."""
    return fs.true_cct([ctx], [fo], **kw)[0]


def round_true_cct(ctx, fault_on, resolution=1e-4, horizon=1.0, tol=1e-8):
    """`faultstudy.true_cct` as it ran before its points shared one running
    verdict stack, kept as its oracle: each round checks, in one batched
    `first_swing_stable` call, every clearing time the open points' next
    bisection steps may ask for (5 steps for one open point, 4 for two, 3
    for five or more), and only then replays bisection over the verdicts."""

    def bisect(known, levels):
        if 0.0 not in known or horizon not in known:
            return None, [0.0, horizon] + fs._midpoints(0.0, horizon, resolution, levels)
        if not known[0.0]:
            return (0.0, "unstable-at-zero"), []
        if known[horizon]:
            return (fs.UNBOUNDED, None), []
        lo, hi = 0.0, horizon
        while hi - lo > resolution:
            mid = 0.5 * (lo + hi)
            if mid not in known:
                return None, fs._midpoints(lo, hi, resolution, levels)
            lo, hi = (mid, hi) if known[mid] else (lo, mid)
        return (lo, None), []

    known = [{} for _ in ctx]
    results = [None] * len(ctx)
    while open_points := [p for p, r in enumerate(results) if r is None]:
        levels = max(3, int(math.log2(fs.ROWS_PER_ROUND / len(open_points) + 1)))
        wanted = {}
        for p in open_points:
            results[p], w = bisect(known[p], levels)
            if w:
                wanted[p] = w
        if wanted:
            stable = fs.first_swing_stable(
                [ctx[p] for p in wanted], [fault_on[p] for p in wanted], list(wanted.values()), tol=tol
            )
            for (p, w), verdicts in zip(wanted.items(), stable):
                known[p].update(zip(w, verdicts.tolist()))
    return results


def per_network_powers(dispatch, reds):
    """`swing.Dispatch.powers` as it was when it built a full `Coupling` per
    network and stacked them, kept as its oracle: one stack of powers, the
    InadmissibleScenario of a network with a non-positive one."""
    act = np.delete(np.arange(reds[0].n), dispatch.infinite_index)
    kernel = Coupling.stack([Coupling(red, act) for red in reds])
    if np.any(np.abs(kernel.diffs(dispatch.delta_pre)) >= np.pi / 2.0):
        raise InadmissibleScenario("pre-fault angles must satisfy |d_i - d_k| < pi/2 pairwise", code="bad-angles")
    out = []
    for Pm in np.ascontiguousarray(kernel._power_of(kernel._columns(dispatch.delta_pre)).T):
        if np.any(Pm <= 0.0):
            bad = [int(i) for i in act[Pm <= 0.0]]
            Pm = InadmissibleScenario(
                f"dispatch gives non-positive mechanical power for machines {bad}", code="pm-nonpositive"
            )
        out.append(Pm)
    return out


def smib(Pm: float = 0.5, Pbar: float = 1.0, M: float = 0.1):
    """Single machine against an infinite bus, zero conductance."""
    B = np.array([[-Pbar, Pbar], [Pbar, -Pbar]])
    red = ReducedNetwork(
        n=2, G=np.zeros((2, 2)), B=B, Pbar=np.array([[0.0, Pbar], [Pbar, 0.0]]),
        E=np.ones(2),
    )
    gp = GeneratorParams(M=np.array([M]), Pm=np.array([Pm]), infinite_index=1)
    return red, gp


@pytest.fixture()
def pendulum():
    """Unloaded single-machine system: SEP at 0, saddle at pi."""
    return smib(Pm=0.0)


def one_stack_stationary_points(hm, seeds, grid_density=40):
    """`equilibria.stationary_points` of hm over its default box, seeded by
    `seeds`, as it ran when one Newton stack held the seeds and the coarse
    grid that checks them, kept as the oracle of the coarse probes that now
    run apart from the seeds: the seeds' roots, polished, unless a seed
    fails, a coarse start reaches a root no seed reached, or the closest
    saddle moves; then the full grid."""
    center = np.asarray(hm.anchor, dtype=float)
    box = (center - 2.0 * np.pi, center + 2.0 * np.pi)
    if seeds:
        k = len(seeds)
        starts = np.concatenate([[s.delta for s in seeds], eq._grid(*box, eq._COARSE)])
        X, converged = eq._newton(hm.coupling, hm.drive, starts)
        roots = eq._wrap_to_cell(X[:k], center)
        found = eq._wrap_to_cell(X[k:][converged[k:]], center)
        if converged[:k].all() and not np.any(
            np.min(eq.wrapped_distance(found[:, None, :], roots[None, :, :]), axis=1) > 1e-6
        ):
            points = eq._polish(hm, center, roots)
            before, after = eq._closest_saddle(seeds), eq._closest_saddle(points)
            if before is None and after is None:
                return points
            if None not in (before, after) and eq.wrapped_distance(roots[before], points[after].delta) <= 1e-6:
                return points
    X, converged = eq._newton(hm.coupling, hm.drive, eq._grid(*box, grid_density))
    return eq._polish(hm, center, eq._wrap_to_cell(X[converged], center))


def serial_lockstep(factory, tracers):
    """Run the tracers of one checkpoint together: each round makes one
    factory call per value asked for and one Newton stack per value."""
    answers = dict.fromkeys(range(len(tracers)))
    while answers:
        requests = {}
        for i, answer in answers.items():
            try:
                param, guess = tracers[i].send(answer)[:2]
            except StopIteration:
                continue
            requests.setdefault(param, []).append((i, guess))
        answers = {}
        for param, asks in requests.items():
            try:
                hm = factory(param)
            except (InadmissibleScenario, EquilibriumError) as exc:
                answers.update((i, exc) for i, _guess in asks)
                continue
            points = eq._correct_rows([hm] * len(asks), np.array([guess for _i, guess in asks]))
            answers.update((i, point) for (i, _guess), point in zip(asks, points))


def serial_continue_branch(factory, prange, initial_step=0.05):
    """`equilibria.continue_branch` as it was before its checkpoints were
    pipelined, kept as its oracle: the new branches of a checkpoint are
    traced together (`serial_lockstep`) only after every branch of every
    earlier checkpoint has ended."""
    lo, hi = prange
    spacing = (hi - lo) * eq._CHECKPOINT_STEP
    branches, points = [], None
    for cp in map(float, np.arange(lo, hi + 0.5 * spacing, spacing)):
        try:
            hm = factory(cp)
        except (InadmissibleScenario, EquilibriumError):
            points = None
            continue
        points = eq.stationary_points(hm, seeds=points)
        fresh = eq._uncovered(hm, cp, points, branches, initial_step)
        halves = [(eq.Branch(points=[(cp, seed)]), end) for seed in fresh for end in (hi, lo)]
        serial_lockstep(factory, [eq._trace(half, end, initial_step) for half, end in halves])
        for (fwd, _hi), (bwd, _lo) in zip(halves[::2], halves[1::2]):
            branches.append(eq.Branch(points=list(reversed(bwd.points[1:])) + fwd.points, folds=bwd.folds + fwd.folds))
    return branches


def per_value_context(family, value, seeds=None):
    """`faultstudy.LoadFamily.context` as it was before a block's contexts
    became one stack, kept as the oracle of `LoadFamily.contexts`: a Kron
    solve per template of this value alone, a one-pair model step, and an
    enumeration that runs its own coarse probes."""
    try:
        (red_on,) = family._fault_on.reduce(family._load(value))
        red_pre, red_post = family._pair.reduce(family._load(value))
    except SingularNetworkError as exc:
        raise fs._inadmissible(exc) from exc
    (step,) = fs._model(lambda: family._fixed, [(red_pre, red_post)])
    if isinstance(step, InadmissibleScenario):
        raise step
    gp, delta_pre, sep, hm = step
    x_pre = np.concatenate([delta_pre, np.zeros_like(delta_pre)])
    points = eq.stationary_points(hm, seeds=seeds)
    try:
        crit = eq.closest_uep(points)
    except EquilibriumError as exc:
        raise InadmissibleScenario(str(exc), code="no-boundary") from exc
    return fs.StudyContext(
        red_pre=red_pre, red_post=red_post, gp=gp, x_pre=x_pre, sep=sep, hm=hm, points=points,
        fom=en.FaultOnHamiltonianModel.at_prefault(red_on, gp, delta_pre), crit=crit,
        delta_E=en.energy_margin(crit.E_c, hm, x_pre),
    )


def per_value_contexts(family, values):
    """The contexts of a sweep block as `run_studies` built them one value at
    a time (`per_value_context`): value i seeded by value i - 1 unless i is
    a multiple of CHAIN or value i - 1 is inadmissible."""
    out, points = [], None
    for i, value in enumerate(values):
        seeds, points = (points if i % fs.CHAIN else None), None
        try:
            out.append(per_value_context(family, value, seeds))
        except InadmissibleScenario as exc:
            out.append(exc)
            continue
        points = out[-1].points
    return out


def serial_tau_H(hm, E_c, trajectory):
    """`energy.tau_H` of one point as it was before it became one stack,
    kept as its oracle: its own scan of a run that covers TAU_H_HORIZON,
    then a bisection of its own."""
    gamma = en.energy_margin(E_c, hm, trajectory.sample([0.0])[0])
    if gamma == 0.0:
        return 0.0

    def excess(ts):
        return en.hamiltonian(hm, trajectory.sample(ts)) - E_c

    ts = np.unique(np.concatenate([
        trajectory.t[trajectory.t <= en.TAU_H_HORIZON], np.arange(0.0, en.TAU_H_HORIZON, 1e-3), [en.TAU_H_HORIZON],
    ]))
    above = np.nonzero(excess(ts) >= 0.0)[0]
    if above.size == 0:
        return en.NO_CROSSING
    k = int(above[0])
    if k == 0:
        return 0.0
    lo, hi = float(ts[k - 1]), float(ts[k])
    while hi - lo > en._LOCATE_TOL:
        mid = 0.5 * (lo + hi)
        if excess(np.array([mid]))[0] >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def flat_samples(block, ts, m):
    """`swing.sample_block` as it was before its slot layout (the flat
    `sample_steps`, reading a `swing.Block`), kept as the sampler of
    `full_fold_check`: the number of samples of each row of the block and
    the samples, sorted by row and then by time, component-major as (m, S)."""
    _ids, accept, t, t_new, y, Q = block
    lo = np.where(t == 0.0, 0, np.searchsorted(ts, t, side="right"))
    n = np.where(accept, np.searchsorted(ts, t_new, side="right") - lo, 0)
    # the (attempt, row) of the steps with samples, by row and then by time
    k, a = np.nonzero(n.T)
    n_step = n[a, k]
    g = np.repeat(a * t.shape[1] + k, n_step)
    j = np.repeat(lo[a, k] - (np.cumsum(n_step) - n_step), n_step) + np.arange(g.size)
    t = t.ravel()[g]
    h = t_new.ravel()[g] - t
    return n.sum(axis=0), sw.dense_state(
        np.take(y[..., :m].transpose(2, 0, 1).reshape(m, -1), g, axis=-1), h,
        np.take(Q[..., :m].transpose(1, 3, 0, 2).reshape(4, m, -1), g, axis=-1), (ts[j] - t) / h,
    )


def full_fold_check(stack, block):
    """The rows a `faultstudy._VerdictStack` check decides and their
    verdicts, as the check ran when it folded every row of the block, kept
    as the oracle of the check that folds only what can change a verdict;
    folds copies, so the stack is left as it is."""
    rows = block.ids
    finished = (block.t[-1] == fs.WINDOW) | (block.accept[-1] & (block.t_new[-1] == fs.WINDOW))
    m = stack._coupling.act.size
    count, angles = flat_samples(block, fs._SAMPLES, m)
    ref = stack._ref[stack.point[np.repeat(rows, count)]]
    exc = fs._pair_excursions(stack._coupling, angles.T, ref)
    returned, peak = stack._returned[rows].copy(), stack._peak[rows].copy()
    diverged = np.zeros(rows.size, dtype=bool)
    for r, part in enumerate(np.split(exc, np.cumsum(count)[:-1])):
        if part.size:
            # prior[j]: the peak of each pair before sample j
            prior = np.fmax.accumulate(np.vstack([peak[r], part[:-1]]), axis=0)
            returned[r] |= np.any(part < prior - 1e-2, axis=0)
            peak[r] = np.fmax(prior[-1], part[-1])
            diverged[r] = np.any(part >= fs.DIVERGENCE_THRESHOLD)
    lost = diverged | np.isin(rows, list(stack._failed))
    done = lost | finished
    return rows[done], ~lost[done] & np.all(returned[done] | (peak[done] < fs.SMALL_SWING), axis=1)
