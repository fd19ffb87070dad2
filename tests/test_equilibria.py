"""Equilibrium location, saddle classification, and branch continuation."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import one_stack_stationary_points, serial_continue_branch, smib
from test_coupling import network, same_bits
from swingcct import energy as en
from swingcct import equilibria as eq
from swingcct import faultstudy as fs
from swingcct.errors import EquilibriumError, InadmissibleScenario
from swingcct.netmodel import ReducedNetwork
from swingcct.swing import Coupling, GeneratorParams

RNG = np.random.default_rng(17)


def saddles(hm, **kw):
    """The type-1 stationary points of `hm`."""
    return [p for p in eq.stationary_points(hm, **kw) if p.type_index == 1]


def symmetric_three_machine():
    """Two identical machines plus an infinite bus, lossless, unloaded."""
    Pbar = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    red = ReducedNetwork(n=3, G=np.zeros((3, 3)), B=Pbar.copy(), Pbar=Pbar, E=np.ones(3))
    gp = GeneratorParams(
        M=np.array([0.1, 0.1]),
        Pm=np.zeros(2),
        infinite_index=2,
    )
    return red, gp


# ---------------------------------------------------------------------------
# find_sep
# ---------------------------------------------------------------------------


def test_sep_of_symmetric_unloaded_system_is_origin():
    red, gp = symmetric_three_machine()
    sep, hm = eq.find_sep(red, gp, np.array([0.3, -0.2]))
    assert np.max(np.abs(sep.delta)) <= 1e-12
    assert sep.type_index == 0
    assert np.max(np.abs(hm.Pa)) == 0.0


def test_nominal_sep_residual_and_cell(nominal_ctx):
    ctx = nominal_ctx
    r = ctx.gp.Pm - Coupling(ctx.red_post, ctx.gp.active).power(ctx.sep.delta)
    assert np.max(np.abs(r)) <= 1e-10
    full = np.insert(ctx.sep.delta, ctx.gp.infinite_index, 0.0)
    pairwise = np.abs(np.subtract.outer(full, full))
    assert np.all(pairwise < np.pi / 2)


def test_sep_anchored_joint_fixed_point(nominal_ctx):
    """Frozen conductance power at the SEP reproduces the live one."""
    ctx = nominal_ctx
    live = Coupling(ctx.red_post, ctx.gp.active).conductance(ctx.sep.delta)
    assert np.allclose(ctx.hm.Pa, live, atol=0)
    r_anchored = en.potential_gradient(ctx.hm, ctx.sep.delta)
    assert np.max(np.abs(r_anchored)) <= 1e-10


def test_sep_hessian_positive_definite(nominal_ctx):
    ctx = nominal_ctx
    H = ctx.hm.coupling.jacobian(ctx.sep.delta)
    assert np.all(np.linalg.eigvalsh(H) > 0)


def test_find_sep_divergence_guard(pendulum):
    red, gp = pendulum
    with pytest.raises(EquilibriumError):
        eq.find_sep(red, gp, np.array([np.pi - 0.05]))  # converges to the saddle


# ---------------------------------------------------------------------------
# Newton
# ---------------------------------------------------------------------------


def parent_newton(coupling, drive, starts, stall, exits):
    """The Newton loop as it ran before power and Jacobian were fused, kept
    as the oracle of `eq._newton`; `exits` collects why rows leave it."""
    X = np.array(starts, dtype=float)
    converged = np.zeros(X.shape[0], dtype=bool)
    work = np.arange(X.shape[0])
    best = np.full(X.shape[0], np.inf)
    idle = np.zeros(X.shape[0], dtype=int)
    for it in range(eq._NEWTON_ITER):
        if work.size == 0:
            break
        Xw = X[work]
        R = drive - coupling.power(Xw)
        res = np.max(np.abs(R), axis=1)
        done = res <= eq._NEWTON_TOL
        converged[work[done]] = True
        J = coupling.jacobian(Xw)
        keep = ~done & (np.abs(np.linalg.det(J)) > 1e-14)
        if it == 0 and done.any():
            exits.add("converged at the start")
        if (~done & ~keep).any():
            exits.add("singular")
        if stall is not None:
            improved = res < best[work]
            best[work[improved]] = res[improved]
            idle[work] = np.where(improved, 0, idle[work] + 1)
            if (keep & ~(idle[work] < stall)).any():
                exits.add("stalled")
            keep &= idle[work] < stall
        step = np.linalg.solve(J[keep], R[keep, :, None])[:, :, 0]
        norms = np.max(np.abs(step), axis=1, keepdims=True)
        Xw = Xw[keep] + step * (1.0 / np.maximum(norms, 1.0))
        finite = np.all(np.isfinite(Xw), axis=1)
        if not finite.all():
            exits.add("non-finite")
        work = work[keep][finite]
        X[work] = Xw[finite]
    return X, converged


def solved_systems(run):
    """run()'s result and the right-hand sides of every non-empty
    np.linalg.solve call it makes, in one array."""
    rhs, solve = [], np.linalg.solve

    def recording(a, b):
        rhs.append(b.reshape(-1))
        return solve(a, b)

    with mock.patch.object(np.linalg, "solve", recording):
        out = run()
    return out, np.concatenate(rhs) if rhs else np.zeros(0)


def test_lean_newton_equals_parent_loop():
    """On random networks, forms and stacks, the loop gives the parent
    loop's iterates and converged bits under the stall rule and solves the
    same systems.  The stacks hold rows that start converged, rows dropped
    for a near-singular Jacobian, stall-retired rows and, under a NaN drive,
    rows stepped to non-finite iterates."""
    exits = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 3
        G, B = rng.uniform(-5.0, 5.0, (2, n, n))
        E = rng.uniform(0.5, 1.5, n)
        Pbar = np.outer(E, E) * (B + B.T)
        np.fill_diagonal(Pbar, 0.0)
        red = ReducedNetwork(n=n, G=G + G.T, B=B + B.T, Pbar=Pbar, E=E)
        act = np.delete(np.arange(n), seed % n)
        drive = rng.uniform(-1.0, 1.0, n - 1)
        if seed % 5 == 4:
            drive[0] = np.nan
        for conductive in (True, False):
            cp = Coupling(red, act, conductive=conductive)
            starts = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, (24, n - 1))
            X, converged = eq._newton(cp, drive, starts)
            # the roots found, and every angle off the infinite one by pi/2,
            # where the anchored Jacobian of one modeled machine is about 1e-16
            starts = np.vstack([starts, X[converged], np.full((1, n - 1), np.pi / 2)])
            (new, new_ok), new_rhs = solved_systems(lambda: eq._newton(cp, drive, starts))
            (old, old_ok), old_rhs = solved_systems(lambda: parent_newton(cp, drive, starts, eq._STALL, exits))
            assert same_bits(new, old) and same_bits(new_ok, old_ok)
            # a NaN-residual row that steps is dropped with its iterate
            # unchanged: only the solved systems show that it stepped
            assert same_bits(new_rhs, old_rhs)
    assert exits == {"converged at the start", "singular", "stalled", "non-finite"}


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def classified(hm, delta):
    """The EquilibriumPoint `_classified` makes of one stationary point, or
    None where it is marginal."""
    (point,), _gradient = eq._classified(hm, delta)
    return point


def test_classify_sep_is_type_zero(nominal_ctx):
    assert classified(nominal_ctx.hm, nominal_ctx.sep.delta).type_index == 0


def test_classify_pendulum_saddle(pendulum):
    red, gp = pendulum
    _sep, hm = eq.find_sep(red, gp, np.zeros(1))
    saddle = classified(hm, np.array([np.pi]))
    assert saddle.type_index == 1
    spectrum = saddle.spectrum
    expected = np.sqrt(red.Pbar[0, 1] / gp.M[0])
    assert sorted(np.round(spectrum.real, 9)) == pytest.approx([-expected, expected], rel=1e-9)


def test_classify_marginal_verdict():
    red = ReducedNetwork(n=2, G=np.zeros((2, 2)), B=np.zeros((2, 2)), Pbar=np.zeros((2, 2)), E=np.ones(2))
    gp = GeneratorParams(M=np.array([0.1]), Pm=np.zeros(1), infinite_index=1)
    hm = en.HamiltonianModel.at_anchor(red, gp, np.zeros(1))
    assert classified(hm, np.array([0.4])) is None
    # every angle is stationary and marginal: the SEP search names it
    with pytest.raises(EquilibriumError, match="marginal"):
        eq.find_sep(red, gp, np.array([0.4]))


def test_classify_matches_hessian_inertia(nominal_ctx):
    """Type index equals the count of negative Hessian eigenvalues."""
    ctx = nominal_ctx
    for p in eq.stationary_points(ctx.hm):
        H = ctx.hm.coupling.jacobian(p.delta)
        n_neg = int(np.sum(np.linalg.eigvalsh(H) < 0))
        assert p.type_index == n_neg


def test_stack_classification_keeps_one_call_spectra():
    """The points of one enumeration are classified as one stack, real and
    complex spectra mixed; each keeps the bits and dtype of one eigvals call
    on its own matrix."""
    red, gp = symmetric_three_machine()
    _sep, hm = eq.find_sep(red, gp, np.array([0.3, -0.2]))
    points = eq.stationary_points(hm)
    assert {p.spectrum.dtype.kind for p in points} == {"f", "c"}
    m = gp.n_active
    for p in points:
        A = np.zeros((2 * m, 2 * m))
        A[:m, m:] = np.eye(m)
        A[m:, :m] = -((1.0 / gp.M)[:, None] * hm.coupling.jacobian(p.delta))
        alone = np.linalg.eigvals(A)
        assert p.spectrum.dtype == alone.dtype and same_bits(p.spectrum, alone)


def test_classification_reproducible_by_fresh_eigensolve(nominal_ctx):
    ctx = nominal_ctx
    for p in eq.stationary_points(ctx.hm):
        spectrum = classified(ctx.hm, p.delta).spectrum
        assert int(np.sum(spectrum.real > 1e-9)) == p.type_index


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_pendulum_saddle_energy_gap(pendulum):
    red, gp = pendulum
    sep, hm = eq.find_sep(red, gp, np.zeros(1))
    ueps = saddles(hm)
    assert len(ueps) == 1
    assert ueps[0].delta[0] == pytest.approx(np.pi, abs=1e-9)
    gap = ueps[0].energy - en.potential(hm, sep.delta)
    assert gap == pytest.approx(2.0 * red.Pbar[0, 1], rel=1e-12)


def test_enumeration_matches_denser_grid(nominal_ctx):
    """40x40 and 80x80 multistart grids find the same saddle set."""
    ctx = nominal_ctx
    a = saddles(ctx.hm, grid_density=40)
    b = saddles(ctx.hm, grid_density=80)
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert eq.wrapped_distance(pa.delta, pb.delta) <= 1e-6


def test_every_enumerated_point_satisfies_residual(nominal_ctx):
    ctx = nominal_ctx
    for p in eq.stationary_points(ctx.hm):
        r = en.potential_gradient(ctx.hm, p.delta)
        assert np.max(np.abs(r)) <= 1e-10


def test_equilibrium_count_changes_across_fold(wscc):
    factory = fs.hamiltonian_model_factory(wscc, "8.G")
    before = eq.stationary_points(factory(2.5))
    after = eq.stationary_points(factory(3.2))
    assert len(before) == 2
    assert len(after) == 4


def point_bytes(points):
    return [(p.delta.tobytes(), p.energy, p.type_index) for p in points]


def enumeration_bytes(hm, **kw):
    return point_bytes(eq.stationary_points(hm, **kw))


def full_run_bytes(hm, **kw):
    """The enumeration with every start of every Newton run kept for all of
    its iterations: the parent loop without the stall rule."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eq, "_newton", lambda coupling, drive, starts: parent_newton(coupling, drive, starts, None, set()))
        return enumeration_bytes(hm, **kw)


@pytest.mark.parametrize(
    "part, grid",
    [("B", np.arange(-10.0, 0.0 + 1e-9, 0.5)), ("G", np.arange(0.0, 9.0 + 1e-9, 0.5))],
)
def test_retired_starts_change_no_point(wscc, part, grid):
    """Stall-retired starts give the points and bytes of the full run."""
    factory = fs.hamiltonian_model_factory(wscc, f"8.{part}")
    for value in grid:
        try:
            hm = factory(float(value))
        except InadmissibleScenario:
            continue
        assert enumeration_bytes(hm) == full_run_bytes(hm), value


@st.composite
def anchored_models(draw, machines=st.integers(2, 3)):
    """A random network over 2 or 3 machines whose inputs make a random
    anchor an equilibrium (a point unless the anchor is marginal)."""
    n = draw(machines)
    red, gp = network(draw, n, draw(st.integers(0, n - 1)))
    anchor = draw(arrays(float, n - 1, elements=st.floats(-np.pi, np.pi)))
    gp = replace(gp, Pm=Coupling(red, gp.active).power(anchor))
    return en.HamiltonianModel.at_anchor(red, gp, anchor)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(anchored_models())
def test_retired_starts_change_no_point_on_random_networks(hm):
    assert enumeration_bytes(hm, grid_density=20) == full_run_bytes(hm, grid_density=20)


@pytest.mark.parametrize("value", [None, 3.0, 6.5])
def test_enumeration_is_grid_independent(wscc, nominal_ctx, value):
    """25x25, 40x40 and 80x80 grids give the same points bit for bit."""
    hm = nominal_ctx.hm if value is None else fs.hamiltonian_model_factory(wscc, "8.G")(value)
    a, b, c = (eq.stationary_points(hm, grid_density=d) for d in (25, 40, 80))
    assert len(a) == len(b) == len(c) >= 2
    for pa, pb, pc in zip(a, b, c):
        assert np.array_equal(pa.delta, pb.delta) and np.array_equal(pa.delta, pc.delta)
        assert pa.energy == pb.energy == pc.energy
        assert pa.type_index == pb.type_index == pc.type_index


@pytest.mark.parametrize(
    "m, grid_density, expected",
    [(2, 25, 25), (2, 40, 40), (2, 80, 80), (3, 40, 40), (4, 40, 15), (5, 40, 9)],
)
def test_start_grid_keeps_to_the_budget(m, grid_density, expected):
    """At most 40^3 starts: three machines keep 40 per axis, more get fewer."""
    assert eq._density(m, grid_density) == expected


ACCEPTANCE_RANGES = [
    ("wscc", "8", "B", -10.0, 0.0),
    ("wscc", "6", "B", -10.0, 0.0),
    ("wscc", "8", "G", 0.0, 9.0),
    ("wscc_lossless", "8", "B", -10.0, 0.0),
]


@pytest.mark.parametrize("scenario, bus, part, lo, hi", ACCEPTANCE_RANGES)
def test_seeded_enumeration_equals_full_grid(request, monkeypatch, scenario, bus, part, lo, hi):
    """Every point of an acceptance range at step 0.25, seeded by the point
    before it, gives the full grid's points bit for bit; most points keep
    their seeded result rather than fall back to the full grid."""
    kept = []
    seeded_points = eq._seeded_points

    def counted(*args):
        points = seeded_points(*args)
        kept.append(points is not None)
        return points

    monkeypatch.setattr(eq, "_seeded_points", counted)
    factory = fs.hamiltonian_model_factory(request.getfixturevalue(scenario), f"{bus}.{part}")
    seeds = None
    for value in np.arange(lo, hi + 1e-9, 0.25):
        try:
            hm = factory(float(value))
        except InadmissibleScenario:
            seeds = None
            continue
        seeds = eq.stationary_points(hm, seeds=seeds)
        assert point_bytes(seeds) == enumeration_bytes(hm), value
    assert sum(kept) >= 0.8 * len(kept) > 0


@st.composite
def neighbour_models(draw, machines=st.integers(2, 3)):
    """A random anchored model and its neighbour, whose inputs are moved by
    a random step of up to 0.5, as the next point of a load sweep moves
    them; steps this large make some networks gain roots that no seed
    reaches.  The anchor is a regular equilibrium: an uncoupled network,
    whose every point is a root, would make each grid start a cluster of
    its own."""
    hm = draw(anchored_models(machines))
    assume(abs(np.linalg.det(hm.coupling.jacobian(hm.anchor))) > 1e-6)
    step = np.delete(draw(arrays(float, hm.gp.n, elements=st.floats(-0.5, 0.5))), hm.gp.infinite_index)
    near = en.HamiltonianModel(red=hm.red, gp=replace(hm.gp, Pm=hm.gp.Pm + step), Pa=hm.Pa, anchor=hm.anchor)
    return hm, near


@settings(derandomize=True, max_examples=60, deadline=None)
@given(neighbour_models())
def test_seeded_enumeration_equals_full_grid_on_random_networks(models):
    """One and two modeled angles: the neighbour's points seeded by the
    model's points are the neighbour's full-grid points, bit for bit."""
    hm, near = models
    assert enumeration_bytes(near, seeds=eq.stationary_points(hm)) == enumeration_bytes(near)


@settings(derandomize=True, max_examples=4, deadline=None)
@given(neighbour_models(st.just(4)))
def test_seeded_enumeration_equals_full_grid_with_three_angles(models):
    """Three modeled angles (64,000 full-grid starts against 216 coarse ones).
    Networks whose roots form a continuum are left out: both paths agree on
    them, but with tens of thousands of points each enumeration takes a
    minute."""
    hm, near = models
    assume(len(eq.stationary_points(hm, grid_density=10)) < 100)
    assert enumeration_bytes(near, seeds=eq.stationary_points(hm)) == enumeration_bytes(near)


@pytest.mark.parametrize("part, value, before", [("B", -5.0, -5.25), ("B", -1.0, -1.25), ("G", 3.0, 2.75)])
def test_seeded_enumeration_without_closest_saddle_seed_falls_back(wscc, part, value, before):
    """Seeds that miss the closest saddle still give the full grid's points."""
    factory = fs.hamiltonian_model_factory(wscc, f"8.{part}")
    seeds = eq.stationary_points(factory(before))
    closest = eq.closest_uep(seeds).closest_uep
    seeds = [p for p in seeds if p is not closest]
    hm = factory(value)
    assert enumeration_bytes(hm, seeds=seeds) == enumeration_bytes(hm)


def test_seeded_enumeration_in_doubt(nominal_ctx):
    """A seed that does not converge, or seeds whose closest saddle does not
    lead to the closest saddle found, leave the seeded result in doubt."""
    hm = nominal_ctx.hm
    center = np.asarray(hm.anchor, dtype=float)
    probes = eq._newton(hm.coupling, hm.drive, eq._grid(center - 2.0 * np.pi, center + 2.0 * np.pi, eq._COARSE))
    points = eq.stationary_points(hm)
    (sep,) = [p for p in points if p.type_index == 0]
    (saddle,) = saddles(hm)
    assert eq._seeded_points(hm, center, points, probes) is not None
    lost = replace(sep, delta=np.full_like(sep.delta, 1e300))  # steps of 1 rad move it nowhere
    # a lower "saddle" whose seed converges to the SEP
    decoy = replace(sep, type_index=1, energy=saddle.energy - 1.0)
    for seeds in ([*points, lost], [*points, decoy], [sep, replace(saddle, type_index=2)]):
        assert eq._seeded_points(hm, center, seeds, probes) is None


def stacked_probes_equal_one_stack_runs(factory, values, grid_density=40):
    """Chained enumerations over the values, each seeded by the points of
    the admissible value before it: with the coarse probes of every
    admissible model from one stacked run (`_coarse_probes`), as a branch
    trace runs them, and with one Newton stack of seeds and probes
    (`one_stack_stationary_points`), kept as the oracle.  Asserts the same
    bytes for both, and for the probe rows of both runs; returns how many
    enumerations were seeded."""
    built = eq._builder(factory)(values)
    models = [hm for hm in built if isinstance(hm, en.HamiltonianModel)]
    probes = iter(eq._coarse_probes(models))
    seeds, seeded = None, 0
    for hm in built:
        if not isinstance(hm, en.HamiltonianModel):
            seeds = None
            continue
        X, converged = next(probes)
        if seeds:
            center = np.asarray(hm.anchor, dtype=float)
            grid = eq._grid(center - 2.0 * np.pi, center + 2.0 * np.pi, eq._COARSE)
            X1, converged1 = eq._newton(hm.coupling, hm.drive, np.concatenate([[s.delta for s in seeds], grid]))
            assert same_bits(X, X1[len(seeds) :]) and same_bits(converged, converged1[len(seeds) :])
            seeded += 1
        points = eq.stationary_points(hm, grid_density=grid_density, seeds=seeds, probes=(X, converged))
        seeds = one_stack_stationary_points(hm, seeds, grid_density)
        assert point_bytes(points) == point_bytes(seeds)
    return seeded


@pytest.mark.parametrize("param, prange", [("8.B", (-10.0, 0.0)), ("8.G", (0.0, 9.0))])
def test_stacked_probes_equal_one_stack_run(wscc, param, prange):
    """The acceptance traces' checkpoints, 19 or more of them seeded."""
    lo, hi = prange
    spacing = (hi - lo) * eq._CHECKPOINT_STEP
    checkpoints = [float(cp) for cp in np.arange(lo, hi + 0.5 * spacing, spacing)]
    assert stacked_probes_equal_one_stack_runs(fs.hamiltonian_model_factory(wscc, param), checkpoints) >= 19


@pytest.mark.parametrize("machines", [2, 3, 4])
@settings(derandomize=True, max_examples=6, deadline=None)
@given(data=st.data())
def test_stacked_probes_equal_one_stack_run_on_random_networks(machines, data):
    """One to three modeled angles, with folds and a domain edge; the full
    grid, where a seeded enumeration falls back to it, has 20 points per
    axis."""
    factory = data.draw(model_families(st.just(machines)))
    stacked_probes_equal_one_stack_runs(factory, [float(v) for v in np.linspace(0.0, 1.5, 7)], grid_density=20)


def test_empty_uep_set_is_valid_return(pendulum):
    red, gp = pendulum
    _sep, hm = eq.find_sep(red, gp, np.zeros(1))
    box = (np.array([-0.5]), np.array([0.5]))  # box without the saddle
    assert saddles(hm, box=box, grid_density=10) == []


# ---------------------------------------------------------------------------
# closest UEP
# ---------------------------------------------------------------------------


def test_closest_uep_singleton(nominal_ctx):
    ctx = nominal_ctx
    ueps = saddles(ctx.hm)
    crit = eq.closest_uep(ueps)
    assert crit.closest_uep in tuple(ueps)
    assert crit.E_c == crit.closest_uep.energy


def test_closest_uep_filters_and_is_permutation_invariant(nominal_ctx):
    ctx = nominal_ctx
    pts = eq.stationary_points(ctx.hm)  # includes the SEP (type 0)
    crit_a = eq.closest_uep(pts)
    crit_b = eq.closest_uep(list(reversed(pts)))
    assert np.array_equal(crit_a.closest_uep.delta, crit_b.closest_uep.delta)
    # the SEP in pts has the lower energy, so this holds only if it is filtered out
    assert crit_a.closest_uep.type_index == 1


def test_closest_uep_empty_raises(nominal_ctx):
    with pytest.raises(EquilibriumError, match="no energy boundary"):
        eq.closest_uep([])


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bc_branches(wscc):
    factory = fs.hamiltonian_model_factory(wscc, "8.B")
    return factory, eq.continue_branch(factory, (-6.2, -3.4), initial_step=0.05)


def test_branch_folds_bracket_the_pair(bc_branches):
    _factory, branches = bc_branches
    folds = eq.fold_locations(branches)
    assert len(folds) == 2
    assert folds[0] == pytest.approx(-5.949, abs=0.05)
    assert folds[1] == pytest.approx(-3.822, abs=0.05)


def test_branch_points_satisfy_residual(bc_branches):
    factory, branches = bc_branches
    for br in branches:
        for p, pt in br.points[:: max(1, len(br.points) // 7)]:
            hm = factory(p)
            r = en.potential_gradient(hm, pt.delta)
            assert np.max(np.abs(r)) <= 1e-10


def branch_params(br):
    return np.array([p for p, _pt in br.points])


def nearest_point(br, param, reach):
    """The branch's (parameter, point) nearest to param, or None when the
    branch does not reach within `reach` of param."""
    ps = branch_params(br)
    if not ps.min() - reach <= param <= ps.max() + reach:
        return None
    return br.points[int(np.argmin(np.abs(ps - param)))]


def refit_alone(hm, delta):
    """A one-row corrector run of delta on hm."""
    return eq._correct_rows([hm], np.asarray(delta, dtype=float)[None, :])[0]


def test_branch_checkpoints_coincide_with_enumeration(bc_branches):
    factory, branches = bc_branches
    checkpoint = -4.8
    hm = factory(checkpoint)
    enumerated = eq.stationary_points(hm)
    for e in enumerated:
        hits = []
        for br in branches:
            near = nearest_point(br, checkpoint, 0.05)
            if near is None:
                continue
            refit = refit_alone(hm, near[1].delta)
            if refit is not None:
                hits.append(eq.wrapped_distance(refit.delta, e.delta))
        assert hits and min(hits) <= 1e-6


def covered_alone(hm, cp, delta, branches, reach):
    """The per-seed coverage rule: each branch reaching cp refits its point
    nearest to cp on its own, and the seed is covered by the first branch
    whose nearest point (exactly at cp) or refit lies within 1e-6 of it."""
    for br in branches:
        near = nearest_point(br, cp, reach)
        if near is None:
            continue
        p_near, pt = near
        if abs(p_near - cp) <= 1e-12 and eq.wrapped_distance(pt.delta, delta) <= 1e-6:
            return True
        refit = refit_alone(hm, pt.delta)
        if refit is not None and eq.wrapped_distance(refit.delta, delta) <= 1e-6:
            return True
    return False


def traced_checking_coverage(factory, prange, step):
    """continue_branch with every checkpoint's fresh seeds checked against
    the per-seed rule; the branches, and the number of seeds and of fresh
    seeds at each checkpoint."""
    uncovered, counts = eq._uncovered, []

    def checked(hm, cp, points, branches, reach):
        fresh = uncovered(hm, cp, points, branches, reach)
        alone = [s for s in points if not covered_alone(hm, cp, s.delta, branches, reach)]
        assert [id(s) for s in fresh] == [id(s) for s in alone]
        counts.append((len(points), len(fresh)))
        return fresh

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eq, "_uncovered", checked)
        return eq.continue_branch(factory, prange, initial_step=step), counts


def test_coverage_equals_the_per_seed_rule(wscc):
    """One refit stack per checkpoint finds the fresh seeds that refitting
    per seed and per branch finds, at every checkpoint."""
    factory = fs.hamiltonian_model_factory(wscc, "8.B")
    branches, counts = traced_checking_coverage(factory, (-6.2, -3.4), 0.05)
    assert len(counts) == 21
    assert any(0 < fresh < seeds for seeds, fresh in counts)
    assert sum(fresh for _seeds, fresh in counts) == len(branches)


def test_branch_segment_labels(bc_branches):
    _factory, branches = bc_branches
    types = sorted({pt.type_index for br in branches for _p, pt in br.points})
    assert types == [0, 1, 2]


def test_continue_branch_scenario_signature(wscc):
    branches = eq.continue_branch(wscc, (-4.0, -3.5), initial_step=0.05, param="8.B")
    assert branches and any(br.folds for br in branches)
    with pytest.raises(ValueError, match="parameter path"):
        eq.continue_branch(wscc, (-4.0, -3.5))


@pytest.mark.parametrize(
    "prange, step",
    [((-1.0, 0.0), 0.0), ((-1.0, 0.0), -0.05), ((-1.0, 0.0), float("nan")), ((-1.0, 0.0), float("inf")),
     ((0.0, -1.0), 0.05), ((-1.0, float("inf")), 0.05), ((float("nan"), 0.0), 0.05)],
)
def test_continue_branch_bad_range_or_step_raises(wscc, monkeypatch, prange, step):
    """A zero step would never advance: bad settings raise before any tracing."""
    monkeypatch.setattr(eq, "stationary_points", None)
    with pytest.raises(ValueError, match="finite"):
        eq.continue_branch(wscc, prange, initial_step=step, param="8.B")


def serve_alone(build, requests):
    """A round's requests answered one by one, each by its own model build
    and a one-row Newton run."""
    answers = {}
    for param, asks in requests.items():
        for i, guess in asks:
            (model,) = build([param])
            answers[i] = refit_alone(model, guess) if isinstance(model, en.HamiltonianModel) else model
    return answers


def branch_bytes(branches):
    return [
        (
            branch_params(br).tobytes(),
            [(pt.delta.tobytes(), pt.energy, pt.type_index) for _p, pt in br.points],
            br.folds,
        )
        for br in branches
    ]


def traced_alone(factory, prange, step):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eq, "_round", serve_alone)
        return eq.continue_branch(factory, prange, initial_step=step)


def counting(factory):
    """The factory, and the list of values it is called at."""
    calls = []

    def counted(value):
        calls.append(value)
        return factory(value)

    return counted, calls


def failing_at(factory, failing):
    def model(value):
        if failing(value):
            raise InadmissibleScenario(f"no model at {value!r}", code="singular-network")
        return factory(value)

    return model


def test_lockstep_trace_equals_tracing_alone(bc_branches):
    """One model and one Newton stack per value give the bytes of tracing
    each branch on its own."""
    factory, branches = bc_branches
    assert branch_bytes(branches) == branch_bytes(traced_alone(factory, (-6.2, -3.4), 0.05))


@pytest.mark.parametrize(
    "failing",
    # the first forward step of every seed at the first checkpoint; and a
    # domain edge that every branch reaching -4.0 runs into
    [lambda value: value == -6.2 + 0.05, lambda value: value > -4.0],
    ids=["one-shared-value", "domain-edge"],
)
def test_factory_exception_answers_every_request_at_its_value(wscc, failing):
    """Each value where the factory fails is shared by two branches, and is
    asked for once; its exception also decides a domain edge there."""
    factory = failing_at(fs.hamiltonian_model_factory(wscc, "8.B"), failing)
    runs = []
    for trace in (eq.continue_branch, traced_alone):
        counted, calls = counting(factory)
        runs.append((branch_bytes(trace(counted, (-6.2, -3.4), 0.05)), [v for v in calls if failing(v)]))
    (lockstep, failed), (alone, failed_alone) = runs
    assert lockstep == alone
    assert failed and sorted(failed) == sorted(set(failed_alone))
    assert len(failed_alone) > len(failed)


@st.composite
def model_families(draw, machines=st.integers(2, 3)):
    """A random anchored model whose inputs move along a random direction
    with the parameter; past a random cutoff it has no model at all."""
    hm = draw(anchored_models(machines))
    assume(abs(np.linalg.det(hm.coupling.jacobian(hm.anchor))) > 1e-6)
    direction = np.delete(draw(arrays(float, hm.gp.n, elements=st.floats(-1.0, 1.0))), hm.gp.infinite_index)
    cutoff = draw(st.floats(0.5, 1.5))

    def factory(value):
        if value > cutoff:
            raise InadmissibleScenario("past the cutoff", code="no-sep")
        gp = replace(hm.gp, Pm=hm.gp.Pm + value * direction)
        return en.HamiltonianModel(red=hm.red, gp=gp, Pa=hm.Pa, anchor=hm.anchor)

    return factory


@settings(derandomize=True, max_examples=12, deadline=None)
@given(model_families())
def test_lockstep_trace_equals_tracing_alone_on_random_networks(factory):
    """One and two modeled angles, with folds and a domain edge."""
    lockstep = eq.continue_branch(factory, (0.0, 1.0), initial_step=0.1)
    assert branch_bytes(lockstep) == branch_bytes(traced_alone(factory, (0.0, 1.0), 0.1))


@settings(derandomize=True, max_examples=12, deadline=None)
@given(model_families())
def test_coverage_equals_the_per_seed_rule_on_random_networks(factory):
    """One and two modeled angles, with folds and a domain edge."""
    branches, counts = traced_checking_coverage(factory, (0.0, 1.0), 0.1)
    assert sum(fresh for _seeds, fresh in counts) == len(branches)


def test_branch_trace_factory_calls(wscc):
    """The acceptance range asks for one model per distinct value, plus one
    for the value that is both a checkpoint and a trace step.  Tracing each
    branch on its own made 597 calls here, for 403 distinct values."""
    counted, calls = counting(fs.hamiltonian_model_factory(wscc, "8.B"))
    eq.continue_branch(counted, (-10.0, 0.0), initial_step=0.05)
    assert len(calls) == 404
    assert len(set(calls)) == 403


@pytest.mark.parametrize(
    "param, prange", [("8.B", (-10.0, 0.0)), ("8.G", (0.0, 9.0)), ("6.B", (-10.0, 0.0)), ("2.B", (-1.0, 0.0))]
)
def test_pipelined_trace_equals_serial_trace(wscc, param, prange):
    """Seeding a checkpoint as soon as every earlier forward trace has
    passed it gives the branches of tracing one checkpoint after the other,
    bit for bit."""
    factory = fs.hamiltonian_model_factory(wscc, param)
    assert branch_bytes(eq.continue_branch(factory, prange)) == branch_bytes(serial_continue_branch(factory, prange))


@settings(derandomize=True, max_examples=12, deadline=None)
@given(model_families())
def test_pipelined_trace_equals_serial_trace_on_random_networks(factory):
    """One and two modeled angles, with folds and a domain edge."""
    pipelined = eq.continue_branch(factory, (0.0, 1.0), initial_step=0.1)
    assert branch_bytes(pipelined) == branch_bytes(serial_continue_branch(factory, (0.0, 1.0), 0.1))


def test_pipelined_trace_rounds(wscc, monkeypatch):
    """The acceptance range runs in 200 rounds, where tracing one checkpoint
    after the other takes 310, and some rounds build several values."""
    rounds, serve = [], eq._round

    def counted(build, requests):
        rounds.append(len(requests))
        return serve(build, requests)

    monkeypatch.setattr(eq, "_round", counted)
    eq.continue_branch(fs.hamiltonian_model_factory(wscc, "8.B"), (-10.0, 0.0))
    assert len(rounds) <= 200
    assert max(rounds) >= 3


@pytest.mark.parametrize("param, prange", [("8.B", (-10.0, 0.0)), ("8.G", (0.0, 9.0))])
def test_branch_trace_builds_ahead(wscc, monkeypatch, param, prange):
    """Every checkpoint's model in one build, and a steady branch's next
    values with the one it misses: the acceptance traces make 57 (8.B) and
    60 (8.G) model steps, where one per round made 202 and 198, and build
    1.06 and 1.12 times the distinct values they ask for.  After each
    accepted step a tracer asks for the first value it announced, bit for
    bit, and announces the rest again."""
    steps, asked, models, serve, trace = [], set(), fs.LoadFamily.models, eq._round, eq._trace
    announced = []

    def checked_trace(branch, p_stop, step):
        tracer, answer, before = trace(branch, p_stop, step), None, []
        while True:
            try:
                value, guess, ahead = tracer.send(answer)
            except StopIteration:
                return
            if isinstance(answer, eq.EquilibriumPoint) and before:
                assert value.hex() == before[0].hex()
                assert [a.hex() for a in ahead[: len(before) - 1]] == [a.hex() for a in before[1:]]
            announced.append(len(ahead))
            before = ahead
            answer = yield value, guess, ahead

    def counted_models(family, values):
        steps.append(list(values))
        return models(family, values)

    def counted_round(build, requests):
        asked.update(requests)
        return serve(build, requests)

    monkeypatch.setattr(fs.LoadFamily, "models", counted_models)
    monkeypatch.setattr(eq, "_round", counted_round)
    monkeypatch.setattr(eq, "_trace", checked_trace)
    eq.continue_branch(fs.hamiltonian_model_factory(wscc, param), prange)
    assert max(announced) >= 50
    asked.update(steps[0])  # the checkpoints
    assert len(steps) <= 70
    assert sum(map(len, steps)) <= 1.15 * len(asked)
