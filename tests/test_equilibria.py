"""Equilibrium location, saddle classification, and branch continuation."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import smib
from test_coupling import network
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
        M=np.array([0.1, 0.1, np.inf]),
        Pm=np.zeros(3),
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
    act = ctx.gp.active
    r = ctx.gp.Pm[act] - Coupling(ctx.red_post, act).power(ctx.sep.delta)[act]
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
# classification
# ---------------------------------------------------------------------------


def test_classify_sep_is_type_zero(nominal_ctx):
    assert eq._equilibrium_point(nominal_ctx.hm, nominal_ctx.sep.delta).type_index == 0


def test_classify_pendulum_saddle(pendulum):
    red, gp = pendulum
    _sep, hm = eq.find_sep(red, gp, np.zeros(1))
    assert eq._equilibrium_point(hm, np.array([np.pi])).type_index == 1
    spectrum = eq._spectrum(hm, np.array([np.pi]))
    expected = np.sqrt(red.Pbar[0, 1] / gp.M[0])
    assert sorted(np.round(spectrum.real, 9)) == pytest.approx([-expected, expected], rel=1e-9)


def test_classify_marginal_verdict():
    red = ReducedNetwork(n=2, G=np.zeros((2, 2)), B=np.zeros((2, 2)), Pbar=np.zeros((2, 2)), E=np.ones(2))
    gp = GeneratorParams(M=np.array([0.1, np.inf]), Pm=np.zeros(2), infinite_index=1)
    hm = en.HamiltonianModel.at_anchor(red, gp, np.zeros(1))
    with pytest.raises(EquilibriumError, match="marginal"):
        eq._equilibrium_point(hm, np.array([0.4]))


def test_classify_matches_hessian_inertia(nominal_ctx):
    """Type index equals the count of negative Hessian eigenvalues."""
    ctx = nominal_ctx
    for p in eq.stationary_points(ctx.hm):
        H = ctx.hm.coupling.jacobian(p.delta)
        n_neg = int(np.sum(np.linalg.eigvalsh(H) < 0))
        assert p.type_index == n_neg


def test_classification_reproducible_by_fresh_eigensolve(nominal_ctx):
    ctx = nominal_ctx
    for p in eq.stationary_points(ctx.hm):
        spectrum = eq._spectrum(ctx.hm, p.delta)
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
    factory = fs.hamiltonian_model_factory(wscc, "8", "G")
    before = eq.stationary_points(factory(2.5))
    after = eq.stationary_points(factory(3.2))
    assert len(before) == 2
    assert len(after) == 4


def enumeration_bytes(hm, **kw):
    return [(p.delta.tobytes(), p.energy, p.type_index) for p in eq.stationary_points(hm, **kw)]


def full_run_bytes(hm, **kw):
    """The enumeration with every start kept for all of its iterations."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eq, "_STALL", None)
        return enumeration_bytes(hm, **kw)


@pytest.mark.parametrize(
    "part, grid",
    [("B", np.arange(-10.0, 0.0 + 1e-9, 0.5)), ("G", np.arange(0.0, 9.0 + 1e-9, 0.5))],
)
def test_retired_starts_change_no_point(wscc, part, grid):
    """Stall-retired starts give the points and bytes of the full run."""
    factory = fs.hamiltonian_model_factory(wscc, "8", part)
    for value in grid:
        try:
            hm = factory(float(value))
        except InadmissibleScenario:
            continue
        assert enumeration_bytes(hm) == full_run_bytes(hm), value


@st.composite
def anchored_models(draw):
    """A random network over 2 or 3 machines whose inputs make a random
    anchor an equilibrium (a point unless the anchor is marginal)."""
    n = draw(st.integers(2, 3))
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
    hm = nominal_ctx.hm if value is None else fs.hamiltonian_model_factory(wscc, "8", "G")(value)
    a, b, c = (eq.stationary_points(hm, grid_density=d) for d in (25, 40, 80))
    assert len(a) == len(b) == len(c) >= 2
    for pa, pb, pc in zip(a, b, c):
        assert np.array_equal(pa.delta, pb.delta) and np.array_equal(pa.delta, pc.delta)
        assert pa.energy == pb.energy == pc.energy
        assert pa.type_index == pb.type_index == pc.type_index


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
    factory = fs.hamiltonian_model_factory(wscc, "8", "B")
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


def test_branch_checkpoints_coincide_with_enumeration(bc_branches):
    factory, branches = bc_branches
    checkpoint = -4.8
    hm = factory(checkpoint)
    enumerated = eq.stationary_points(hm)
    for e in enumerated:
        hits = []
        for br in branches:
            if not br.covers(checkpoint, slack=0.05):
                continue
            _p, pt = br.nearest(checkpoint)
            refit = eq._correct(hm, pt.delta)
            if refit is not None:
                hits.append(eq.wrapped_distance(refit.delta, e.delta))
        assert hits and min(hits) <= 1e-6


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
