"""Three-regime fault studies: predicates, binary search, orchestration."""

import dataclasses
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from conftest import cct, fault_on, stable, with_part
from swingcct import energy as en
from swingcct import equilibria as eq
from swingcct import faultstudy as fs
from swingcct import netmodel as nm
from swingcct import swing as sw
from swingcct.errors import (
    EquilibriumError,
    InadmissibleScenario,
    IntegrationError,
    NetworkError,
    ScenarioFormatError,
)


def null_fault_context(ctx):
    """Context whose fault-on regime equals the pre-fault network."""
    fom = en.FaultOnHamiltonianModel.at_prefault(ctx.red_pre, ctx.gp, ctx.x_pre[:2])
    return replace(ctx, fom=fom)


# ---------------------------------------------------------------------------
# first-swing predicate
# ---------------------------------------------------------------------------


def test_stable_at_instant_clearing(nominal_ctx, nominal_fault_on):
    assert stable(nominal_ctx, nominal_fault_on, 0.0)


def test_unstable_at_long_clearing(nominal_ctx, nominal_fault_on):
    assert not stable(nominal_ctx, nominal_fault_on, 0.5)


def test_divergent_trajectory_is_unstable(nominal_ctx):
    """A clearing time far past critical sends angle pairs beyond pi."""
    ctx = nominal_ctx
    traj = fault_on(ctx, 0.4)
    field = sw.swing_field(ctx.red_post, ctx.gp)
    post = sw.integrate(field, traj.sample([0.4])[0], 2.0)
    cp = ctx.hm.coupling
    exc = fs._pair_excursions(cp, post.sample(np.linspace(0, 2.0, 400)), cp.diffs(ctx.sep.delta)[cp.pairs])
    assert exc.max() >= np.pi  # confirms the mechanism behind the verdict
    assert not stable(ctx, traj, 0.4)


def test_scenario_level_predicate(wscc):
    ctx = fs.build_context(wscc)
    fo = fault_on(ctx, 1.0)
    assert stable(ctx, fo, 0.05)
    with pytest.raises(ValueError):
        stable(ctx, fo, -1.0)
    with pytest.raises(ValueError, match="outside the fault-on run"):
        stable(ctx, fo, 1.5)


# ---------------------------------------------------------------------------
# true CCT
# ---------------------------------------------------------------------------


def test_true_cct_brackets_nominal(nominal_ctx, nominal_fault_on):
    t, verdict = cct(nominal_ctx, nominal_fault_on, resolution=1e-4)
    assert verdict is None
    assert 0.092 <= t <= 0.122


def test_true_cct_bracket_width(nominal_ctx, nominal_fault_on):
    resolution = 5e-4
    t, _ = cct(nominal_ctx, nominal_fault_on, resolution=resolution)
    # lower endpoint of the final bracket: stable here, unstable at + width
    assert stable(nominal_ctx, nominal_fault_on, t)
    assert not stable(nominal_ctx, nominal_fault_on, t + resolution)


def serial_bisection(ctx, fo, resolution=1e-4, horizon=1.0):
    """Plain bisection on one-row verdicts: the search true_cct must reproduce."""
    if not stable(ctx, fo, 0.0):
        return 0.0, "unstable-at-zero"
    if stable(ctx, fo, horizon):
        return fs.UNBOUNDED, None
    lo, hi = 0.0, horizon
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if stable(ctx, fo, mid):
            lo = mid
        else:
            hi = mid
    return lo, None


def test_lockstep_true_cct_equals_serial_bisection(wscc, nominal_ctx, nominal_fault_on):
    ctxs = [nominal_ctx] + [fs.build_context(with_part(wscc, "8", "G", g)) for g in (1.0, 5.0, 7.0)]
    fault_ons = [nominal_fault_on] + [fault_on(c, 2.0) for c in ctxs[1:]]
    lockstep = fs.true_cct(ctxs, fault_ons)
    assert lockstep == [serial_bisection(c, fo) for c, fo in zip(ctxs, fault_ons)]
    # one open point checks 5 bisection levels per round, two check 4
    assert cct(ctxs[2], fault_ons[2]) == lockstep[2]
    assert fs.true_cct(ctxs[1:3], fault_ons[1:3]) == lockstep[1:3]


def window_verdict(ctx, fo, t_cl):
    """The first-swing rule on one full-window integrate run sampled every 5 ms."""
    run = sw.integrate(sw.swing_field(ctx.red_post, ctx.gp), fo.sample([t_cl])[0], fs.WINDOW)
    ts = np.append(np.arange(0.0, fs.WINDOW, fs.SAMPLE_STEP), fs.WINDOW)
    cp = ctx.hm.coupling
    exc = fs._pair_excursions(cp, run.sample(ts), cp.diffs(ctx.sep.delta)[cp.pairs])
    prior = np.maximum.accumulate(np.vstack([np.zeros((1, exc.shape[1])), exc[:-1]]), axis=0)
    returned = np.any(exc < prior - 1e-2, axis=0)
    return bool(np.all(exc < fs.DIVERGENCE_THRESHOLD) and np.all(returned | (exc.max(axis=0) < fs.SMALL_SWING)))


def test_streamed_verdicts_equal_full_window_runs(nominal_ctx, nominal_fault_on, monkeypatch):
    """Verdicts checked block by block as the steps arrive equal the rule on
    whole runs, and a row's verdict is the same alone and in a stack whose
    diverging rows are retired."""
    stacks = []
    take = sw.SwingField.take
    monkeypatch.setattr(sw.SwingField, "take", lambda self, rows: stacks.append(len(rows)) or take(self, rows))
    t_cl = np.linspace(0.0, 0.3, 40)
    (streamed,) = fs.first_swing_stable([nominal_ctx], [nominal_fault_on], [t_cl])
    assert stacks[0] == 40 and min(stacks) < 40  # rows left the stack
    assert 0 < streamed.sum() < 40
    assert streamed.tolist() == [window_verdict(nominal_ctx, nominal_fault_on, t) for t in t_cl]
    assert streamed.tolist() == [stable(nominal_ctx, nominal_fault_on, t) for t in t_cl]


def test_batched_verdicts_equal_single_verdicts(nominal_ctx, nominal_fault_on):
    t_cl = [0.0, 0.05, 0.12, 0.3, 0.11]
    (batch,) = fs.first_swing_stable([nominal_ctx], [nominal_fault_on], [t_cl])
    assert batch.tolist() == [stable(nominal_ctx, nominal_fault_on, t) for t in t_cl]
    assert batch.tolist() == [True, True, False, False, True]


def test_null_fault_unbounded(nominal_ctx):
    ctx = null_fault_context(nominal_ctx)
    fo = fault_on(ctx, 2.0)
    t, verdict = cct(ctx, fo, horizon=0.5)
    assert t == fs.UNBOUNDED and verdict is None
    got = en.tau_H(ctx.hm, ctx.crit.E_c, fo)
    assert got == en.NO_CROSSING
    with pytest.raises(ValueError, match="before the horizon"):
        cct(ctx, fault_on(ctx, 0.5), horizon=1.0)


def test_unstable_at_zero_flag(wscc):
    """Large load conductance: post-fault system cannot hold the pre-fault point."""
    sc = wscc.with_load("8", complex(8.0, -0.1601))
    result = fs.run_fault_study(sc, resolution=5e-4)
    assert result.admissible
    assert result.tau == 0.0
    assert result.verdicts.get("tau") == "unstable-at-zero"


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def test_nominal_study_matches_reported_cct(wscc):
    result = fs.run_fault_study(wscc)
    assert result.admissible
    assert result.tau == pytest.approx(0.107, abs=0.015)
    assert result.delta_E > 0
    assert result.E_c == result.closest_uep.energy
    assert isinstance(result.tau_H, float) and isinstance(result.tau_A, float)


def test_study_integrates_fault_on_once(wscc, monkeypatch):
    """tau and tau_H read one fault-on trajectory."""
    calls = []
    original = en.fault_on_trajectory

    def counted(*args, **kwargs):
        calls.append(args[3])
        return original(*args, **kwargs)

    monkeypatch.setattr(en, "fault_on_trajectory", counted)
    result = fs.run_fault_study(wscc, resolution=5e-4)
    assert isinstance(result.tau, float) and isinstance(result.tau_H, float)
    assert calls == [2.0]


def test_study_makes_three_verdict_rounds(wscc, monkeypatch):
    """One open point checks 5 bisection levels per round: 14 levels to 1e-4 s in 3 rounds."""
    calls = []
    original = fs.first_swing_stable

    def counted(*args, **kwargs):
        calls.append(sum(len(t) for t in args[2]))
        return original(*args, **kwargs)

    monkeypatch.setattr(fs, "first_swing_stable", counted)
    result = fs.run_fault_study(wscc)
    assert isinstance(result.tau, float)
    assert calls == [33, 31, 15]


@pytest.mark.parametrize("name", ["resolution", "horizon", "tol"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_search_setting_raises(wscc, nominal_ctx, nominal_fault_on, monkeypatch, name, value):
    """A resolution, horizon or tol that is not positive and finite raises
    before any verdict is computed (resolution <= 0 would never end)."""
    monkeypatch.setattr(fs, "first_swing_stable", None)
    with pytest.raises(ValueError, match="must be positive and finite"):
        cct(nominal_ctx, nominal_fault_on, **{name: value})
    with pytest.raises(ValueError, match="must be positive and finite"):
        fs.run_fault_study(wscc, **{name: value})


def test_fault_on_integration_failure_verdict(wscc, monkeypatch):
    """A failed fault-on run names tau and tau_H; the closed-form metrics stay."""
    original = en.fault_on_trajectory

    def fail(*args, **kwargs):
        # every row's step size collapsed
        return [IntegrationError("step size underflow", time=0.1) for _ in original(*args, **kwargs)]

    monkeypatch.setattr(en, "fault_on_trajectory", fail)
    result = fs.run_fault_study(wscc)
    assert result.admissible
    assert result.tau is None and result.tau_H is None
    assert result.verdicts == {"tau": "integration-failed", "tau_H": "integration-failed"}
    assert isinstance(result.tau_A, float)
    assert isinstance(result.delta_E, float) and isinstance(result.E_c, float)


def test_failed_fault_on_row_fails_alone(wscc, monkeypatch):
    """In a stack whose row 0 fault-on run fails, that row names tau and
    tau_H and row 1 equals its own study."""
    solo = fs.run_fault_study(wscc, resolution=5e-4)
    original = en.fault_on_trajectory

    def fail_first(*args, **kwargs):
        return [IntegrationError("step size underflow", time=0.1)] + original(*args, **kwargs)[1:]

    monkeypatch.setattr(en, "fault_on_trajectory", fail_first)
    builds = [partial(fs.build_context, sc) for sc in (with_part(wscc, "8", "B", -0.5), wscc)]
    failed, ok = fs.run_studies(builds, resolution=5e-4)
    assert failed.admissible and failed.tau is None and failed.tau_H is None
    assert failed.verdicts == {"tau": "integration-failed", "tau_H": "integration-failed"}
    for name in ("admissible", "tau", "tau_H", "tau_A", "delta_E", "E_c", "verdicts"):
        assert getattr(ok, name) == getattr(solo, name), name
    assert np.array_equal(ok.closest_uep.delta, solo.closest_uep.delta)


def test_three_machine_study(three_machine):
    """Three modeled machines against an infinite bus: an admissible study
    whose metrics are all numbers."""
    result = fs.run_fault_study(three_machine)
    assert result.admissible and result.verdicts == {}
    for name in ("tau", "tau_H", "tau_A", "delta_E", "E_c"):
        assert isinstance(getattr(result, name), float), name
    assert result.closest_uep.delta.shape == (3,)


def test_zero_margin_is_negative_margin(wscc, monkeypatch):
    """dE == 0 leaves no room for tau_A; the study names it instead of raising."""
    monkeypatch.setattr(en, "energy_margin", lambda *args: 0.0)
    result = fs.run_fault_study(wscc)
    assert not result.admissible
    assert result.delta_E == 0.0
    assert result.verdicts == {"scenario": "negative-margin"}
    assert result.tau is None and result.tau_H is None and result.tau_A is None


def test_optimum_susceptance_study(wscc):
    """Fault study at the reported optimum load-C susceptance."""
    result = fs.run_fault_study(wscc.with_load("8", complex(0.969, -8.2)))
    assert result.tau == pytest.approx(0.170, abs=0.02)


def test_inadmissible_dispatch_reported():
    """A scenario whose dispatch makes a machine a motor is flagged, not run."""
    from swingcct.netmodel import Branch, Bus, BusNetwork, Generator

    net = BusNetwork(
        buses=(Bus("g", "generator"), Bus("inf", "infinite")),
        branches=(Branch(id="gi", from_bus="g", to_bus="inf", y_series=-5j),),
        shunt_loads={},
        generators={
            "g": Generator(bus="g", emf=1.0, xd_prime=0.2, inertia=3.0),
            "inf": Generator(bus="inf", emf=1.0, xd_prime=0.1, inertia=20.0),
        },
        frequency=60.0,
    )
    sc = fs.FaultScenario(
        net=net, fault_bus="g", clearing_branch="gi", prefault_angles={"g": -0.2}
    )
    with pytest.warns(UserWarning, match="islands"):
        result = fs.run_fault_study(sc)
    assert not result.admissible
    assert result.verdicts["scenario"] == "pm-nonpositive"
    assert result.tau is None and result.tau_H is None and result.tau_A is None


@pytest.mark.parametrize("branch", ["1-4", "2-7", "3-9"])
def test_islanding_clearing_is_no_sep(wscc, branch):
    """Clearing a generator's only line islands its machine: the study warns
    and ends in the no-sep verdict, not a traceback."""
    with pytest.warns(UserWarning, match="islands"):
        result = fs.run_fault_study(replace(wscc, clearing_branch=branch))
    assert not result.admissible
    assert result.verdicts == {"scenario": "no-sep"}
    assert result.message.startswith("no post-fault SEP")
    assert result.tau is None and result.tau_H is None and result.tau_A is None


def test_non_finite_prefault_angle_is_bad_angles(wscc):
    """A scenario built in code with a NaN angle ends in a verdict, not a traceback."""
    sc = replace(wscc, prefault_angles={**wscc.prefault_angles, "2": float("nan")})
    result = fs.run_fault_study(sc)
    assert not result.admissible
    assert result.verdicts == {"scenario": "bad-angles"}


def test_no_sep_scenario_flagged(wscc):
    sc = wscc.with_load("8", complex(9.0, -0.1601))
    result = fs.run_fault_study(sc)
    assert not result.admissible
    assert result.verdicts["scenario"] == "no-sep"


def test_determinism(wscc):
    a = fs.run_fault_study(wscc, resolution=5e-4)
    b = fs.run_fault_study(wscc, resolution=5e-4)
    assert a.tau == b.tau
    assert a.tau_H == b.tau_H
    assert a.tau_A == b.tau_A
    assert a.delta_E == b.delta_E
    assert np.array_equal(a.closest_uep.delta, b.closest_uep.delta)


def test_regimes_shapes(wscc):
    red_pre, red_on, red_post = fs.regimes(wscc)
    assert red_pre.n == red_on.n == red_post.n == 3
    # machine 1 (bus 2) is cut off while the fault is on
    assert np.all(red_on.Pbar[1, :] == 0.0)
    # clearing removes one line: pre and post differ
    assert not np.allclose(red_pre.B, red_post.B)


# ---------------------------------------------------------------------------
# the load family: the model factory and the sweep's contexts
# ---------------------------------------------------------------------------


def rebuilt_model(sc, bus, part, value):
    """The factory's model the long way: a new network for the value, then
    clearing, Kron reduction, the machine constants, dispatch and the SEP
    search."""
    sc_p = with_part(sc, bus, part, value)
    red_pre, red_post = (nm.reduce_to_generators(net) for net in (sc_p.net, nm.apply_clearing(sc_p.net, sc_p.clearing_branch)))
    gens = sc_p.net.generator_buses
    inf = gens.index(sc_p.net.infinite_bus)
    modeled = [b for i, b in enumerate(gens) if i != inf]
    delta_pre = np.array([sc_p.prefault_angles[b] for b in modeled])
    M = np.array([2.0 * sc_p.net.generators[b].inertia / (2.0 * np.pi * sc_p.net.frequency) for b in modeled])
    gp = sw.GeneratorParams(M=M, Pm=sw.dispatch_from_angles(red_pre, delta_pre, inf), infinite_index=inf)
    try:
        return eq.find_sep(red_post, gp, delta_pre)[1]
    except EquilibriumError as exc:
        raise InadmissibleScenario(f"no post-fault SEP: {exc}", code="no-sep") from exc


def model_bytes(hm):
    return [np.asarray(a).tobytes() for a in (hm.red.G, hm.red.B, hm.red.Pbar, hm.red.E, hm.gp.Pm, hm.Pa, hm.anchor)]


@pytest.mark.parametrize(
    "param, values",
    [
        ("8.B", np.linspace(-10.0, 0.0, 9)),
        ("8.G", np.linspace(0.0, 8.5, 9)),
        ("6.B", np.linspace(-10.0, 0.0, 9)),
        # a generator bus without a base load; at -0.7, -0.3 and -0.05 the
        # sum of its diagonal entry depends on the order of the stamps
        ("2.B", [-1.0, -0.7, -0.3, -0.05, 0.0]),
    ],
)
def test_factory_equals_rebuilt_network(wscc, param, values):
    """The factory's template gives the bits of a network rebuilt per value."""
    bus, part = param.split(".")
    factory = fs.hamiltonian_model_factory(wscc, param)
    for value in map(float, values):
        assert model_bytes(factory(value)) == model_bytes(rebuilt_model(wscc, bus, part, value)), value


def field_bits(x):
    """The compared fields of a (nested) dataclass, numbers and arrays as bytes."""
    if dataclasses.is_dataclass(x):
        return {f.name: field_bits(getattr(x, f.name)) for f in dataclasses.fields(x) if f.compare}
    if isinstance(x, (list, tuple)):
        return [field_bits(v) for v in x]
    return type(x).__name__, np.shape(x), np.asarray(x).tobytes()


@pytest.mark.parametrize(
    "param, values",
    [
        ("8.B", [-8.2, -3.0, 0.0]),
        ("8.G", [0.0, 6.0, 9.0]),
        ("6.B", [-10.0, -2.0]),
        ("2.B", [-0.7, -0.05]),
        # the faulted bus: the fault-on regime grounds the swept load
        ("7.B", [-2.0, -0.5]),
        # three modeled machines; bus 1 is a generator bus without a base
        # load, and at both values the sum of its diagonal entry depends on
        # the order of the stamps
        pytest.param(("three_machine", "8.B"), [-3.0], id="three-machine-8.B"),
        pytest.param(("three_machine", "1.B"), [-0.7, -0.35], id="three-machine-1.B"),
    ],
)
def test_sweep_context_equals_rebuilt_scenario(request, param, values):
    """A sweep point's context is build_context of the scenario rebuilt with
    its value, field by field and bit for bit; where that is inadmissible,
    the point is too, with the same code and message.  A (fixture, path)
    param sweeps the scenario of that fixture instead of the bundled one."""
    case, param = param if isinstance(param, tuple) else ("wscc", param)
    sc = request.getfixturevalue(case)
    bus, part = param.split(".")
    family = fs.LoadFamily(sc, param)
    for value in values:
        try:
            want = fs.build_context(with_part(sc, bus, part, value))
        except InadmissibleScenario as exc:
            with pytest.raises(InadmissibleScenario) as err:
                family.context(value)
            assert (err.value.code, str(err.value)) == (exc.code, str(exc))
            continue
        got = family.context(value)
        for name in ("red_pre", "red_post", "gp", "x_pre", "sep", "hm", "points", "crit", "delta_E"):
            assert field_bits(getattr(got, name)) == field_bits(getattr(want, name)), (value, name)
        for name in ("red_on", "Pa_on"):
            assert field_bits(getattr(got.fom, name)) == field_bits(getattr(want.fom, name)), (value, name)


@pytest.mark.parametrize("fault_bus", ["99", "1"])
def test_branch_trace_needs_no_fault_on_regime(wscc, fault_bus):
    """A fault bus that does not exist, or the infinite bus, fails a study
    but not an equilibrium trace, which has no fault-on regime."""
    sc = replace(wscc, fault_bus=fault_bus)
    with pytest.raises(NetworkError, match="fault"):
        fs.run_fault_study(sc)
    traced = eq.continue_branch(sc, (-1.0, 0.0), param="8.B")
    nominal = eq.continue_branch(wscc, (-1.0, 0.0), param="8.B")
    assert len(traced) == 2
    assert [field_bits(br) for br in traced] == [field_bits(br) for br in nominal]


def test_factory_no_sep_matches_rebuilt_network(wscc):
    with pytest.raises(InadmissibleScenario) as rebuilt:
        rebuilt_model(wscc, "8", "G", 9.0)
    with pytest.raises(InadmissibleScenario) as templated:
        fs.hamiltonian_model_factory(wscc, "8.G")(9.0)
    assert templated.value.code == rebuilt.value.code == "no-sep"
    assert str(templated.value) == str(rebuilt.value)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_factory_rejects_non_finite_load(wscc, value):
    with pytest.raises(NetworkError, match="non-finite matrix entry"):
        fs.hamiltonian_model_factory(wscc, "8.B")(value)


@pytest.mark.parametrize("bus, part", [("99", "B"), ("8", "X"), ("8", "g")])
def test_factory_checked_when_made(wscc, bus, part):
    with pytest.raises(ScenarioFormatError, match="param path"):
        fs.hamiltonian_model_factory(wscc, f"{bus}.{part}")


def test_factory_warns_islanding_once(wscc):
    """Clearing a generator's only line islands it: one warning per factory,
    and every value ends in no-sep without warning again."""
    with pytest.warns(UserWarning, match="islands") as record:
        factory = fs.hamiltonian_model_factory(replace(wscc, clearing_branch="2-7"), "8.B")
    assert len(record) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in (-1.0, -0.5, 0.0):
            with pytest.raises(InadmissibleScenario, match="no post-fault SEP"):
                factory(value)


def test_factory_bad_angles_at_every_value(wscc):
    """A scenario without a modeled machine's angle is inadmissible at every
    value, so a branch trace finds no branch rather than failing."""
    angles = {k: v for k, v in wscc.prefault_angles.items() if k != "2"}
    factory = fs.hamiltonian_model_factory(replace(wscc, prefault_angles=angles), "8.B")
    for value in (-1.0, 0.0):
        with pytest.raises(InadmissibleScenario, match="missing pre-fault angle") as err:
            factory(value)
        assert err.value.code == "bad-angles"
    assert eq.continue_branch(factory, (-1.0, 0.0)) == []
