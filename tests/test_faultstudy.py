"""Three-regime fault studies: predicates, binary search, orchestration."""

import dataclasses
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    cct, fault_on, full_fold_check, per_value_contexts, rebuilt_reduction, round_true_cct, serial_tau_H, stable,
    with_part,
)
from test_coupling import network
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


@pytest.fixture(scope="module")
def search_cases(wscc, nominal_ctx, nominal_fault_on, three_machine):
    """(contexts, fault-on runs, true_cct settings) of the searches the round
    search is the oracle of."""
    four = [nominal_ctx] + [fs.build_context(with_part(wscc, "8", "G", g)) for g in (1.0, 5.0, 7.0)]
    three = fs.build_context(three_machine)
    at_zero = fs.build_context(with_part(wscc, "8", "G", 8.0))
    null = null_fault_context(nominal_ctx)
    return {
        "four-points": (four, [nominal_fault_on] + [fault_on(c, 2.0) for c in four[1:]], {}),
        "three-machine": ([three], [fault_on(three, 1.0)], {}),
        "unstable-at-zero": ([at_zero], [fault_on(at_zero, 1.0)], {"resolution": 5e-4}),
        "null-fault": ([null], [fault_on(null, 2.0)], {"horizon": 0.5}),
    }


@pytest.mark.parametrize("case", ["four-points", "three-machine", "unstable-at-zero", "null-fault"])
def test_true_cct_equals_round_search(search_cases, case):
    """One running verdict stack gives the (value, verdict) of the search
    that waits for every row of a round before it plans the next."""
    ctx, fo, kw = search_cases[case]
    got = fs.true_cct(ctx, fo, **kw)
    assert got == round_true_cct(ctx, fo, **kw)
    flagged = {"unstable-at-zero": [(0.0, "unstable-at-zero")], "null-fault": [(fs.UNBOUNDED, None)]}
    assert got == flagged[case] if case in flagged else all(isinstance(t, float) and v is None for t, v in got)


@st.composite
def random_searches(draw):
    """1..3 points on random networks over 2..4 machines (m = 1..3): each a
    post-fault network whose inputs make a random anchor its equilibrium,
    and a fault-on run of 0.5 s on another random network from a state near
    the anchor."""
    n = draw(st.integers(2, 4))
    inf = draw(st.integers(0, n - 1))
    ctxs, runs = [], []
    for _ in range(draw(st.integers(1, 3))):
        (red_post, gp), (red_on, _) = network(draw, n, inf), network(draw, n, inf)
        anchor = draw(arrays(float, n - 1, elements=st.floats(-1.0, 1.0)))
        gp = replace(gp, Pm=sw.Coupling(red_post, gp.active).power(anchor))
        hm = en.HamiltonianModel.at_anchor(red_post, gp, anchor)
        start = np.concatenate([anchor + draw(arrays(float, n - 1, elements=st.floats(-0.3, 0.3))), np.zeros(n - 1)])
        (run,) = sw.integrate_rows(sw.swing_field(red_on, gp), start[None], 0.5)
        if isinstance(run, IntegrationError):
            continue
        # the fields of a StudyContext a search reads
        ctxs.append(SimpleNamespace(red_post=red_post, gp=gp, hm=hm, sep=SimpleNamespace(delta=anchor)))
        runs.append(run)
    return ctxs, runs


@settings(derandomize=True, max_examples=30, deadline=None)
@given(random_searches())
def test_true_cct_equals_round_search_on_random_networks(case):
    ctx, fo = case
    assert fs.true_cct(ctx, fo, resolution=1e-3, horizon=0.5) == round_true_cct(ctx, fo, resolution=1e-3, horizon=0.5)


class ScriptedStack:
    """A stand-in for `faultstudy._VerdictStack` whose row for clearing time
    t of point p is decided at the ctx[p].checks(t)-th check after it joined,
    with the verdict ctx[p].verdict(t); it records every (p, t) admitted."""

    def __init__(self, ctx, fault_on, tol):
        self.ctx, self.asked, self.left = ctx, [], {}
        self.point, self.time, self.stable = np.zeros(0, dtype=int), np.zeros(0), np.zeros(0, dtype=bool)

    def admit(self, p, times):
        ids = np.arange(self.point.size, self.point.size + len(times))
        self.asked += [(p, t) for t in times]
        self.point = np.append(self.point, np.full(len(times), p))
        self.time = np.append(self.time, times)
        self.stable = np.append(self.stable, [self.ctx[p].verdict(t) for t in times])
        self.left.update({i: self.ctx[p].checks(t) for i, t in zip(ids.tolist(), times)})
        return ids

    def run(self, plan):
        while self.left:
            self.left = {i: n - 1 for i, n in self.left.items()}
            decided = np.array([i for i, n in self.left.items() if n == 0], dtype=int)
            for i in decided.tolist() + plan(decided):
                self.left.pop(i, None)


def scripted_bisection(verdict, horizon, resolution):
    """Plain serial bisection over verdict(t_cl)."""
    if not verdict(0.0):
        return 0.0, "unstable-at-zero"
    if verdict(horizon):
        return fs.UNBOUNDED, None
    lo, hi = 0.0, horizon
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if verdict(mid) else (lo, mid)
    return lo, None


@st.composite
def scripted_points(draw):
    """A point whose verdicts and decision times are drawn: its ends
    directly, every midpoint from a hash of a drawn seed and the time."""
    ends = {0.0: (draw(st.booleans()), draw(st.integers(1, 6))), 1.0: (draw(st.booleans()), draw(st.integers(1, 6)))}
    seed, share = draw(st.integers(0, 2**32)), draw(st.sampled_from([0.2, 0.5, 0.8]))

    def drawn(t):
        rng = np.random.default_rng([seed, int(np.float64(t).view(np.int64))])
        return ends.get(t, (bool(rng.random() < share), int(rng.integers(1, 7))))

    return SimpleNamespace(verdict=lambda t: drawn(t)[0], checks=lambda t: drawn(t)[1])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(scripted_points(), min_size=1, max_size=4))
def test_true_cct_equals_serial_bisection_in_any_decision_order(ctx):
    """Whatever the order in which rows are decided, each point's search
    ends where serial bisection over the same verdicts does and asks no
    clearing time twice; a point stable at the horizon but not at 0 is
    unstable at zero even when its horizon row is decided first."""
    stacks = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fs, "_VerdictStack", lambda *a: stacks.append(ScriptedStack(*a)) or stacks[-1])
        got = fs.true_cct(ctx, [SimpleNamespace(t_end=1.0)] * len(ctx), resolution=1 / 64)
    assert got == [scripted_bisection(c.verdict, 1.0, 1 / 64) for c in ctx]
    assert len(stacks[0].asked) == len(set(stacks[0].asked))


def test_replay_waits_for_zero():
    """Bisection asks 0 before the horizon: a stable horizon decides nothing
    until 0 is known."""
    assert fs._replay({1.0: True}.get, 1.0, 0.1) == (None, None)
    assert fs._replay({0.0: False, 1.0: True}.get, 1.0, 0.1) == ((0.0, "unstable-at-zero"), None)
    assert fs._replay({0.0: True, 1.0: True}.get, 1.0, 0.1) == ((fs.UNBOUNDED, None), None)


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
    stack, take = sw.SwingField.stack.__func__, sw.SwingField.take
    monkeypatch.setattr(sw.SwingField, "stack", classmethod(lambda cls, fields: stacks.append(len(fields)) or stack(cls, fields)))
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
    got = en.tau_H([ctx.hm], [ctx.crit.E_c], [fo])[0]
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


def test_study_search_attempts(wscc, monkeypatch):
    """The nominal study's search, one running verdict stack replanned at
    every check, takes at most 480 lockstep attempts (756 when each round of
    5 bisection levels waited for its slowest stable row) and integrates
    each clearing time at most once."""
    attempts, admitted = [], []
    dopri_run, admit = sw.dopri_run, fs._VerdictStack.admit

    def counted(field, y, t_end, tol, atol, failed, check, ids=None):
        def counting(block):
            attempts.extend([t_end] * block.accept.shape[0])
            return check(block)

        dopri_run(field, y, t_end, tol, atol, failed, counting, ids)

    monkeypatch.setattr(sw, "dopri_run", counted)
    monkeypatch.setattr(fs._VerdictStack, "admit", lambda self, p, times: admitted.extend(times) or admit(self, p, times))
    result = fs.run_fault_study(wscc)
    assert isinstance(result.tau, float)
    assert 0 < attempts.count(fs.WINDOW) <= 480
    assert len(admitted) == len(set(admitted)) > 0


#: calls whose per-point sequences differ in length, with the lengths they name
UNEQUAL = {
    "true_cct-short-fault-on": (lambda c, fo: fs.true_cct([c], [fo, fo]), "ctx 1, fault_on 2"),
    "true_cct-short-ctx": (lambda c, fo: fs.true_cct([c, c], [fo]), "ctx 2, fault_on 1"),
    "first_swing-short-t_cl": (lambda c, fo: fs.first_swing_stable([c, c], [fo, fo], [[0.1]]), "ctx 2, fault_on 2, t_cl 1"),
    "first_swing-long-t_cl": (lambda c, fo: fs.first_swing_stable([c], [fo], [[0.1], [0.2]]), "ctx 1, fault_on 1, t_cl 2"),
    "tau_H-long-E_c": (lambda c, fo: en.tau_H([c.hm], [c.crit.E_c, c.crit.E_c + 5], [fo]), "hm 1, E_c 2, trajectory 1"),
    "tau_H-short-E_c": (lambda c, fo: en.tau_H([c.hm] * 2, [c.crit.E_c], [fo] * 2), "hm 2, E_c 1, trajectory 2"),
    "fault_on-short-gp": (
        lambda c, fo: en.fault_on_trajectory([c.fom] * 2, [c.gp], [c.x_pre] * 2, 2.0), "fom 2, gp 1, x_pre 2"
    ),
}


@pytest.mark.parametrize("call, lengths", UNEQUAL.values(), ids=UNEQUAL)
def test_unequal_lengths_raise(nominal_ctx, nominal_fault_on, call, lengths):
    """The fault-study calls take one entry per point in every sequence; a
    sequence of another length raises ValueError naming the lengths, rather
    than being cut short by zip or indexed past its end."""
    with pytest.raises(ValueError, match=f"^unequal lengths: {lengths}$"):
        call(nominal_ctx, nominal_fault_on)


@pytest.mark.parametrize("name", ["resolution", "horizon", "tol"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_search_setting_raises(wscc, nominal_ctx, nominal_fault_on, monkeypatch, name, value):
    """A resolution, horizon or tol that is not positive and finite raises
    before any verdict is computed (resolution <= 0 would never end)."""
    monkeypatch.setattr(fs, "first_swing_stable", None)
    monkeypatch.setattr(fs, "_VerdictStack", None)
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
    contexts = [fs.build_context(sc) for sc in (with_part(wscc, "8", "B", -0.5), wscc)]
    failed, ok = fs.run_studies(contexts, resolution=5e-4)
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
    clearing, Kron reduction (`rebuilt_reduction`), the machine constants,
    dispatch and the SEP search."""
    sc_p = with_part(sc, bus, part, value)
    red_pre, red_post = (rebuilt_reduction(net) for net in (sc_p.net, nm.apply_clearing(sc_p.net, sc_p.clearing_branch)))
    gens = sc_p.net.generator_buses
    inf = gens.index(sc_p.net.infinite_bus)
    modeled = [b for i, b in enumerate(gens) if i != inf]
    delta_pre = np.array([sc_p.prefault_angles[b] for b in modeled])
    M = np.array([2.0 * sc_p.net.generators[b].inertia / (2.0 * np.pi * sc_p.net.frequency) for b in modeled])
    (Pm,) = sw.Dispatch(delta_pre, inf).powers([red_pre])
    if isinstance(Pm, InadmissibleScenario):
        raise Pm
    gp = sw.GeneratorParams(M=M, Pm=Pm, infinite_index=inf)
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


@pytest.mark.parametrize(
    "param, values",
    [
        # 9.0 has no SEP; a value may come twice
        ("8.G", [0.0, 9.0, 6.0, 8.5, 9.0, 6.0]),
        ("8.B", [-10.0, -5.0, -3.0, 0.0]),
        ("2.B", [-1.0, -0.7, -0.3, -0.05]),
    ],
)
def test_family_models_equal_model_per_value(wscc, param, values):
    """One stacked build of many values gives each value the model of its
    own build, bit for bit, or the exception that build raises."""
    family = fs.LoadFamily(wscc, param)
    for value, got in zip(values, family.models(values), strict=True):
        try:
            want = family.model(value)
        except InadmissibleScenario as exc:
            assert (type(got), got.code, str(got)) == (type(exc), exc.code, str(exc)), value
            continue
        assert model_bytes(got) == model_bytes(want), value
        assert model_bytes(got) == model_bytes(rebuilt_model(wscc, *param.split("."), value)), value


def test_family_models_fail_as_model_does(wscc):
    """A scenario that fails at every value fails every value of a stacked
    build; a non-finite value raises, as it does alone."""
    angles = {k: v for k, v in wscc.prefault_angles.items() if k != "2"}
    missing = fs.LoadFamily(replace(wscc, prefault_angles=angles), "8.B")
    assert [exc.code for exc in missing.models([-1.0, 0.0])] == ["bad-angles", "bad-angles"]
    with pytest.raises(NetworkError, match="non-finite matrix entry"):
        fs.LoadFamily(wscc, "8.B").models([-1.0, np.nan])


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
    its value, field by field and bit for bit, and its three reductions are
    those of the rebuilt regimes (`rebuilt_reduction`); where that is
    inadmissible, the point is too, with the same code and message.  A
    (fixture, path) param sweeps the scenario of that fixture instead of the
    bundled one."""
    case, param = param if isinstance(param, tuple) else ("wscc", param)
    sc = request.getfixturevalue(case)
    bus, part = param.split(".")
    family = fs.LoadFamily(sc, param)
    for value in values:
        (got,) = family.contexts([value])
        try:
            want = fs.build_context(with_part(sc, bus, part, value))
        except InadmissibleScenario as exc:
            assert isinstance(got, InadmissibleScenario)
            assert (got.code, str(got)) == (exc.code, str(exc))
            continue
        for name in ("red_pre", "red_post", "gp", "x_pre", "sep", "hm", "points", "crit", "delta_E"):
            assert field_bits(getattr(got, name)) == field_bits(getattr(want, name)), (value, name)
        for name in ("red_on", "Pa_on"):
            assert field_bits(getattr(got.fom, name)) == field_bits(getattr(want.fom, name)), (value, name)
        net = with_part(sc, bus, part, value).net
        rebuilt = [rebuilt_reduction(n) for n in (net, nm.apply_fault(net, sc.fault_bus), nm.apply_clearing(net, sc.clearing_branch))]
        assert field_bits([got.red_pre, got.fom.red_on, got.red_post]) == field_bits(rebuilt), value


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


# ---------------------------------------------------------------------------
# the block pipeline against its per-point oracles
# ---------------------------------------------------------------------------

#: (param, value) of the twelve seed-1 study cases of the benchmark; None is nominal
STUDY_CASES = [
    ("6.B", -1.9222451700914132), ("8.B", -8.293927917665812), (None, None), ("6.B", -6.837835176209187),
    ("8.G", 2.0692564845511043), ("6.B", -5.627228493298381), (None, None), ("8.G", 3.5229978409229035),
    ("8.B", -3.4984543455802157), ("8.B", -2.8528012909345533), ("8.G", 6.373984219182649), (None, None),
]
#: the 19 points of the benchmark's seed-1 8.G sweep
SWEEP_GC = [0.016593619593405023 + 0.5 * k for k in range(19)]


def test_stacked_contexts_equal_per_value_chain(wscc, monkeypatch):
    """A block's contexts built as one stack are those of one context per
    value, chained point by point (`per_value_contexts`), bit for bit, on a
    grid with no-sep points (one of them amid admissible ones), a CHAIN
    restart and a seeded point that falls back to the full grid; the coarse
    probes run as one stack, for the seeded points only."""
    values = [4.0 + 0.2 * k for k in range(26)]
    values.insert(4, 8.8)
    family = fs.LoadFamily(wscc, "8.G")
    want = per_value_contexts(family, values)
    fallbacks, probes = [], []
    seeded, coarse = eq._seeded_points, eq._coarse_probes
    monkeypatch.setattr(eq, "_seeded_points", lambda *a: fallbacks.append((r := seeded(*a)) is None) or r)
    monkeypatch.setattr(eq, "_coarse_probes", lambda models: probes.append(len(models)) or coarse(models))
    got = family.contexts(values)
    assert [v for v, c in zip(values, want) if isinstance(c, InadmissibleScenario) and c.code == "no-sep"]
    assert len(values) > fs.CHAIN and any(fallbacks) and probes == [len(fallbacks)]
    for value, a, b in zip(values, got, want):
        if isinstance(b, InadmissibleScenario):
            assert isinstance(a, InadmissibleScenario) and (a.code, str(a)) == (b.code, str(b)), value
            continue
        for name in ("red_pre", "red_post", "gp", "x_pre", "sep", "hm", "points", "crit", "delta_E"):
            assert field_bits(getattr(a, name)) == field_bits(getattr(b, name)), (value, name)
        for name in ("red_on", "Pa_on"):
            assert field_bits(getattr(a.fom, name)) == field_bits(getattr(b.fom, name)), (value, name)


def test_stopped_fault_on_runs_are_prefixes(wscc, nominal_ctx):
    """A fault-on run that stops where the metrics stop reading is a bit
    for bit prefix of the full 2 s run and gives its tau_H, on the twelve
    study cases, the 19 points of an 8.G sweep and the null fault, whose
    run never crosses E_c and keeps its full length."""
    cases = [wscc if p is None else with_part(wscc, *p.split("."), v) for p, v in STUDY_CASES]
    ctxs = [fs.build_context(sc) for sc in cases]
    ctxs += [c for c in fs.LoadFamily(wscc, "8.G").contexts(SWEEP_GC) if isinstance(c, fs.StudyContext)]
    ctxs.append(null_fault_context(nominal_ctx))
    horizon = 1.0
    args = [c.fom for c in ctxs], [c.gp for c in ctxs], [c.x_pre for c in ctxs], en.TAU_H_HORIZON
    full = en.fault_on_trajectory(*args)
    stopped = en.fault_on_trajectory(*args, stop=([c.hm for c in ctxs], [c.crit.E_c for c in ctxs], horizon))
    assert len(ctxs) == 12 + 18 + 1
    for a, b in zip(stopped, full):
        k = a.h.size
        assert horizon <= a.t_end <= b.t_end
        assert a.t.tobytes() == b.t[: k + 1].tobytes() and a.h.tobytes() == b.h[:k].tobytes()
        assert a.y.tobytes() == b.y[:k].tobytes() and a.Q.tobytes() == b.Q[:, :k].tobytes()
    hms, E_c = [c.hm for c in ctxs], [c.crit.E_c for c in ctxs]
    got = en.tau_H(hms, E_c, stopped)
    assert got == en.tau_H(hms, E_c, full) == [serial_tau_H(*x) for x in zip(hms, E_c, full)]
    assert got[-1] == en.NO_CROSSING and stopped[-1].t_end == en.TAU_H_HORIZON
    assert all(a.h.size < b.h.size for a, b in zip(stopped[:-1], full[:-1]))


def test_runs_sample_equals_trajectory_sample(wscc, nominal_ctx, nominal_fault_on):
    """One sample over many fault-on runs reads each run as its own
    `Trajectory.sample`, bit for bit, at 0, on step boundaries, inside
    steps and at t_end."""
    other = fs.build_context(with_part(wscc, "8", "B", -3.0))
    runs = [nominal_fault_on, fault_on(other, 1.5), fault_on(nominal_ctx, 0.7)]
    rng = np.random.default_rng(3)
    which, ts = [], []
    for r, run in enumerate(runs):
        times = np.concatenate([[0.0, run.t_end], run.t, rng.uniform(0.0, run.t_end, 50)])
        which += [r] * times.size
        ts.append(times)
    which, ts = np.array(which), np.concatenate(ts)
    order = rng.permutation(ts.size)
    got = sw.Runs(runs).sample(which[order], ts[order])
    for r, run in enumerate(runs):
        at = which[order] == r
        assert got[at].tobytes() == run.sample(ts[order][at]).tobytes()


def test_bounded_check_equals_full_fold(wscc, monkeypatch):
    """A check that folds only the rows it may decide decides the same rows
    with the same verdicts as one that folds every row (`full_fold_check`),
    block by block of real searches: among them rows whose pairs have all
    swung back and that then diverge inside a block, and a failing row."""
    ctxs = [fs.build_context(with_part(wscc, "8", "G", g)) for g in (6.0, 0.0)] + [fs.build_context(wscc)]
    runs = [fault_on(c, 1.0) for c in ctxs]
    t_cl = [np.linspace(0.0, 0.1, 41), np.linspace(0.1, 0.2, 21), np.linspace(0.05, 0.15, 21)]
    check = fs._VerdictStack._check
    seen = {"late": 0, "failed": 0, "checks": 0}

    def compared(self, block):
        rows = block.ids
        settled = self._returned[rows].all(axis=1)
        if seen["checks"] == 3:    # a running row fails at this check
            self._failed[int(rows[np.flatnonzero(settled)[0]])] = 0.5
        want_rows, want_stable = full_fold_check(self, block)
        got = check(self, block)
        assert got.tolist() == want_rows.tolist()
        assert self.stable[got].tolist() == want_stable.tolist()
        unstable = np.isin(rows, got[~self.stable[got]])
        seen["late"] += int(np.sum(unstable & settled & ~np.isin(rows, list(self._failed))))
        seen["failed"] += int(np.isin(list(self._failed), got).sum())
        seen["checks"] += 1
        return got

    monkeypatch.setattr(fs._VerdictStack, "_check", compared)
    verdicts = fs.first_swing_stable(ctxs, runs, t_cl)
    monkeypatch.undo()
    assert seen["late"] > 0 and seen["failed"] == 1
    assert [v.tolist() for v in verdicts[1:]] == [v.tolist() for v in fs.first_swing_stable(ctxs[1:], runs[1:], t_cl[1:])]
