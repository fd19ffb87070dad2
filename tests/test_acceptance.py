"""Acceptance suite.

Each test checks one shipped criterion at its stated tolerance and prints a
single PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see
them).  The four sweeps and two branch traces are computed once per session.
"""

import time
from unittest import mock

import numpy as np
import pytest

from conftest import cct, fault_on, stable, with_part
from swingcct import energy as en
from swingcct import equilibria as eq
from swingcct import faultstudy as fs
from swingcct import report as rp
from swingcct.sweep import SweepSpec, detect_uep_switches, find_optimum, run_sweep

STEP = 0.05


def check(num: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def sweep_bc(wscc):
    return run_sweep(SweepSpec(scenario=wscc, param="8.B", lo=-10.0, hi=0.0, step=STEP))


@pytest.fixture(scope="session")
def sweep_bb(wscc):
    return run_sweep(SweepSpec(scenario=wscc, param="6.B", lo=-10.0, hi=0.0, step=STEP))


@pytest.fixture(scope="session")
def sweep_gc(wscc):
    return run_sweep(SweepSpec(scenario=wscc, param="8.G", lo=0.0, hi=9.0, step=STEP))


@pytest.fixture(scope="session")
def sweep_bc_lossless(wscc_lossless):
    return run_sweep(SweepSpec(scenario=wscc_lossless, param="8.B", lo=-10.0, hi=0.0, step=STEP))


@pytest.fixture(scope="session")
def branches_gc(wscc):
    factory = fs.hamiltonian_model_factory(wscc, "8.G")
    return eq.continue_branch(factory, (0.0, 9.0), initial_step=STEP)


@pytest.fixture(scope="session")
def branches_bc(wscc):
    factory = fs.hamiltonian_model_factory(wscc, "8.B")
    return eq.continue_branch(factory, (-10.0, 0.0), initial_step=STEP)


def row_at(rows, param):
    return min(rows, key=lambda r: abs(r.param - param))


# ---------------------------------------------------------------------------
# 1. nominal fault study
# ---------------------------------------------------------------------------


def test_criterion_1_nominal_study(wscc):
    t0 = time.perf_counter()
    result = fs.run_fault_study(wscc)
    elapsed = time.perf_counter() - t0
    ok = (
        result.admissible
        and isinstance(result.tau, float)
        and abs(result.tau - 0.107) <= 0.015
        and elapsed < 10.0
    )
    check("1", ok, f"tau={result.tau} (target 0.107 +/- 0.015), runtime={elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. B_C sweep optima
# ---------------------------------------------------------------------------


def test_criterion_2_bc_sweep_optima(sweep_bc):
    p_tau, v_tau = find_optimum(sweep_bc, "tau")
    p_ta, v_ta = find_optimum(sweep_bc, "tau_A")
    tau_at_ta = row_at(sweep_bc, p_ta).tau
    ok = (
        abs(p_tau - (-8.2)) <= 0.4
        and abs(v_tau - 0.170) <= 0.02
        and abs(p_ta - (-5.75)) <= 0.4
        and abs(v_ta - 0.203) <= 0.025
        and abs(tau_at_ta - 0.158) <= 0.02
    )
    check(
        "2",
        ok,
        f"argmax_tau=({p_tau:.2f}, {v_tau:.4f}) target (-8.2, 0.170); "
        f"argmax_tauA=({p_ta:.2f}, {v_ta:.4f}) target (-5.75, 0.203); "
        f"tau@argmax_tauA={tau_at_ta:.4f} target 0.158",
    )


# ---------------------------------------------------------------------------
# 3. B_B sweep optima
# ---------------------------------------------------------------------------


def test_criterion_3_bb_sweep_optima(sweep_bb):
    p_tau, v_tau = find_optimum(sweep_bb, "tau")
    p_ta, v_ta = find_optimum(sweep_bb, "tau_A")
    tau_at_ta = row_at(sweep_bb, p_ta).tau
    ok = (
        abs(p_tau - (-3.10)) <= 0.4
        and abs(v_tau - 0.124) <= 0.015
        and abs(p_ta - (-1.20)) <= 0.4
        and abs(v_ta - 0.157) <= 0.02
        and abs(tau_at_ta - 0.120) <= 0.015
    )
    check(
        "3",
        ok,
        f"argmax_tau=({p_tau:.2f}, {v_tau:.4f}) target (-3.10, 0.124); "
        f"argmax_tauA=({p_ta:.2f}, {v_ta:.4f}) target (-1.20, 0.157); "
        f"tau@argmax_tauA={tau_at_ta:.4f} target 0.120",
    )


# ---------------------------------------------------------------------------
# 4. G_C sweep landmarks
# ---------------------------------------------------------------------------


def test_criterion_4_gc_landmarks(sweep_gc, branches_gc):
    switches = detect_uep_switches(sweep_gc)
    switch_ok = any(6.0 <= s <= 6.5 for s in switches)

    folds = eq.fold_locations(branches_gc)
    fold_lo = min(folds, key=lambda f: abs(f - 2.95)) if folds else np.nan
    fold_hi = min(folds, key=lambda f: abs(f - 8.56)) if folds else np.nan
    folds_ok = abs(fold_lo - 2.95) <= 0.3 and abs(fold_hi - 8.56) <= 0.4

    p_de, _v_de = find_optimum(sweep_gc, "dE")
    de_ok = abs(p_de - 4.0) <= 0.5

    taus = [(r.param, r.tau) for r in sweep_gc if r.admissible and r.tau is not None]
    p_tau, _ = find_optimum(sweep_gc, "tau")
    spacing = 20  # one p.u. at the sweep step
    trend_ok = p_tau == taus[0][0] and all(
        taus[i + spacing][1] <= taus[i][1] + 1e-6 for i in range(len(taus) - spacing)
    )
    ok = switch_ok and folds_ok and de_ok and trend_ok
    check(
        "4",
        ok,
        f"UEP switch at {switches} (target within [6.0, 6.5]); folds {fold_lo:.3f}/{fold_hi:.3f} "
        f"(targets 2.95/8.56); dE max at {p_de:.2f} (target 4.0); tau max at {p_tau:.2f} "
        f"decreasing={trend_ok}",
    )


# ---------------------------------------------------------------------------
# 5. B_C branch diagram
# ---------------------------------------------------------------------------


def test_criterion_5_bc_branch_diagram(branches_bc, sweep_bc):
    folds = eq.fold_locations(branches_bc)
    fold_lo = min(folds, key=lambda f: abs(f - (-5.78))) if folds else np.nan
    fold_hi = min(folds, key=lambda f: abs(f - (-3.62))) if folds else np.nan
    switches = detect_uep_switches(sweep_bc)
    switch = min(switches, key=lambda s: abs(s - (-4.80))) if switches else np.nan
    ok = (
        abs(fold_lo - (-5.78)) <= 0.3
        and abs(fold_hi - (-3.62)) <= 0.3
        and abs(switch - (-4.80)) <= 0.3
    )
    check(
        "5",
        ok,
        f"folds {fold_lo:.3f}/{fold_hi:.3f} (targets -5.78/-3.62); UEP switch {switch:.3f} "
        f"(target -4.80)",
    )


@pytest.mark.parametrize("traced", ["branches_bc", "branches_gc"])
def test_folds_lie_at_branch_ends(request, traced):
    """A branch ends where a step of _STEP_FLOOR fails, and a fold there is
    the midpoint of that step: every fold lies within _STEP_FLOOR / 2 of one
    of its branch's two end parameters."""
    branches = request.getfixturevalue(traced)
    assert any(br.folds for br in branches)
    for br in branches:
        ends = (br.points[0][0], br.points[-1][0])
        for fold in br.folds:
            assert min(abs(fold - end) for end in ends) <= eq._STEP_FLOOR / 2 + 1e-12, (fold, ends)


# ---------------------------------------------------------------------------
# 6. lossless-variant lower bound
# ---------------------------------------------------------------------------


def test_criterion_6_lossless_lower_bound(sweep_bc_lossless):
    bound = 2e-4
    admissible = [r for r in sweep_bc_lossless if r.admissible]
    bad = []
    for r in admissible:
        tau = np.inf if r.tau is None else r.tau  # unbounded verdict
        if r.tau_H is not None and r.tau_H > tau + bound:
            bad.append((r.param, "tau_H"))
        if r.tau_A is not None and r.tau_A > tau + bound:
            bad.append((r.param, "tau_A"))
    ok = len(admissible) > 0 and not bad
    check(
        "6",
        ok,
        f"{len(admissible)} admissible points, bound violations: {bad[:5] or 'none'}",
    )


# ---------------------------------------------------------------------------
# 7. metric proximity
# ---------------------------------------------------------------------------


def test_criterion_7_metric_proximity(sweep_gc, sweep_bc):
    gaps = []
    for rows in (sweep_gc, sweep_bc):
        for r in rows:
            if r.admissible and r.tau_H and r.tau_A:
                gaps.append(abs(r.tau_A - r.tau_H) / r.tau_H)
    worst = max(gaps)
    check("7", worst <= 0.10, f"max |tau_A - tau_H|/tau_H = {worst:.4f} (limit 0.10)")


# ---------------------------------------------------------------------------
# 8. property suite
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def three_machine_ctx(three_machine):
    return fs.build_context(three_machine)


@pytest.fixture(scope="session")
def three_machine_fault_on(three_machine_ctx):
    return fault_on(three_machine_ctx, 2.0)


# 8a, 8b, 8c, 8f and 8h run on the bundled case and on the three-machine case


def check_8a(num, ctx):
    from swingcct import swing as sw

    m = ctx.gp.n_active
    x0 = np.concatenate([ctx.sep.delta + 0.3, np.linspace(0.4, -0.2, m)])
    field = sw.swing_field(ctx.red_post, ctx.gp, ctx.hm.Pa)
    traj = sw.integrate(field, x0, 1.0, tol=1e-8, atol=1e-10)
    h0 = en.hamiltonian(ctx.hm, x0)
    drift = np.max(np.abs(en.hamiltonian(ctx.hm, traj.sample(np.linspace(0, 1, 21))) - h0))
    ok = drift <= 1e-6 * max(1.0, abs(h0))
    check(num, ok, f"drift={drift:.2e} over 1 s (limit 1e-6)")


def test_criterion_8a_hamiltonian_drift(nominal_ctx):
    check_8a("8a", nominal_ctx)


def test_criterion_8a_hamiltonian_drift_three_machine(three_machine_ctx):
    check_8a("8a (three machines)", three_machine_ctx)


def check_8b(num, ctx):
    rng = np.random.default_rng(5)
    hm = ctx.hm
    m = ctx.gp.n_active
    worst = 0.0
    for _ in range(20):
        delta = ctx.sep.delta + rng.uniform(-2, 2, size=m)
        grad = en.potential_gradient(hm, delta)
        for i in range(m):
            e = np.zeros(m)
            e[i] = 1e-6
            fd = (en.potential(hm, delta + e) - en.potential(hm, delta - e)) / 2e-6
            if abs(grad[i]) > 1e-8:
                worst = max(worst, abs(fd - grad[i]) / abs(grad[i]))
    check(num, worst <= 1e-5, f"max FD gradient rel err={worst:.2e} (limit 1e-5)")


def test_criterion_8b_gradient_check(nominal_ctx):
    check_8b("8b", nominal_ctx)


def test_criterion_8b_gradient_check_three_machine(three_machine_ctx):
    check_8b("8b (three machines)", three_machine_ctx)


def check_8c(num, sc):
    import swingcct.netmodel as nm

    rng = np.random.default_rng(8)
    Y = nm.build_ybus(sc.net)
    retained = [nm.internal_node(b) for b in sc.net.generator_buses]
    red = nm.reduce_to_generators(sc.net)
    keep = [Y.nodes.index(r) for r in retained]
    drop = [i for i in range(len(Y.nodes)) if i not in keep]
    A = Y.values
    worst = 0.0
    for _ in range(10):
        V_R = rng.normal(size=len(keep)) + 1j * rng.normal(size=len(keep))
        V_L = np.linalg.solve(A[np.ix_(drop, drop)], -A[np.ix_(drop, keep)] @ V_R)
        I_R = A[np.ix_(keep, keep)] @ V_R + A[np.ix_(keep, drop)] @ V_L
        worst = max(worst, float(np.max(np.abs((red.G + 1j * red.B) @ V_R - I_R))))
    check(num, worst <= 1e-10, f"max nodal-oracle residual={worst:.2e} (limit 1e-10)")


def test_criterion_8c_kron_oracle(wscc):
    check_8c("8c", wscc)


def test_criterion_8c_kron_oracle_three_machine(three_machine):
    check_8c("8c (three machines)", three_machine)


def test_criterion_8d_quartic_oracle():
    rng = np.random.default_rng(13)
    worst = 0.0
    verdict_mismatch = 0
    for _ in range(1000):
        alpha = rng.uniform(-5, 5)
        if abs(alpha) < 1e-6:
            continue
        beta, gamma = rng.uniform(-5, 5), rng.uniform(1e-3, 5)
        qc = en.QuarticCoefficients(alpha, beta, gamma, np.zeros(2), np.zeros((2, 2)))
        got = en.tau_A(qc)
        roots = np.roots([alpha, 0.0, beta, 0.0, -gamma])
        pos = sorted(r.real for r in roots if abs(r.imag) <= 1e-9 and r.real > 1e-12)
        if not pos:
            verdict_mismatch += got != en.NO_REAL_ROOT
        else:
            worst = max(worst, abs(got - pos[0]) / pos[0])
    ok = worst <= 1e-9 and verdict_mismatch == 0
    check("8d", ok, f"max root rel err={worst:.2e} (limit 1e-9), verdict mismatches={verdict_mismatch}")


def test_criterion_8e_uep_enumeration(nominal_ctx):
    a, b = (
        [p for p in eq.stationary_points(nominal_ctx.hm, grid_density=d) if p.type_index == 1] for d in (40, 80)
    )
    ok = len(a) == len(b) and all(
        eq.wrapped_distance(pa.delta, pb.delta) <= 1e-6 for pa, pb in zip(a, b)
    )
    check("8e", ok, f"40x40 found {len(a)} type-1 points, 80x80 found {len(b)}")


def check_8f(num, ctx, fo):
    resolution = 1e-4
    t, _ = cct(ctx, fo, resolution=resolution)
    stable_below = stable(ctx, fo, t - 2 * resolution)
    unstable_above = not stable(ctx, fo, t + 2 * resolution)
    ok = stable_below and unstable_above
    check(num, ok, f"tau={t:.5f}: stable at -2res={stable_below}, unstable at +2res={unstable_above}")


def test_criterion_8f_cct_bracket(nominal_ctx, nominal_fault_on):
    check_8f("8f", nominal_ctx, nominal_fault_on)


def test_criterion_8f_cct_bracket_three_machine(three_machine_ctx, three_machine_fault_on):
    check_8f("8f (three machines)", three_machine_ctx, three_machine_fault_on)


def test_criterion_8g_taylor_slope(nominal_ctx):
    """The quartic surrogate matches the simulated fault-on energy to third order.

    The post-fault energy along the exact fault-on trajectory is compared
    with H(x_pre) + h_alt(t).  The surrogate's beta uses the pre-fault angle
    difference delta0_ik where the exact t^2 coefficient has sin delta0_ik,
    so it over-states that coefficient by the documented small-angle term
    (1/2) sum_{i<k} dPbar_ik u_ik (delta0_ik - sin delta0_ik).  That term is
    rebuilt here from the two reduced networks, the pre-fault angles and the
    initial accelerations (not from qc.beta) and removed, leaving a residual
    that must fall off at least as t^3.  Any other error in beta keeps a t^2
    residual and fails the check; alpha, at fourth order, is not constrained.
    """
    ctx = nominal_ctx
    gp = ctx.gp
    qc = en.quartic_coefficients(ctx.hm, ctx.fom, ctx.crit.E_c)
    # over all n machines, the infinite one at rest
    u = np.insert(en.initial_accelerations(ctx.fom, gp), gp.infinite_index, 0.0)
    full_pre = np.insert(ctx.x_pre[:2], gp.infinite_index, 0.0)
    iu, ku = np.triu_indices(gp.n, k=1)
    dPbar = ctx.hm.red.Pbar - ctx.fom.red_on.Pbar
    dd_pre = full_pre[iu] - full_pre[ku]
    defect = 0.5 * float((dPbar[iu, ku] * (u[iu] - u[ku])) @ (dd_pre - np.sin(dd_pre)))

    h0 = en.hamiltonian(ctx.hm, ctx.x_pre)
    traj = fault_on(ctx, 0.02, tol=1e-12, atol=1e-14)
    ts = np.logspace(-4, -2, 25)
    h = en.hamiltonian(ctx.hm, traj.sample(ts))
    diffs = np.abs(h0 + np.asarray(qc.h_alt(ts)) - defect * ts**2 - h)
    slope = float(np.polyfit(np.log(ts), np.log(diffs), 1)[0])
    check(
        "8g",
        slope >= 3.0,
        f"log-log slope={slope:.3f} (limit >= 3) after removing the small-angle term "
        f"{defect:.4f} (defect/beta={defect / qc.beta:.2%})",
    )


def check_8h(num, ctx, fo):
    h0 = en.hamiltonian(ctx.hm, ctx.x_pre)
    ratios = {}
    for s in (0.1, 0.01):
        E_scaled = h0 + s * ctx.delta_E
        qc = en.quartic_coefficients(ctx.hm, ctx.fom, E_scaled)
        t_a = en.tau_A(qc)
        with mock.patch.object(en, "_LOCATE_TOL", 1e-8):
            t_h = en.tau_H([ctx.hm], [E_scaled], [fo])[0]
        ratios[s] = t_a / t_h
    ok = abs(ratios[0.01] - 1.0) <= 0.05
    check(num, ok, f"tau_A/tau_H at s=0.1: {ratios[0.1]:.4f}, s=0.01: {ratios[0.01]:.4f} (limit 5%)")


def test_criterion_8h_margin_scaling(nominal_ctx, nominal_fault_on):
    check_8h("8h", nominal_ctx, nominal_fault_on)


def test_criterion_8h_margin_scaling_three_machine(three_machine_ctx, three_machine_fault_on):
    check_8h("8h (three machines)", three_machine_ctx, three_machine_fault_on)


#: largest change of tau allowed when the verdict window doubles (README)
WINDOW_DRIFT_BOUND = 8e-4


def test_criterion_8i_tau_window_drift(wscc, monkeypatch):
    """tau counts the escapes within the verdict window (faultstudy.WINDOW).

    An orbit that swings back and escapes on a later swing counts as
    unstable only if it escapes within the window, so a longer window can
    lower tau.  The check doubles the window at the nominal point,
    8.B = -8.2, 8.G = 0 and 8.G = 6, prints the four changes, and fails when
    one exceeds the README's bound, so a verdict change that widens the gap
    shows.
    """
    points = {
        "nominal": wscc,
        "8.B=-8.2": with_part(wscc, "8", "B", -8.2),
        "8.G=0": with_part(wscc, "8", "G", 0.0),
        "8.G=6": with_part(wscc, "8", "G", 6.0),
    }
    taus = []
    for window in (fs.WINDOW, 2 * fs.WINDOW):
        monkeypatch.setattr(fs, "WINDOW", window)
        taus.append({name: fs.run_fault_study(sc).tau for name, sc in points.items()})
    drift = {name: taus[0][name] - taus[1][name] for name in points}
    check(
        "8i",
        all(abs(d) <= WINDOW_DRIFT_BOUND for d in drift.values()),
        "tau(WINDOW) - tau(2 WINDOW): " + ", ".join(f"{k} {d:.2e} s" for k, d in drift.items())
        + f" (limit {WINDOW_DRIFT_BOUND:.0e} s)",
    )


# ---------------------------------------------------------------------------
# 9. reproducibility
# ---------------------------------------------------------------------------


def test_criterion_9_reproducibility(wscc, tmp_path):
    # two chains, so that the jobs=2 run splits into two blocks
    base = dict(scenario=wscc, param="8.B", lo=-0.5, hi=-0.5 + STEP * fs.CHAIN, step=STEP)
    a = rp.write_sweep_csv(run_sweep(SweepSpec(**base, jobs=1)), tmp_path / "a.csv")
    b = rp.write_sweep_csv(run_sweep(SweepSpec(**base, jobs=1)), tmp_path / "b.csv")
    c = rp.write_sweep_csv(run_sweep(SweepSpec(**base, jobs=2)), tmp_path / "c.csv")
    ok = a.read_bytes() == b.read_bytes() == c.read_bytes()
    check("9", ok, f"serial x2 and parallel CSV bytes identical={ok}")
