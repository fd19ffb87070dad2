"""Energy functions, quartic coefficients, and the two energy CCT metrics."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import fault_on, smib
from swingcct import energy as en
from swingcct import faultstudy as fs
from swingcct import swing as sw
from swingcct.errors import InadmissibleScenario

RNG = np.random.default_rng(11)


# ---------------------------------------------------------------------------
# kinetic / potential / hamiltonian
# ---------------------------------------------------------------------------


def kinetic(hm, omega):
    """Kinetic part of the Hamiltonian: its value at `omega` minus its value at rest."""
    return en.hamiltonian(hm, np.concatenate([hm.anchor, omega])) - en.potential(hm, hm.anchor)


def test_kinetic_trivials(nominal_ctx):
    assert kinetic(nominal_ctx.hm, np.zeros(2)) == 0.0
    red, gp2 = smib(Pm=0.0, M=2.0)
    # the pendulum at its SEP: potential -1, so the subtraction is exact
    hm2 = en.HamiltonianModel.at_anchor(red, gp2, np.zeros(1))
    assert kinetic(hm2, np.array([3.0])) == 9.0


def test_kinetic_matches_work_integral(nominal_ctx):
    """Work done accelerating along a force-free ramp equals the closed form."""
    gp = nominal_ctx.gp
    omega_end = RNG.normal(size=2)
    ts = np.linspace(0.0, 1.0, 20001)
    # omega(t) = omega_end * t: instantaneous power = sum M_i omega_i omegadot_i
    act = gp.active
    power = (gp.M[act] * omega_end**2)[None, :] * ts[:, None]
    work = np.trapezoid(power.sum(axis=1), ts)
    assert work == pytest.approx(kinetic(nominal_ctx.hm, omega_end), rel=1e-8)


def test_potential_gradient_zero_at_sep(nominal_ctx):
    g = en.potential_gradient(nominal_ctx.hm, nominal_ctx.sep.delta)
    assert np.max(np.abs(g)) <= 1e-10


def test_potential_gradient_finite_difference(nominal_ctx):
    hm = nominal_ctx.hm
    h = 1e-6
    for _ in range(20):
        delta = nominal_ctx.sep.delta + RNG.uniform(-2.0, 2.0, size=2)
        grad = en.potential_gradient(hm, delta)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (en.potential(hm, delta + e) - en.potential(hm, delta - e)) / (2 * h)
            assert fd == pytest.approx(grad[i], rel=1e-5, abs=1e-7)


def test_potential_gradient_matches_field(nominal_ctx):
    """Gradient equals -M times the conservative accelerations at omega = 0."""
    ctx = nominal_ctx
    delta = ctx.sep.delta + np.array([0.4, -0.3])
    x = sw.SystemState(delta=delta, omega=np.zeros(2))
    acc = sw.swing_field(ctx.red_post, ctx.gp, ctx.hm.Pa)(x.packed())[2:]
    M = ctx.gp.M[ctx.gp.active]
    assert np.allclose(en.potential_gradient(ctx.hm, delta), -M * acc, atol=1e-12)


def test_critical_level_set_passes_through_uep(nominal_ctx):
    crit = nominal_ctx.crit
    assert en.potential(nominal_ctx.hm, crit.closest_uep.delta) == crit.E_c


def test_hamiltonian_reduces_to_potential_at_rest(nominal_ctx):
    x = sw.SystemState(delta=nominal_ctx.sep.delta + 0.1, omega=np.zeros(2))
    assert en.hamiltonian(nominal_ctx.hm, x.packed()) == pytest.approx(
        en.potential(nominal_ctx.hm, x.delta), abs=0
    )


def test_prefault_energy_below_critical(nominal_ctx):
    assert en.hamiltonian(nominal_ctx.hm, nominal_ctx.x_pre.packed()) < nominal_ctx.crit.E_c


def test_energy_margin_zero_case(nominal_ctx):
    h0 = en.hamiltonian(nominal_ctx.hm, nominal_ctx.x_pre.packed())
    assert en.energy_margin(h0, nominal_ctx.hm, nominal_ctx.x_pre) == 0.0


# ---------------------------------------------------------------------------
# accelerations and quartic coefficients
# ---------------------------------------------------------------------------


def null_fault(ctx):
    """Context variant whose fault-on network equals the pre-fault one."""
    fom = en.FaultOnHamiltonianModel.at_prefault(ctx.red_pre, ctx.gp, ctx.x_pre.delta)
    return fom


def test_null_fault_accelerations_vanish(nominal_ctx):
    u = en.initial_accelerations(null_fault(nominal_ctx), nominal_ctx.gp)
    assert np.max(np.abs(u)) <= 1e-12


def test_infinite_machine_never_accelerates(nominal_ctx):
    u = en.initial_accelerations(nominal_ctx.fom, nominal_ctx.gp)
    assert u[nominal_ctx.gp.infinite_index] == 0.0


def test_accelerations_match_short_trajectory(nominal_ctx):
    """u agrees with 2 (delta(h) - delta_pre) / h^2 on a short fault run."""
    ctx = nominal_ctx
    h = 1e-3
    traj = fault_on(ctx, h, tol=1e-10, atol=1e-12)
    d_h = traj.sample(np.array([h]))[0][:2]
    u_fd = 2.0 * (d_h - ctx.x_pre.delta) / h**2
    u = en.initial_accelerations(ctx.fom, ctx.gp)[ctx.gp.active]
    assert np.max(np.abs(u_fd - u) / np.abs(u)) <= 0.01


def test_quartic_degenerate_when_networks_match(nominal_ctx):
    """No fault at all: fault-on equals post-fault and the system sits at the
    post-fault equilibrium, so every parameter difference vanishes."""
    ctx = nominal_ctx
    x_sep = sw.SystemState(delta=ctx.sep.delta, omega=np.zeros(2))
    fom = en.FaultOnHamiltonianModel.at_prefault(ctx.red_post, ctx.gp, x_sep.delta)
    qc = en.quartic_coefficients(ctx.hm, fom, ctx.gp, x_sep, ctx.crit.E_c)
    assert abs(qc.alpha) <= 1e-18
    assert abs(qc.beta) <= 1e-12
    assert np.max(np.abs(qc.u)) <= 1e-10


def test_quartic_alpha_positive_nominal(nominal_ctx):
    ctx = nominal_ctx
    qc = en.quartic_coefficients(ctx.hm, ctx.fom, ctx.gp, ctx.x_pre, ctx.crit.E_c)
    assert qc.alpha > 0.0
    assert qc.gamma == pytest.approx(ctx.delta_E)


def test_h_alt_matches_symbolic_substitution(nominal_ctx):
    """Assembled coefficients equal the angle-form surrogate on the
    constant-acceleration trajectory."""
    ctx = nominal_ctx
    qc = en.quartic_coefficients(ctx.hm, ctx.fom, ctx.gp, ctx.x_pre, ctx.crit.E_c)
    gp = ctx.gp
    full_pre = np.insert(ctx.x_pre.delta, gp.infinite_index, 0.0)
    u = qc.u
    dPa = ctx.hm.Pa - ctx.fom.Pa_on
    dPbar = ctx.hm.red.Pbar - ctx.fom.red_on.Pbar
    iu, ku = np.triu_indices(gp.n, k=1)
    for t in RNG.uniform(0.0, 0.5, size=50):
        delta_on = 0.5 * u * t**2 + full_pre
        dd_on = delta_on[iu] - delta_on[ku]
        dd_pre = full_pre[iu] - full_pre[ku]
        oracle = float(dPa @ (delta_on - full_pre)) + float(
            (dPbar[iu, ku] / 2.0) @ (dd_on**2 - dd_pre**2)
        )
        assert qc.h_alt(t) == pytest.approx(oracle, abs=1e-10)


# ---------------------------------------------------------------------------
# tau_A
# ---------------------------------------------------------------------------


def test_tau_a_vanishing_margin_limit():
    for gamma in (1e-6, 1e-9, 1e-12):
        qc = en.QuarticCoefficients(alpha=3.0, beta=2.0, gamma=gamma, u=np.zeros(2), u_ik=np.zeros((2, 2)))
        assert en.tau_A(qc) == pytest.approx(np.sqrt(gamma / 2.0), rel=1e-6)


def test_tau_a_degenerate_alpha():
    qc = en.QuarticCoefficients(alpha=0.0, beta=2.0, gamma=8.0, u=np.zeros(2), u_ik=np.zeros((2, 2)))
    assert en.tau_A(qc) == pytest.approx(2.0, rel=1e-15)


def test_tau_a_rejects_nonpositive_margin():
    qc = en.QuarticCoefficients(alpha=1.0, beta=1.0, gamma=0.0, u=np.zeros(2), u_ik=np.zeros((2, 2)))
    with pytest.raises(InadmissibleScenario):
        en.tau_A(qc)


def test_tau_a_no_real_root_verdicts():
    # alpha < 0, beta < 0: no positive root
    qc = en.QuarticCoefficients(alpha=-1.0, beta=-1.0, gamma=1.0, u=np.zeros(2), u_ik=np.zeros((2, 2)))
    assert en.tau_A(qc) == en.NO_REAL_ROOT
    # negative discriminant
    qc = en.QuarticCoefficients(alpha=-2.0, beta=1.0, gamma=1.0, u=np.zeros(2), u_ik=np.zeros((2, 2)))
    assert en.tau_A(qc) == en.NO_REAL_ROOT


def test_tau_a_two_positive_roots_takes_smaller():
    # alpha < 0, beta > 0, discriminant > 0: both roots positive
    alpha, beta, gamma = -1.0, 5.0, 2.0
    qc = en.QuarticCoefficients(alpha=alpha, beta=beta, gamma=gamma, u=np.zeros(2), u_ik=np.zeros((2, 2)))
    roots = np.roots([alpha, 0.0, beta, 0.0, -gamma])
    pos = sorted(r.real for r in roots if abs(r.imag) < 1e-12 and r.real > 0)
    assert len(pos) == 2
    assert en.tau_A(qc) == pytest.approx(pos[0], rel=1e-12)


def test_tau_a_companion_matrix_oracle():
    """Smallest positive quartic root agrees with the polynomial solver."""
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(1000):
        alpha = rng.uniform(-5, 5)
        if abs(alpha) < 1e-6:
            continue
        beta = rng.uniform(-5, 5)
        gamma = rng.uniform(1e-3, 5)
        qc = en.QuarticCoefficients(alpha=alpha, beta=beta, gamma=gamma, u=np.zeros(2), u_ik=np.zeros((2, 2)))
        got = en.tau_A(qc)
        roots = np.roots([alpha, 0.0, beta, 0.0, -gamma])
        pos = sorted(r.real for r in roots if abs(r.imag) <= 1e-9 and r.real > 1e-12)
        if not pos:
            assert got == en.NO_REAL_ROOT
        else:
            assert isinstance(got, float)
            assert abs(got - pos[0]) / pos[0] <= 1e-9
        checked += 1
    assert checked > 900


# ---------------------------------------------------------------------------
# tau_H
# ---------------------------------------------------------------------------


def test_tau_h_zero_margin(nominal_ctx, nominal_fault_on):
    ctx = nominal_ctx
    h0 = en.hamiltonian(ctx.hm, ctx.x_pre.packed())
    assert en.tau_H(ctx.hm, h0, nominal_fault_on) == 0.0


def test_tau_h_no_crossing_without_fault(nominal_ctx):
    ctx = nominal_ctx
    null = replace(ctx, fom=null_fault(ctx))
    got = en.tau_H(ctx.hm, ctx.crit.E_c, fault_on(null, en.TAU_H_HORIZON))
    assert got == en.NO_CROSSING
    with pytest.raises(ValueError, match="before the horizon"):
        en.tau_H(ctx.hm, ctx.crit.E_c, fault_on(null, 0.5))


def test_tau_h_dense_scan_oracle(nominal_ctx, nominal_fault_on):
    """Crossing agrees with a brute-force fixed-step scan at 1e-5 s."""
    ctx = nominal_ctx
    t_h = en.tau_H(ctx.hm, ctx.crit.E_c, nominal_fault_on)
    traj = fault_on(ctx, 0.3, tol=1e-10, atol=1e-12)
    ts = np.arange(0.0, 0.3, 1e-5)
    g = en.hamiltonian(ctx.hm, traj.sample(ts)) - ctx.crit.E_c
    first = ts[np.argmax(g >= 0.0)]
    assert abs(t_h - first) <= 2e-5


def test_tau_h_negative_margin_rejected(nominal_ctx, nominal_fault_on):
    ctx = nominal_ctx
    bad = en.hamiltonian(ctx.hm, ctx.x_pre.packed()) - 1.0
    with pytest.raises(InadmissibleScenario):
        en.tau_H(ctx.hm, bad, nominal_fault_on)


def test_tau_h_hamiltonian_fault_on_switch(nominal_ctx, nominal_fault_on):
    """The conservative fault-on variant (conductance power frozen at the
    pre-fault SEP) stays close to exact."""
    ctx = nominal_ctx
    exact = en.tau_H(ctx.hm, ctx.crit.E_c, nominal_fault_on)
    field = sw.swing_field(ctx.fom.red_on, ctx.gp, ctx.fom.Pa_on)
    frozen = sw.integrate(field, ctx.x_pre, 2.0)
    cons = en.tau_H(ctx.hm, ctx.crit.E_c, frozen)
    assert isinstance(cons, float)
    assert cons == pytest.approx(exact, rel=0.05)


def test_smib_tau_h_against_separatrix():
    """Closed-form check: unloaded machine, fault removes all power transfer."""
    red, gp = smib(Pm=0.3, Pbar=1.0, M=0.05)
    # fault-on network: no coupling at all -> constant acceleration Pm/M
    red_on = sw.ReducedNetwork(
        n=2, G=np.zeros((2, 2)), B=np.zeros((2, 2)), Pbar=np.zeros((2, 2)), E=np.ones(2)
    )
    from swingcct.equilibria import find_sep

    delta_s = np.array([np.arcsin(0.3)])
    sep, hm = find_sep(red, gp, delta_s)
    x_pre = sw.SystemState(delta=sep.delta, omega=np.zeros(1))
    fom = en.FaultOnHamiltonianModel.at_prefault(red_on, gp, x_pre.delta)
    E_c = en.potential(hm, np.array([np.pi - np.arcsin(0.3)]))
    t_h = en.tau_H(hm, E_c, en.fault_on_trajectory([fom], [gp], [x_pre], 2.0)[0])
    # constant acceleration u: delta(t) = d_s + u t^2 / 2, H grows accordingly;
    # invert H(t) = E_c numerically as the oracle
    u = gp.Pm[0] / gp.M[0]
    ts = np.arange(0.0, 1.0, 1e-5)
    d = sep.delta[0] + 0.5 * u * ts**2
    H = 0.5 * gp.M[0] * (u * ts) ** 2 + np.array([en.potential(hm, np.array([v])) for v in d])
    t_oracle = ts[np.argmax(H >= E_c)]
    assert t_h == pytest.approx(t_oracle, abs=2e-5)
