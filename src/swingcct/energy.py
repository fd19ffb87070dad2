"""Energy functions and the two energy-based clearing-time metrics.

The post-fault system is made conservative by freezing the conductance power
at the post-fault stable equilibrium; its Hamiltonian supplies the critical
level E_c (from the closest type-1 saddle) and the margin dE.  tau_H locates
the first crossing of E_c along the fault-on trajectory; tau_A solves the
closed-form quartic obtained from a constant-acceleration fault trajectory
and a quadratic expansion of the angle coupling terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InadmissibleScenario, IntegrationError
from .netmodel import ReducedNetwork
from .swing import Coupling, GeneratorParams, SwingField, SystemState, Trajectory, integrate_rows, swing_field

#: verdict strings for metrics that do not produce a time
NO_REAL_ROOT = "no-real-root"
NO_CROSSING = "no-crossing"
#: fault-on horizon of the tau_H crossing search [s]
TAU_H_HORIZON = 2.0

_ALPHA_DEGENERATE = 1e-12


@dataclass(frozen=True)
class HamiltonianModel:
    """Conservative post-fault model anchored at the post-fault SEP.

    `coupling` is the anchored kernel of the post-fault network and `drive`
    the frozen input Pm - Pa of the modeled machines.
    """

    red: ReducedNetwork
    gp: GeneratorParams
    Pa: np.ndarray        # frozen conductance power, full machine vector
    anchor: np.ndarray    # SEP angles of the modeled machines
    coupling: Coupling = field(init=False, repr=False, compare=False)
    drive: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        act = self.gp.active
        object.__setattr__(self, "coupling", Coupling(self.red, act, conductive=False))
        object.__setattr__(self, "drive", self.gp.Pm[act] - self.Pa[act])

    @classmethod
    def at_anchor(
        cls, red: ReducedNetwork, gp: GeneratorParams, anchor: np.ndarray, kernel: Coupling | None = None
    ) -> "HamiltonianModel":
        """Model with Pa frozen at `anchor`; `kernel` is the conductive kernel
        of `red`, if the caller already has one."""
        anchor = np.asarray(anchor, dtype=float)
        Pa = (kernel or Coupling(red, gp.active)).conductance(anchor)
        return cls(red=red, gp=gp, Pa=Pa, anchor=anchor)


@dataclass(frozen=True)
class FaultOnHamiltonianModel:
    """Fault-on network with conductance power frozen at the pre-fault SEP."""

    red_on: ReducedNetwork
    Pa_on: np.ndarray
    anchor: np.ndarray    # pre-fault SEP angles of the modeled machines

    @classmethod
    def at_prefault(cls, red_on: ReducedNetwork, gp: GeneratorParams, delta_pre: np.ndarray) -> "FaultOnHamiltonianModel":
        delta_pre = np.asarray(delta_pre, dtype=float)
        Pa_on = Coupling(red_on, gp.active).conductance(delta_pre)
        return cls(red_on=red_on, Pa_on=Pa_on, anchor=delta_pre)


def potential(hm: HamiltonianModel, delta: np.ndarray) -> np.ndarray:
    """Potential energy of the conservative post-fault system.

    delta holds modeled-machine angles, one state per row of a (..., m) stack.
    """
    delta = np.asarray(delta, dtype=float)
    return -(delta * hm.drive).sum(axis=-1) - hm.coupling.pair_energy(delta)


def potential_gradient(hm: HamiltonianModel, delta: np.ndarray) -> np.ndarray:
    """Analytic gradient of `potential` with respect to the modeled angles."""
    return hm.coupling.active_power(delta) - hm.drive


def hamiltonian(hm: HamiltonianModel, states: np.ndarray) -> np.ndarray:
    """Total energy, kinetic (1/2) sum M_i w_i^2 plus potential, of packed
    states [delta; omega], one state per row of a (..., 2m) stack."""
    gp = hm.gp
    act = gp.active
    m = act.size
    states = np.asarray(states, dtype=float)
    kin = 0.5 * (gp.M[act] * states[..., m:] ** 2).sum(axis=-1)
    return kin + potential(hm, states[..., :m])


def energy_margin(E_c: float, hm: HamiltonianModel, x_pre: SystemState) -> float:
    """Energy headroom E_c - H(x_pre) of the pre-fault operating point."""
    return float(E_c - hamiltonian(hm, x_pre.packed()))


def initial_accelerations(fom: FaultOnHamiltonianModel, gp: GeneratorParams) -> np.ndarray:
    """Rotor accelerations at fault inception, full machine vector.

    u_i = (Pm_i - Pe_on_i(delta_pre)) / M_i for modeled machines; the
    infinite machine contributes u = 0.
    """
    Pe = Coupling(fom.red_on, gp.active).power(fom.anchor)
    u = np.zeros(gp.n)
    act = gp.active
    u[act] = (gp.Pm[act] - Pe[act]) / gp.M[act]
    return u


@dataclass(frozen=True)
class QuarticCoefficients:
    """Coefficients of alpha t^4 + beta t^2 - gamma = 0 plus the accelerations."""

    alpha: float
    beta: float
    gamma: float
    u: np.ndarray
    u_ik: np.ndarray  # pairwise differences u_i - u_k

    def h_alt(self, t: np.ndarray | float) -> np.ndarray | float:
        """Polynomial energy surrogate relative to the pre-fault energy."""
        t2 = np.asarray(t, dtype=float) ** 2
        return self.alpha * t2**2 + self.beta * t2


def quartic_coefficients(
    hm: HamiltonianModel,
    fom: FaultOnHamiltonianModel,
    gp: GeneratorParams,
    x_pre: SystemState,
    E_c: float,
) -> QuarticCoefficients:
    """Assemble the quartic coefficients from the two reduced networks.

    beta takes the angle form of the coupling terms: it uses the pre-fault
    angle difference delta0_ik where the exact t^2 coefficient of the
    post-fault energy along the fault-on trajectory has sin delta0_ik.  So
    H(x_pre) + h_alt(t) matches that energy to second order only after the
    term (1/2) sum_{i<k} dPbar_ik u_ik (delta0_ik - sin delta0_ik) is taken
    out of beta; acceptance check 8g holds the surrogate to that promise.
    """
    u = initial_accelerations(fom, gp)
    n = gp.n
    du = hm.coupling.diffs(u[gp.active]).reshape(n, n)
    dpre = hm.coupling.diffs(x_pre.delta).reshape(n, n)
    dPbar = hm.red.Pbar - fom.red_on.Pbar

    alpha = float(np.triu(dPbar * du**2, k=1).sum() / 8.0)
    beta = float(
        0.5 * np.triu(dPbar * du * dpre, k=1).sum()
        + 0.5 * float((hm.Pa - fom.Pa_on) @ u)
    )
    gamma = energy_margin(E_c, hm, x_pre)
    return QuarticCoefficients(alpha=alpha, beta=beta, gamma=gamma, u=u, u_ik=du)


def tau_A(qc: QuarticCoefficients) -> float | str:
    """Smallest positive real root of the quartic; a verdict if none exists."""
    if qc.gamma <= 0.0:
        raise InadmissibleScenario(
            f"energy margin is not positive (gamma={qc.gamma:.6g})", code="negative-margin"
        )
    a, b, g = qc.alpha, qc.beta, qc.gamma
    if abs(a) < _ALPHA_DEGENERATE:
        if b <= 0.0:
            return NO_REAL_ROOT
        return float(np.sqrt(g / b))
    disc = b * b + 4.0 * a * g
    if disc < 0.0:
        return NO_REAL_ROOT
    # roots of a y^2 + b y - g = 0 in y = t^2, cancellation-free
    q = -0.5 * (b + np.copysign(np.sqrt(disc), b if b != 0.0 else 1.0))
    roots = [q / a, -g / q] if q != 0.0 else [0.0]
    positive = [y for y in roots if y > 0.0]
    if not positive:
        return NO_REAL_ROOT
    return float(np.sqrt(min(positive)))


def fault_on_trajectory(
    fom: Sequence[FaultOnHamiltonianModel],
    gp: Sequence[GeneratorParams],
    x_pre: Sequence[SystemState],
    horizon: float,
    tol: float = 1e-8,
    atol: float = 1e-10,
) -> list[Trajectory | IntegrationError]:
    """Integrate the exact fault-on dynamics from the pre-fault operating points.

    fom, gp and x_pre are equal-length sequences, one entry per fault; the
    faults are one stacked run (see `integrate_rows`).
    """
    stacked = SwingField.stack([swing_field(f.red_on, g) for f, g in zip(fom, gp)])
    return integrate_rows(stacked, np.array([x.packed() for x in x_pre]), horizon, tol=tol, atol=atol)


def tau_H(
    hm: HamiltonianModel,
    E_c: float,
    trajectory: Trajectory,
    locate_tol: float = 1e-6,
) -> float | str:
    """First time the post-fault energy of the fault-on trajectory hits E_c.

    `trajectory` is the fault-on run from the pre-fault operating point and
    must cover TAU_H_HORIZON.  The crossing is bracketed on a fine sampling of
    its dense output and located by bisection to `locate_tol` seconds.
    Returns NO_CROSSING if the level is never reached within the horizon.
    """
    if trajectory.t_end < TAU_H_HORIZON:
        raise ValueError(f"fault-on run ends at t={trajectory.t_end:.6g}, before the horizon {TAU_H_HORIZON:.6g}")
    gamma = energy_margin(E_c, hm, trajectory.state(0.0))
    if gamma < 0.0:
        raise InadmissibleScenario(
            f"energy margin is negative (dE={gamma:.6g})", code="negative-margin"
        )
    if gamma == 0.0:
        return 0.0

    def excess(ts: np.ndarray) -> np.ndarray:
        return hamiltonian(hm, trajectory.sample(ts)) - E_c

    ts = np.unique(np.concatenate([
        trajectory.t[trajectory.t <= TAU_H_HORIZON], np.arange(0.0, TAU_H_HORIZON, 1e-3), [TAU_H_HORIZON],
    ]))
    g = excess(ts)
    above = np.nonzero(g >= 0.0)[0]
    if above.size == 0:
        return NO_CROSSING
    k = int(above[0])
    if k == 0:
        return 0.0
    lo, hi = float(ts[k - 1]), float(ts[k])
    while hi - lo > locate_tol:
        mid = 0.5 * (lo + hi)
        if excess(np.array([mid]))[0] >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
