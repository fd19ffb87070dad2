"""Three-regime fault study: true CCT, energy CCT, analytic CCT, margin."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from . import energy as en
from . import equilibria as eq
from . import netmodel as nm
from . import swing as sw
from .errors import EquilibriumError, InadmissibleScenario, IntegrationError

UNBOUNDED = "unbounded"
#: verdict for tau and tau_H when the fault-on integration fails
INTEGRATION_FAILED = "integration-failed"

#: first-swing divergence threshold on pairwise angle excursions [rad]
DIVERGENCE_THRESHOLD = np.pi
#: pairs moving less than this never count as diverging-without-return [rad]
SMALL_SWING = 0.05


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

    def with_load_part(self, bus_id: str, part: str, value: float) -> "FaultScenario":
        """Set the conductance ('G') or susceptance ('B') of one shunt load."""
        base = self.net.shunt_loads.get(bus_id, 0j)
        if part == "G":
            return self.with_load(bus_id, complex(value, base.imag))
        if part == "B":
            return self.with_load(bus_id, complex(base.real, value))
        raise ValueError(f"parameter part must be 'G' or 'B', got {part!r}")


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


@dataclass(frozen=True)
class StudyContext:
    """Prepared pipeline shared by the metric computations."""

    sc: FaultScenario
    red_pre: nm.ReducedNetwork
    red_on: nm.ReducedNetwork
    red_post: nm.ReducedNetwork
    gp: sw.GeneratorParams
    x_pre: sw.SystemState
    sep: eq.EquilibriumPoint
    hm: en.HamiltonianModel
    fom: en.FaultOnHamiltonianModel
    crit: eq.CriticalEnergy
    delta_E: float


def regimes(sc: FaultScenario) -> tuple[nm.ReducedNetwork, nm.ReducedNetwork, nm.ReducedNetwork]:
    """Reduced admittance parameters for pre-fault, fault-on and post-fault."""
    pre = sc.net
    on = nm.apply_fault(pre, sc.fault_bus)
    post = nm.apply_clearing(pre, sc.clearing_branch)
    return (
        nm.reduce_to_generators(pre),
        nm.reduce_to_generators(on),
        nm.reduce_to_generators(post),
    )


def prefault_state(sc: FaultScenario) -> tuple[np.ndarray, int]:
    """Modeled-machine pre-fault angles and the infinite machine index."""
    gen_buses = sc.net.generator_buses
    infinite_index = gen_buses.index(sc.net.infinite_bus)
    delta = []
    for i, bus in enumerate(gen_buses):
        if i == infinite_index:
            continue
        if bus not in sc.prefault_angles:
            raise InadmissibleScenario(
                f"missing pre-fault angle for generator bus {bus!r}", code="bad-angles"
            )
        delta.append(float(sc.prefault_angles[bus]))
    return np.array(delta), infinite_index


def generator_params(sc: FaultScenario, red_pre: nm.ReducedNetwork) -> sw.GeneratorParams:
    """Machine constants plus the dispatched mechanical powers."""
    delta_pre, infinite_index = prefault_state(sc)
    omega0 = 2.0 * np.pi * sc.frequency
    gen_buses = sc.net.generator_buses
    M = np.array([2.0 * sc.net.generators[b].inertia / omega0 for b in gen_buses])
    M[infinite_index] = np.inf
    Pm = sw.dispatch_from_angles(red_pre, delta_pre, infinite_index)
    return sw.GeneratorParams(M=M, Pm=Pm, E=red_pre.E, infinite_index=infinite_index)


def build_context(sc: FaultScenario, grid_density: int = 40) -> StudyContext:
    """Run the full pipeline up to the critical energy.

    Raises InadmissibleScenario (with a reason code) when the scenario fails
    one of the admissibility constraints.
    """
    red_pre, red_on, red_post = regimes(sc)
    gp = generator_params(sc, red_pre)
    delta_pre, _ = prefault_state(sc)
    x_pre = sw.SystemState(delta=delta_pre, omega=np.zeros_like(delta_pre))

    try:
        sep, hm = eq.find_sep(red_post, gp, delta_pre)
    except EquilibriumError as exc:
        raise InadmissibleScenario(f"no post-fault SEP: {exc}", code="no-sep") from exc

    ueps = eq.enumerate_ueps(hm, grid_density=grid_density)
    try:
        crit = eq.closest_uep(ueps, hm)
    except EquilibriumError as exc:
        raise InadmissibleScenario(str(exc), code="no-boundary") from exc

    delta_E = en.energy_margin(crit.E_c, hm, x_pre)
    fom = en.FaultOnHamiltonianModel.at_prefault(red_on, gp, delta_pre)
    return StudyContext(
        sc=sc, red_pre=red_pre, red_on=red_on, red_post=red_post, gp=gp,
        x_pre=x_pre, sep=sep, hm=hm, fom=fom, crit=crit, delta_E=delta_E,
    )


def _pair_excursions(ctx: StudyContext, states: np.ndarray) -> np.ndarray:
    """|pairwise angle difference - its SEP value| for each sample row."""
    coupling = ctx.hm.coupling
    m = ctx.gp.n_active
    ref = coupling.diffs(ctx.sep.delta)[coupling.pairs]
    return np.abs(coupling.diffs(states[:, :m])[:, coupling.pairs] - ref)


def first_swing_stable(
    ctx: StudyContext,
    fault_on: sw.Trajectory,
    t_cl: float,
    window: float = 3.0,
    tol: float = 1e-8,
) -> bool:
    """First-swing verdict for a fault cleared at t_cl.

    The post-fault run starts from the fault-on trajectory's state at t_cl.
    Stable means every pairwise rotor-angle difference stays within
    DIVERGENCE_THRESHOLD of its post-fault equilibrium value over the
    observation window and swings back (reaches a peak and retreats).
    """
    if not 0.0 <= t_cl <= fault_on.t_end:
        raise ValueError(f"clearing time {t_cl:.6g} outside the fault-on run [0, {fault_on.t_end:.6g}]")

    field = sw.swing_field(ctx.red_post, ctx.gp)
    n_pairs = ctx.gp.n * (ctx.gp.n - 1) // 2
    peak = np.zeros(n_pairs)
    returned = np.zeros(n_pairs, dtype=bool)
    chunk = 0.75
    dt = 0.005
    t_done = 0.0
    state = fault_on.state(t_cl)
    # the divergence bound is enforced over the whole window: an orbit may
    # complete its first return swing and still run away afterwards
    while t_done < window:
        t_span = min(chunk, window - t_done)
        try:
            traj = sw.integrate(field, state, t_span, tol=tol)
        except IntegrationError:
            return False
        ts = np.arange(0.0, t_span, dt)
        ts = np.append(ts, t_span)
        exc = _pair_excursions(ctx, traj.sample(ts))
        if np.any(exc >= DIVERGENCE_THRESHOLD):
            return False
        # prior[j]: the peak of each pair before sample j
        prior = np.maximum.accumulate(np.vstack([peak, exc[:-1]]), axis=0)
        returned |= np.any(exc < prior - 1e-2, axis=0)
        peak = np.maximum(prior[-1], exc[-1])
        state = traj.state(t_span)
        t_done += t_span
    return bool(np.all(returned | (peak < SMALL_SWING)))


def true_cct(
    ctx: StudyContext,
    fault_on: sw.Trajectory,
    resolution: float = 1e-4,
    horizon: float = 1.0,
    window: float = 3.0,
    tol: float = 1e-8,
) -> tuple[float | str, str | None]:
    """Binary search for the largest stable clearing time.

    Every clearing state is read from `fault_on`, which must cover the
    horizon.  Returns (value, verdict): value is the lower end of the final
    bracket, UNBOUNDED when stable at the horizon; verdict flags the
    degenerate case of a post-fault system unstable even at instant clearing.
    """
    if fault_on.t_end < horizon:
        raise ValueError(f"fault-on run ends at t={fault_on.t_end:.6g}, before the horizon {horizon:.6g}")
    if not first_swing_stable(ctx, fault_on, 0.0, window=window, tol=tol):
        return 0.0, "unstable-at-zero"
    if first_swing_stable(ctx, fault_on, horizon, window=window, tol=tol):
        return UNBOUNDED, None
    lo, hi = 0.0, horizon
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if first_swing_stable(ctx, fault_on, mid, window=window, tol=tol):
            lo = mid
        else:
            hi = mid
    return lo, None


def run_fault_study(
    sc: FaultScenario,
    resolution: float = 1e-4,
    horizon: float = 1.0,
    window: float = 3.0,
    tau_h_horizon: float = 2.0,
    tol: float = 1e-8,
    grid_density: int = 40,
) -> FaultStudyResult:
    """Compute tau, tau_H, tau_A and the energy margin for one scenario.

    tau and tau_H read one fault-on trajectory, integrated once to the
    longer of their two horizons.
    """
    verdicts: dict[str, str] = {}
    try:
        ctx = build_context(sc, grid_density=grid_density)
    except InadmissibleScenario as exc:
        return FaultStudyResult(
            tau=None, tau_H=None, tau_A=None, delta_E=None, E_c=None,
            closest_uep=None, admissible=False, verdicts={"scenario": exc.code},
        )

    if ctx.delta_E <= 0.0:
        return FaultStudyResult(
            tau=None, tau_H=None, tau_A=None, delta_E=ctx.delta_E, E_c=ctx.crit.E_c,
            closest_uep=ctx.crit.closest_uep, admissible=False,
            verdicts={"scenario": "negative-margin"},
        )

    qc = en.quartic_coefficients(ctx.hm, ctx.fom, ctx.gp, ctx.x_pre, ctx.crit.E_c)
    t_A = en.tau_A(qc)
    if isinstance(t_A, str):
        verdicts["tau_A"] = t_A

    t = t_H = None
    try:
        fault_on = en.fault_on_trajectory(ctx.fom, ctx.gp, ctx.x_pre, max(horizon, tau_h_horizon), tol=tol)
    except IntegrationError:
        verdicts["tau"] = verdicts["tau_H"] = INTEGRATION_FAILED
    else:
        t_H = en.tau_H(ctx.hm, ctx.crit.E_c, fault_on, horizon=tau_h_horizon)
        if isinstance(t_H, str):
            verdicts["tau_H"] = t_H
        t, t_verdict = true_cct(
            ctx, fault_on, resolution=resolution, horizon=horizon, window=window, tol=tol
        )
        if isinstance(t, str):
            verdicts["tau"] = t
        elif t_verdict is not None:
            verdicts["tau"] = t_verdict

    return FaultStudyResult(
        tau=t, tau_H=t_H, tau_A=t_A, delta_E=ctx.delta_E, E_c=ctx.crit.E_c,
        closest_uep=ctx.crit.closest_uep, admissible=True, verdicts=verdicts,
    )


def hamiltonian_model_factory(
    sc: FaultScenario, bus_id: str, part: str
) -> "eq.ModelFactory":
    """Post-fault anchored-model builder as a function of one load parameter."""

    def factory(value: float) -> en.HamiltonianModel:
        sc_p = sc.with_load_part(bus_id, part, value)
        # the fault-on regime plays no role in equilibrium continuation
        red_pre = nm.reduce_to_generators(sc_p.net)
        red_post = nm.reduce_to_generators(nm.apply_clearing(sc_p.net, sc_p.clearing_branch))
        gp = generator_params(sc_p, red_pre)
        delta_pre, _ = prefault_state(sc_p)
        try:
            _sep, hm = eq.find_sep(red_post, gp, delta_pre)
        except EquilibriumError as exc:
            raise InadmissibleScenario(f"no post-fault SEP: {exc}", code="no-sep") from exc
        return hm

    return factory
