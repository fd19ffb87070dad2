"""Energy functions and the two energy-based clearing-time metrics.

The post-fault system is made conservative by freezing the conductance power
at the post-fault stable equilibrium; its Hamiltonian supplies the critical
level E_c (from the closest type-1 saddle) and the margin dE.  tau_H locates
the first crossing of E_c along the fault-on trajectory; tau_A solves the
closed-form quartic obtained from a constant-acceleration fault trajectory
and a quadratic expansion of the angle coupling terms.

States are packed [delta; omega] arrays over the modeled machines, and every
per-machine vector (Pa, Pa_on, the accelerations u) has one entry per
modeled machine, as in `swing`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InadmissibleScenario, IntegrationError
from .netmodel import ReducedNetwork
from .swing import ATOL, Block, Coupling, GeneratorParams, Runs, SwingField, Trajectory, integrate_rows, swing_field
from .swing import _collected, equal_lengths, sample_block

#: verdict strings for metrics that do not produce a time
NO_REAL_ROOT = "no-real-root"
NO_CROSSING = "no-crossing"
#: fault-on horizon of the tau_H crossing search [s]
TAU_H_HORIZON = 2.0
#: width to which tau_H's bisection locates the crossing [s]
_LOCATE_TOL = 1e-6
#: the grid of tau_H's crossing scan, besides the steps of the run [s]
_SCAN = np.append(np.arange(0.0, TAU_H_HORIZON, 1e-3), TAU_H_HORIZON)
#: scan points per run that tau_H evaluates at a time
_SCAN_CHUNK = 128

_ALPHA_DEGENERATE = 1e-12


@dataclass(frozen=True)
class HamiltonianModel:
    """Conservative post-fault model anchored at the post-fault SEP.

    `coupling` is the anchored kernel of the post-fault network, built
    unless given, and `drive` the frozen input Pm - Pa of the modeled
    machines.
    """

    red: ReducedNetwork
    gp: GeneratorParams
    Pa: np.ndarray        # frozen conductance power of the modeled machines
    anchor: np.ndarray    # SEP angles of the modeled machines
    coupling: Coupling | None = field(default=None, repr=False, compare=False)
    drive: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.coupling is None:
            object.__setattr__(self, "coupling", Coupling(self.red, self.gp.active, conductive=False))
        object.__setattr__(self, "drive", self.gp.Pm - self.Pa)

    @classmethod
    def at_anchor(cls, red: ReducedNetwork, gp: GeneratorParams, anchor: np.ndarray) -> "HamiltonianModel":
        """Model with Pa frozen at `anchor`."""
        anchor = np.asarray(anchor, dtype=float)
        kernel = Coupling(red, gp.active)
        return cls(red=red, gp=gp, Pa=kernel.conductance(anchor), anchor=anchor, coupling=kernel.anchored())


class _Rows(NamedTuple):
    """Models of the same machines as the rows of one stack, row k on model
    k: the parts of a model that classification and `potential` read."""

    coupling: Coupling
    drive: np.ndarray
    anchor: np.ndarray
    gp: GeneratorParams

    def take(self, rows: np.ndarray) -> "_Rows":
        """The stack of the given rows of this stack."""
        return _Rows(self.coupling.take(rows), self.drive[rows], self.anchor[rows], self.gp)


def _rows(models: Sequence[HamiltonianModel]) -> _Rows:
    """The stack of the models, one per row."""
    return _Rows(
        Coupling.stack([hm.coupling for hm in models]),
        np.array([hm.drive for hm in models]),
        np.array([hm.anchor for hm in models]),
        models[0].gp,
    )


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
    hm may also be a stack of models (a stacked coupling with one drive row
    per network), whose row k is model k.
    """
    delta = np.asarray(delta, dtype=float)
    return -(delta * hm.drive).sum(axis=-1) - hm.coupling.pair_energy(delta)


def potential_gradient(hm: HamiltonianModel, delta: np.ndarray) -> np.ndarray:
    """Analytic gradient of `potential` with respect to the modeled angles."""
    return hm.coupling.power(delta) - hm.drive


def hamiltonian(hm: HamiltonianModel, states: np.ndarray) -> np.ndarray:
    """Total energy, kinetic (1/2) sum M_i w_i^2 plus potential, of packed
    states [delta; omega], one state per row of a (..., 2m) stack."""
    M = hm.gp.M
    states = np.asarray(states, dtype=float)
    kin = 0.5 * (M * states[..., M.size:] ** 2).sum(axis=-1)
    return kin + potential(hm, states[..., : M.size])


def energy_margin(E_c: float, hm: HamiltonianModel, x_pre: np.ndarray) -> float:
    """Energy headroom E_c - H(x_pre) of the packed pre-fault state x_pre."""
    return float(E_c - hamiltonian(hm, x_pre))


def initial_accelerations(fom: FaultOnHamiltonianModel, gp: GeneratorParams) -> np.ndarray:
    """Rotor accelerations u_i = (Pm_i - Pe_on_i(delta_pre)) / M_i of the
    modeled machines at fault inception (the infinite machine never moves)."""
    return (gp.Pm - Coupling(fom.red_on, gp.active).power(fom.anchor)) / gp.M


@dataclass(frozen=True)
class QuarticCoefficients:
    """Coefficients of alpha t^4 + beta t^2 - gamma = 0 plus the accelerations."""

    alpha: float
    beta: float
    gamma: float
    u: np.ndarray     # accelerations of the modeled machines
    u_ik: np.ndarray  # pairwise differences u_i - u_k over all n machines

    def h_alt(self, t: np.ndarray | float) -> np.ndarray | float:
        """Polynomial energy surrogate relative to the pre-fault energy."""
        t2 = np.asarray(t, dtype=float) ** 2
        return self.alpha * t2**2 + self.beta * t2


def quartic_coefficients(hm: HamiltonianModel, fom: FaultOnHamiltonianModel, E_c: float) -> QuarticCoefficients:
    """Assemble the quartic coefficients from the two reduced networks; the
    pre-fault state is at rest at the fault-on anchor.

    beta takes the angle form of the coupling terms: it uses the pre-fault
    angle difference delta0_ik where the exact t^2 coefficient of the
    post-fault energy along the fault-on trajectory has sin delta0_ik.  So
    H(x_pre) + h_alt(t) matches that energy to second order only after the
    term (1/2) sum_{i<k} dPbar_ik u_ik (delta0_ik - sin delta0_ik) is taken
    out of beta; acceptance check 8g holds the surrogate to that promise.
    """
    u = initial_accelerations(fom, hm.gp)
    n = hm.gp.n
    du = hm.coupling.diffs(u).reshape(n, n)
    dpre = hm.coupling.diffs(fom.anchor).reshape(n, n)
    dPbar = hm.red.Pbar - fom.red_on.Pbar

    alpha = float(np.triu(dPbar * du**2, k=1).sum() / 8.0)
    beta = float(
        0.5 * np.triu(dPbar * du * dpre, k=1).sum()
        + 0.5 * float((hm.Pa - fom.Pa_on) @ u)
    )
    gamma = energy_margin(E_c, hm, np.concatenate([fom.anchor, np.zeros_like(fom.anchor)]))
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
    x_pre: Sequence[np.ndarray],
    horizon: float,
    tol: float = 1e-8,
    atol: float = ATOL,
    stop: tuple[Sequence[HamiltonianModel], Sequence[float], float] | None = None,
) -> list[Trajectory | IntegrationError]:
    """Integrate the exact fault-on dynamics from the pre-fault operating points.

    fom, gp and x_pre (packed states) are equal-length sequences, one entry
    per fault; the faults are one stacked run (see `integrate_rows`) to
    `horizon`.  With `stop`, a triple (hm, E_c, after) of each fault's
    post-fault model and critical level and one time, a run ends where no
    metric reads further: at the first check of its `swing.dopri_run` at
    which it has passed `after` and a point of the _SCAN grid where its
    energy has reached E_c.  Such a run keeps the steps of the full run, bit
    for bit, and `tau_H` reads it up to its crossing; a step that would fail
    after that check is not taken.
    """
    equal_lengths(fom=fom, gp=gp, x_pre=x_pre, **({} if stop is None else dict(hm=stop[0], E_c=stop[1])))
    stacked = SwingField.stack([swing_field(f.red_on, g) for f, g in zip(fom, gp)])
    Y = np.array(x_pre, dtype=float)
    if stop is None:
        return integrate_rows(stacked, Y, horizon, tol=tol, atol=atol)
    models, E_c, after = _rows(stop[0]), np.asarray(stop[1], dtype=float), stop[2]
    crossed = np.zeros(Y.shape[0], dtype=bool)

    def check(block: Block) -> tuple[np.ndarray, None]:
        ids = block.ids
        energy = hamiltonian(models.take(ids), sample_block(block, _SCAN, Y.shape[1]))
        crossed[ids[np.any(energy - E_c[ids] >= 0.0, axis=0)]] = True
        return ids[crossed[ids] & (np.where(block.accept[-1], block.t_new[-1], block.t[-1]) >= after)], None

    return _collected(stacked, Y, horizon, tol, atol, check)


def tau_H(
    hm: Sequence[HamiltonianModel], E_c: Sequence[float], trajectory: Sequence[Trajectory]
) -> list[float | str]:
    """First time the post-fault energy of each fault-on trajectory hits E_c.

    hm, E_c and trajectory are equal-length sequences, one entry per point
    of the same machines, computed as one stack.  Each trajectory is the
    fault-on run from the pre-fault operating point and must cover
    TAU_H_HORIZON, or its crossing (as `fault_on_trajectory` with `stop`
    ends a run).  The crossing is bracketed on a fine sampling of its dense
    output, the run's step times and the _SCAN grid, and located by
    bisection to _LOCATE_TOL seconds.  Returns NO_CROSSING where the level
    is never reached within the horizon.
    """
    equal_lengths(hm=hm, E_c=E_c, trajectory=trajectory)
    if not trajectory:
        return []
    models, E_c, runs = _rows(hm), np.asarray(E_c, dtype=float), Runs(trajectory)
    rows = np.arange(len(trajectory))
    gamma = min(energy_margin(*x) for x in zip(E_c, hm, runs.sample(rows, np.zeros(rows.size))))
    if gamma < 0.0:
        raise InadmissibleScenario(f"energy margin is negative (dE={gamma:.6g})", code="negative-margin")

    def up(which: np.ndarray, ts: np.ndarray) -> np.ndarray:
        return hamiltonian(models.take(which), runs.sample(which, ts)) - E_c[which] >= 0.0

    scans = [np.unique(np.concatenate([tr.t[tr.t <= TAU_H_HORIZON], _SCAN[_SCAN <= tr.t_end]])) for tr in trajectory]
    # the first scan point of each run at or above E_c (a zero margin has it at t = 0), found
    # _SCAN_CHUNK points of every run at a time, in time order, while a run has none
    first: list = [None] * rows.size
    for at in range(0, max(ts.size for ts in scans), _SCAN_CHUNK):
        if not (open_rows := [i for i, ts in enumerate(scans) if first[i] is None and ts.size > at]):
            break
        parts = [scans[i][at : at + _SCAN_CHUNK] for i in open_rows]
        sizes = [ts.size for ts in parts]
        above = np.split(up(np.repeat(open_rows, sizes), np.concatenate(parts)), np.cumsum(sizes)[:-1])
        for i, a in zip(open_rows, above):
            first[i] = at + int(np.argmax(a)) if a.any() else None
    out: list = []
    for tr, ts, k in zip(trajectory, scans, first):
        if k is None and tr.t_end < TAU_H_HORIZON:
            raise ValueError(f"fault-on run ends at t={tr.t_end:.6g}, before the horizon {TAU_H_HORIZON:.6g}")
        out.append(NO_CROSSING if k is None else (ts[k - 1], ts[k]) if k else 0.0)
    which = np.array([i for i, x in enumerate(out) if isinstance(x, tuple)], dtype=int)
    if which.size:
        lo, hi = (np.array(x) for x in zip(*(out[i] for i in which)))
        while (live := np.flatnonzero(hi - lo > _LOCATE_TOL)).size:
            mid = 0.5 * (lo[live] + hi[live])
            above = up(which[live], mid)
            hi[live] = np.where(above, mid, hi[live])
            lo[live] = np.where(above, lo[live], mid)
        for i, a, b in zip(which.tolist(), lo, hi):
            out[i] = float(0.5 * (a + b))
    return out
