"""Swing-equation dynamics: exact and dissipation-frozen fields, integration.

Machine convention: all vectors over machines have length n (machine order =
generator bus order).  Exactly one machine is infinite; it is excluded from
the state vector and its angle is pinned to 0, which serves as the reference
for the other rotor angles.  All pairwise sin/cos coupling goes through
`Coupling`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InadmissibleScenario, IntegrationError
from .netmodel import ReducedNetwork

Field = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class GeneratorParams:
    """Per-machine constants of the swing model.

    M holds the lumped inertia 2*H/omega0 for each machine (np.inf for the
    infinite machine); Pm the mechanical input powers; E the EMF magnitudes.
    """

    M: np.ndarray
    Pm: np.ndarray
    E: np.ndarray
    infinite_index: int

    def __post_init__(self) -> None:
        M = np.asarray(self.M, dtype=float)
        Pm = np.asarray(self.Pm, dtype=float)
        E = np.asarray(self.E, dtype=float)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "Pm", Pm)
        object.__setattr__(self, "E", E)
        if not (M.shape == Pm.shape == E.shape) or M.ndim != 1:
            raise ValueError("M, Pm, E must be equal-length vectors")
        if not 0 <= self.infinite_index < M.size:
            raise ValueError("infinite_index out of range")
        act = self.active
        if np.any(M[act] <= 0.0) or not np.all(np.isfinite(M[act])):
            raise ValueError("modeled machines need positive finite inertia")

    @property
    def n(self) -> int:
        return self.M.size

    @property
    def active(self) -> np.ndarray:
        """Indices of the modeled (non-infinite) machines."""
        idx = np.arange(self.n)
        return idx[idx != self.infinite_index]

    @property
    def n_active(self) -> int:
        return self.n - 1

    def full_angles(self, delta: np.ndarray) -> np.ndarray:
        """Embed active-machine angles into a length-n vector (infinite at 0)."""
        delta = np.asarray(delta, dtype=float)
        if delta.shape != (self.n_active,):
            raise ValueError(f"expected {self.n_active} angles, got {delta.shape}")
        full = np.empty(self.n)
        full[self.active] = delta
        full[self.infinite_index] = 0.0
        return full


def wrap_angle(x: np.ndarray | float) -> np.ndarray | float:
    """Wrap to (-pi, pi]."""
    w = np.mod(np.asarray(x, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    w = np.where(w == -np.pi, np.pi, w)
    return float(w) if np.isscalar(x) else w


@dataclass(frozen=True)
class SystemState:
    """Rotor angles and speed deviations of the modeled machines."""

    delta: np.ndarray
    omega: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.delta, dtype=float)
        w = np.asarray(self.omega, dtype=float)
        object.__setattr__(self, "delta", d)
        object.__setattr__(self, "omega", w)
        if d.shape != w.shape or d.ndim != 1:
            raise ValueError("delta and omega must be equal-length vectors")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(w))):
            raise ValueError("non-finite state")

    @property
    def m(self) -> int:
        return self.delta.size

    def packed(self) -> np.ndarray:
        return np.concatenate([self.delta, self.omega])

    @classmethod
    def from_packed(cls, y: np.ndarray) -> "SystemState":
        y = np.asarray(y, dtype=float)
        m = y.size // 2
        return cls(delta=y[:m], omega=y[m:])

    def wrapped(self) -> "SystemState":
        """Angles wrapped to (-pi, pi] for reporting."""
        return SystemState(delta=wrap_angle(self.delta), omega=self.omega.copy())


class Coupling:
    """Pairwise coupling of a reduced network, evaluated on stacked angles.

    Every method takes the angles of the machines in `act` with shape (..., m)
    and treats each leading index as one independent state; the machine left
    out of `act` (the infinite one) sits at angle 0.  The pairwise
    differences d_i - d_k of all n x n machine pairs come from one product
    with a fixed difference operator K of +1/-1/0 entries, so each one is the
    exactly rounded difference.

    The conductive form evaluates the electric power
    P_i = sum_k E_i E_k (G_ik cos d_ik + B_ik sin d_ik); the anchored form
    leaves out the conductance term, which the conservative model freezes
    into its drive Pm - Pa.
    """

    def __init__(self, red: ReducedNetwork, act: np.ndarray, conductive: bool = True):
        n = red.n
        unit = np.eye(n)[act]
        self.n = n
        self.act = act
        self.conductive = conductive
        self.K = (unit[:, :, None] - unit[:, None, :]).reshape(act.size, n * n)
        self.PG = (np.outer(red.E, red.E) * red.G).ravel()
        self.Pbar = red.Pbar.ravel()
        #: flat indices of the pairs i < k
        self.pairs = np.array([i * n + k for i in range(n) for k in range(i + 1, n)], dtype=int)
        self._K_pairs = self.K[:, self.pairs]
        self._Pbar_pairs = self.Pbar[self.pairs]
        self._diag = np.arange(act.size)

    def diffs(self, delta: np.ndarray) -> np.ndarray:
        """d_i - d_k for every machine pair, flattened row-major to (..., n*n)."""
        return np.asarray(delta, dtype=float) @ self.K

    def _rows(self, terms: np.ndarray) -> np.ndarray:
        return terms.reshape(terms.shape[:-1] + (self.n, self.n)).sum(axis=-1)

    def power(self, delta: np.ndarray) -> np.ndarray:
        """Power leaving every machine (the anchored form: its sine part), shape (..., n)."""
        D = self.diffs(delta)
        if self.conductive:
            return self._rows(self.PG * np.cos(D) + self.Pbar * np.sin(D))
        return self._rows(self.Pbar * np.sin(D))

    def conductance(self, delta: np.ndarray) -> np.ndarray:
        """The conductance term sum_k E_i E_k G_ik cos d_ik alone, shape (..., n)."""
        return self._rows(self.PG * np.cos(self.diffs(delta)))

    def jacobian(self, delta: np.ndarray) -> np.ndarray:
        """d power_i / d delta_j over the modeled machines, shape (..., m, m).

        The anchored form is the Hessian of the potential energy.
        """
        D = self.diffs(delta)
        C = self.Pbar * np.cos(D)
        if self.conductive:
            C = C - self.PG * np.sin(D)
        C = C.reshape(D.shape[:-1] + (self.n, self.n))[..., self.act, :]
        J = -C[..., self.act]
        J[..., self._diag, self._diag] = C.sum(axis=-1)
        return J

    def pair_energy(self, delta: np.ndarray) -> np.ndarray:
        """sum_{i<k} Pbar_ik cos d_ik, shape (...)."""
        D = np.asarray(delta, dtype=float) @ self._K_pairs
        return (self._Pbar_pairs * np.cos(D)).sum(axis=-1)


def swing_field(red: ReducedNetwork, gp: GeneratorParams, Pa: np.ndarray | None = None) -> Field:
    """Right-hand side over the packed state [delta; omega].

    Without Pa this is the exact field; with Pa (full machine vector) it is
    the conservative field whose conductance power is frozen at Pa.
    """
    act = gp.active
    m = act.size
    coupling = Coupling(red, act, conductive=Pa is None)
    drive = gp.Pm[act] if Pa is None else gp.Pm[act] - Pa[act]
    Minv = 1.0 / gp.M[act]

    def field(y: np.ndarray) -> np.ndarray:
        out = np.empty(2 * m)
        out[:m] = y[m:]
        out[m:] = (drive - coupling.power(y[:m])[act]) * Minv
        return out

    return field


@dataclass(frozen=True)
class Trajectory:
    """Accepted integrator samples plus a dense interpolant between them."""

    t: np.ndarray
    _dense: object

    def __post_init__(self) -> None:
        if self.t[0] != 0.0 or np.any(np.diff(self.t) <= 0.0):
            raise ValueError("trajectory times must start at 0 and increase strictly")

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    def sample(self, ts: np.ndarray) -> np.ndarray:
        """Dense-output states at the requested times, shape (len(ts), 2m)."""
        ts = np.asarray(ts, dtype=float)
        return np.asarray(self._dense(ts)).T

    def state(self, t: float) -> SystemState:
        return SystemState.from_packed(np.asarray(self._dense(t)))


def integrate(
    field: Field,
    x0: SystemState | np.ndarray,
    t_end: float,
    tol: float = 1e-8,
    atol: float = 1e-10,
) -> Trajectory:
    """Adaptive RK5(4) integration of an autonomous field with dense output."""
    # imported here: scipy.integrate is most of the package's import time
    from scipy.integrate import solve_ivp

    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    y0 = x0.packed() if isinstance(x0, SystemState) else np.asarray(x0, dtype=float)
    sol = solve_ivp(
        lambda _t, y: field(y),
        (0.0, t_end),
        y0,
        method="RK45",
        rtol=tol,
        atol=atol,
        dense_output=True,
    )
    if not sol.success:
        t_bad = float(sol.t[-1]) if sol.t.size else 0.0
        raise IntegrationError(f"integration failed at t={t_bad:.6g}: {sol.message}", time=t_bad)
    return Trajectory(t=sol.t, _dense=sol.sol)


def dispatch_from_angles(
    red_pre: ReducedNetwork,
    delta_pre: np.ndarray,
    infinite_index: int,
) -> np.ndarray:
    """Mechanical powers that make (delta_pre, 0) stationary pre-fault.

    delta_pre covers the modeled machines; the infinite machine sits at 0.
    Returns the full-length Pm vector (the infinite machine's entry is its
    electrical output, kept for bookkeeping only).  Pre-fault angles must lie
    within pi/2 of each other pairwise and modeled machines must come out as
    generators (Pm > 0), otherwise the scenario is rejected.
    """
    idx = np.arange(red_pre.n)
    act = idx[idx != infinite_index]
    coupling = Coupling(red_pre, act)
    if np.any(np.abs(coupling.diffs(delta_pre)) >= np.pi / 2.0):
        raise InadmissibleScenario(
            "pre-fault angles must satisfy |d_i - d_k| < pi/2 pairwise", code="bad-angles"
        )
    Pm = coupling.power(delta_pre)
    if np.any(Pm[act] <= 0.0):
        bad = [int(i) for i in act[Pm[act] <= 0.0]]
        raise InadmissibleScenario(
            f"dispatch gives non-positive mechanical power for machines {bad}",
            code="pm-nonpositive",
        )
    return Pm
