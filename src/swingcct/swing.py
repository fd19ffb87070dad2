"""Swing-equation dynamics: exact and dissipation-frozen fields, integration.

Machine convention: the n machines are ordered as their generator buses, and
exactly one of them is infinite; its angle is pinned to 0, which serves as
the reference for the other rotor angles.  Everything else (inertias,
inputs, powers and the packed state [delta; omega]) covers the m = n - 1
modeled machines only, in machine order.  All pairwise sin/cos coupling goes
through `Coupling`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InadmissibleScenario, IntegrationError
from .netmodel import ReducedNetwork

Field = Callable[[np.ndarray], np.ndarray]


def equal_lengths(**named: Sequence) -> None:
    """Raise ValueError naming the lengths unless the named sequences have one length."""
    if len({len(x) for x in named.values()}) > 1:
        raise ValueError("unequal lengths: " + ", ".join(f"{k} {len(x)}" for k, x in named.items()))


def _modeled_machines(n: int, infinite_index: int) -> np.ndarray:
    """Indices of the modeled (non-infinite) machines among n."""
    idx = np.arange(n)
    return idx[idx != infinite_index]


@dataclass(frozen=True)
class GeneratorParams:
    """Constants of the modeled machines of the swing model.

    M holds the lumped inertia 2*H/omega0 and Pm the mechanical input power
    of each modeled machine; infinite_index is the position of the infinite
    machine among all n = M.size + 1 machines.
    """

    M: np.ndarray
    Pm: np.ndarray
    infinite_index: int

    def __post_init__(self) -> None:
        M = np.asarray(self.M, dtype=float)
        Pm = np.asarray(self.Pm, dtype=float)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "Pm", Pm)
        if M.shape != Pm.shape or M.ndim != 1:
            raise ValueError("M and Pm must be equal-length vectors")
        if not 0 <= self.infinite_index <= M.size:
            raise ValueError("infinite_index out of range")
        if np.any(M <= 0.0) or not np.all(np.isfinite(M)):
            raise ValueError("modeled machines need positive finite inertia")

    @property
    def n(self) -> int:
        return self.M.size + 1

    @property
    def active(self) -> np.ndarray:
        """Indices of the modeled machines among all n."""
        return _modeled_machines(self.n, self.infinite_index)

    @property
    def n_active(self) -> int:
        return self.M.size


@functools.lru_cache(maxsize=None)
def _operators(n: int, act: bytes) -> tuple[np.ndarray, ...]:
    """The network-independent arrays of a kernel over n machines.

    K (the difference operator), the flat indices `pairs` of the pairs
    i < k, K restricted to them, the flat indices of the terms (i, k), i in
    act (the bytes of an int array), laid out machine-major as (n, len(act)),
    and the transpose of K restricted to those; built once per machine set.
    """
    a = np.frombuffer(act, dtype=int)
    unit = np.eye(n)[a]
    K = (unit[:, :, None] - unit[:, None, :]).reshape(a.size, n * n)
    pairs = np.array([i * n + k for i in range(n) for k in range(i + 1, n)], dtype=int)
    act_terms = a * n + np.arange(n)[:, None]
    out = (K, pairs, K[:, pairs], act_terms, np.ascontiguousarray(K[:, act_terms.ravel()].T))
    for x in out:
        x.flags.writeable = False
    return out


class Coupling:
    """Pairwise coupling of a reduced network, evaluated on stacked angles.

    Every method takes the angles of the machines in `act` with shape (..., m)
    and treats each leading index as one independent state; the machine left
    out of `act` (the infinite one) sits at angle 0.  Powers, conductances
    and Jacobians cover the rows of the machines in `act`.  The pairwise
    differences d_i - d_k come from one product with a fixed difference
    operator K of +1/-1/0 entries, so each one is the exactly rounded
    difference.  The terms of the rows of act are laid out (n, m, states), so
    one reduction over n adds each row's terms in machine order.

    The conductive form evaluates the electric power
    P_i = sum_k E_i E_k (G_ik cos d_ik + B_ik sin d_ik); the anchored form
    leaves out the conductance term, which the conservative model freezes
    into its drive Pm - Pa.

    A kernel built from one network applies it to every state; `stack` joins
    kernels into one whose network parameters have one row per network, so
    row k of a (K, m) stack is evaluated on network k.
    """

    #: the network parameters and the axis of their rows, one per network: E_i E_k G_ik
    #: and Pbar_ik over the terms (k, i) of act, (n, m, rows); Pbar_ik over i < k, (rows, pairs)
    _NETWORK = {"_PG_act": -1, "_Pbar_act": -1, "_Pbar_pairs": 0}

    def __init__(self, red: ReducedNetwork, act: np.ndarray, conductive: bool = True):
        self.n = red.n
        self.act = act
        self.conductive = conductive
        self.K, self.pairs, self._K_pairs, act_terms, self._K_act = _operators(red.n, np.asarray(act, dtype=int).tobytes())
        self._diag = np.arange(act.size)
        Pbar = red.Pbar.ravel()
        self._PG_act = (np.outer(red.E, red.E) * red.G).ravel()[act_terms, None]
        self._Pbar_act = Pbar[act_terms, None]
        self._Pbar_pairs = Pbar[None, self.pairs]

    @classmethod
    def stacked(cls, reds: Sequence[ReducedNetwork], act: np.ndarray) -> "Coupling":
        """`stack` of the kernels of networks of the same machines, whose
        network parameters come from one product over the stacked networks."""
        out = cls(reds[0], act)
        act_terms = _operators(out.n, np.asarray(act, dtype=int).tobytes())[3]
        E, G, Pbar = (np.array(x) for x in zip(*((r.E, r.G, r.Pbar) for r in reds)))
        Pbar = Pbar.reshape(len(reds), -1)
        out._PG_act = (E[:, :, None] * E[:, None, :] * G).reshape(len(reds), -1).T[act_terms]
        out._Pbar_act = Pbar.T[act_terms]
        out._Pbar_pairs = Pbar[:, out.pairs]
        return out

    @classmethod
    def stack(cls, kernels: Sequence["Coupling"]) -> "Coupling":
        """One kernel whose row k evaluates the network of kernels[k]."""
        first = kernels[0]
        # kernels of one machine set share the operator arrays of `_operators`
        for k in kernels:
            if k.K is not first.K or k.conductive != first.conductive:
                raise ValueError("stacked kernels need the same machines and form")
        out = first._copy()
        for name, axis in cls._NETWORK.items():
            setattr(out, name, np.concatenate([getattr(k, name) for k in kernels], axis=axis))
        return out

    def _copy(self) -> "Coupling":
        """A shallow copy, sharing every array."""
        out = object.__new__(Coupling)
        out.__dict__.update(self.__dict__)
        return out

    def take(self, rows: np.ndarray) -> "Coupling":
        """The stacked kernel of the given rows; a kernel of one network is its own."""
        if self.networks == 1:
            return self
        out = self._copy()
        for name, axis in self._NETWORK.items():
            setattr(out, name, np.take(getattr(self, name), rows, axis=axis))
        return out

    def diffs(self, delta: np.ndarray) -> np.ndarray:
        """d_i - d_k for every machine pair, flattened row-major to (..., n*n)."""
        return np.asarray(delta, dtype=float) @ self.K

    def _columns(self, delta: np.ndarray) -> np.ndarray:
        """The states of (..., m) angles as the columns of an (m, states) array."""
        return np.asarray(delta, dtype=float).reshape(-1, self.act.size).T

    def _act_diffs(self, dT: np.ndarray) -> np.ndarray:
        """d_i - d_k, i in act, of the (m, states) angles dT, as (n, m, states)."""
        return (self._K_act @ dT).reshape(self.n, self.act.size, dT.shape[1])

    @property
    def networks(self) -> int:
        """How many networks the kernel holds: 1, or one per row of a stack."""
        return self._Pbar_pairs.shape[0]

    def _power_of(self, dT: np.ndarray) -> np.ndarray:
        """`power` of the (m, states) angles dT, shape (m, states)."""
        D = self._act_diffs(dT)
        P = self._Pbar_act * np.sin(D)
        if self.conductive:
            P += self._PG_act * np.cos(D)
        return np.add.reduce(P)

    def power(self, delta: np.ndarray) -> np.ndarray:
        """Power leaving every modeled machine (the anchored form: its sine
        part), shape (..., m)."""
        return self._power_of(self._columns(delta)).T.reshape(np.shape(delta))

    def conductance(self, delta: np.ndarray) -> np.ndarray:
        """The conductance term sum_k E_i E_k G_ik cos d_ik alone, shape (..., m)."""
        D = self._act_diffs(self._columns(delta))
        return np.add.reduce(self._PG_act * np.cos(D)).T.reshape(np.shape(delta))

    def power_jacobian(self, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`power` and `jacobian` of the same angles, from one sine and one
        cosine of the differences: shapes (..., m) and (..., m, m)."""
        D = self._act_diffs(self._columns(delta))
        S, Co = np.sin(D), np.cos(D)
        P, C = self._Pbar_act * S, self._Pbar_act * Co
        if self.conductive:
            P += self._PG_act * Co
            C -= self._PG_act * S
        shape = np.shape(delta)
        return np.add.reduce(P).T.reshape(shape), self._jacobian_from(C, shape)

    def _jacobian_from(self, C: np.ndarray, shape: tuple) -> np.ndarray:
        """The Jacobian of (..., m) angles of that `shape` from the terms C of
        its entries, laid out (n, m, states)."""
        J = -C[self.act].T
        J[:, self._diag, self._diag] = np.add.reduce(C).T
        return J.reshape(shape + (self.act.size,))

    def jacobian(self, delta: np.ndarray) -> np.ndarray:
        """d power_i / d delta_j over the modeled machines, shape (..., m, m).

        The anchored form is the Hessian of the potential energy.
        """
        return self.power_jacobian(delta)[1]

    def anchored(self) -> "Coupling":
        """The anchored form of this kernel, sharing its arrays."""
        out = self._copy()
        out.conductive = False
        return out

    def pair_diffs(self, delta: np.ndarray) -> np.ndarray:
        """d_i - d_k for the machine pairs i < k, shape (..., pairs)."""
        return np.asarray(delta, dtype=float) @ self._K_pairs

    def pair_energy(self, delta: np.ndarray) -> np.ndarray:
        """sum_{i<k} Pbar_ik cos d_ik, shape (...)."""
        D = self.pair_diffs(delta)
        return (self._Pbar_pairs * np.cos(D)).sum(axis=-1).reshape(D.shape[:-1])


class SwingField:
    """Right-hand side over packed states [delta; omega], (2m,) or (K, 2m).

    `drive` is Pm (exact field) or Pm - Pa (conservative field) of the
    modeled machines and `Minv` their inverse inertias, both as columns
    (m, 1); with a stacked coupling both carry one column per network.
    """

    def __init__(self, coupling: Coupling, drive: np.ndarray, Minv: np.ndarray):
        self.coupling = coupling
        self.drive = drive
        self.Minv = Minv
        self.m = coupling.act.size

    @classmethod
    def stack(cls, fields: Sequence["SwingField"]) -> "SwingField":
        """One field whose row k evaluates fields[k]."""
        return cls(
            Coupling.stack([f.coupling for f in fields]),
            np.hstack([f.drive for f in fields]),
            np.hstack([f.Minv for f in fields]),
        )

    def take(self, rows: np.ndarray) -> "SwingField":
        """The stacked field of the given rows of this stacked field."""
        return SwingField(self.coupling.take(rows), self.drive[:, rows], self.Minv[:, rows])

    def __call__(self, y: np.ndarray) -> np.ndarray:
        if y.ndim == 1:
            return self(y[None])[0]
        m = self.m
        accel = (self.drive - self.coupling._power_of(y[:, :m].T)) * self.Minv
        return np.concatenate([y[:, m:], accel.T], axis=1)


def swing_field(red: ReducedNetwork, gp: GeneratorParams, Pa: np.ndarray | None = None) -> SwingField:
    """Right-hand side over the packed state [delta; omega].

    Without Pa this is the exact field; with Pa (one entry per modeled
    machine) it is the conservative field whose conductance power is frozen
    at Pa.
    """
    coupling = Coupling(red, gp.active, conductive=Pa is None)
    drive = gp.Pm if Pa is None else gp.Pm - Pa
    return SwingField(coupling, drive[:, None], 1.0 / gp.M[:, None])


@dataclass(frozen=True)
class Trajectory:
    """Accepted steps of one integrator run: step j runs from t[j] to t[j+1]
    (t has shape (S+1,)) with size h[j], start state y[j] and quartic
    dense-output coefficients Q[:, j], shape (4, S, d)."""

    t: np.ndarray
    h: np.ndarray
    y: np.ndarray
    Q: np.ndarray

    def __post_init__(self) -> None:
        if self.t[0] != 0.0 or np.any(np.diff(self.t) <= 0.0):
            raise ValueError("trajectory times must start at 0 and increase strictly")

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    def sample(self, ts: np.ndarray) -> np.ndarray:
        """Dense-output states at the requested times, shape (len(ts), d).

        A time on a step boundary is read from the step that ends there.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        g = np.clip(np.searchsorted(self.t, ts, side="left") - 1, 0, self.h.size - 1)
        return dense_state(self.y[g], self.h[g][:, None], self.Q[:, g], ((ts - self.t[g]) / self.h[g])[:, None])


class Runs:
    """Trajectories of one state size sampled as one: `sample(which, ts)`
    reads runs[which[j]] at ts[j] for every j, with the bits of
    `Trajectory.sample`."""

    def __init__(self, runs: Sequence[Trajectory]):
        sizes = np.array([r.h.size for r in runs])
        self._first = np.cumsum(sizes) - sizes
        self._last = self._first + sizes - 1
        # every run's step times as run + 1j * time, sorted as complex numbers are: by run, then by time
        self._keys = np.repeat(np.arange(sizes.size), sizes + 1) + 1j * np.concatenate([r.t for r in runs])
        self.t, self.h, self.y = (np.concatenate(x) for x in zip(*((r.t[:-1], r.h, r.y) for r in runs)))
        self.Q = np.concatenate([r.Q for r in runs], axis=1)

    def sample(self, which: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """The dense-output state of run which[j] at ts[j] for every j, shape (len(ts), d)."""
        # the step times of its run below each time, and those of the runs before it
        below = np.searchsorted(self._keys, which + 1j * ts, side="left") - which
        g = np.clip(below - 1, self._first[which], self._last[which])
        return dense_state(self.y[g], self.h[g][:, None], self.Q[:, g], ((ts - self.t[g]) / self.h[g])[:, None])


# Dormand-Prince 5(4) pair (Dormand & Prince 1980) with Shampine's quartic
# dense output, as in the common RK45 codes, as one table of stage weights.
# Rows 0-4 are the inputs of stages 1-5, row 5 the solution, row 6 the
# embedded error and rows 7-9 the dense-output coefficients Q1-Q3 (Q0 is
# stage 0 itself).
_W = np.array([
    (1 / 5, 0, 0, 0, 0, 0, 0),
    (3 / 40, 9 / 40, 0, 0, 0, 0, 0),
    (44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0),
    (35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0),
    (-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40),
    (-8048581381 / 2820520608, 0, 131558114200 / 32700410799, -1754552775 / 470086768,
     127303824393 / 49829197408, -282668133 / 205662961, 40617522 / 29380423),
    (8663915743 / 2820520608, 0, -68118460800 / 10900136933, 14199869525 / 1410260304,
     -318862633887 / 49829197408, 2019193451 / 616988883, -110615467 / 29380423),
    (-12715105075 / 11282082432, 0, 87487479700 / 32700410799, -10690763975 / 1880347072,
     701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423),
])[:, :, None, None]
#: (first row, end row, weights) of stages 1-6: stage s reads row s-1 (the
#: input of stages 1-5, the solution for stage 6) and is added, in stage
#: order, to its rows of nonzero weight (1-4 for stage 1, else s-9)
_STAGES = [(a, b, _W[a:b, s]) for s, (a, b) in enumerate([(1, 5), (2, 10), (3, 10), (4, 10), (5, 10), (6, 10)], 1)]
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 5
#: default absolute tolerance of the integrator
ATOL = 1e-10
#: integrator attempts between two checks of a `dopri_run`
CHECK = 16


def _rms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.add.reduce(np.square(x), axis=-1)) / x.shape[-1] ** 0.5


def _initial_step(field: Field, y: np.ndarray, t_end: float, tol: float, atol: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-row derivative and first step size (Hairer, Norsett & Wanner, Solving ODEs I, II.4)."""
    f = field(y)
    scale = atol + np.abs(y) * tol
    d0 = _rms(y / scale)
    d1 = _rms(f / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, t_end)
    f1 = field(y + h0[:, None] * f)
    d2 = _rms((f1 - f) / scale) / h0
    h1 = np.where(
        (d1 <= 1e-15) & (d2 <= 1e-15),
        np.maximum(1e-6, h0 * 1e-3),
        (0.01 / np.maximum(d1, d2)) ** (1 / 5),
    )
    return f, np.minimum(np.minimum(100 * h0, h1), t_end)


def dense_state(y: np.ndarray, h: np.ndarray, Q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Quartic dense output y + h (Q0 x + Q1 x^2 + Q2 x^3 + Q3 x^4) at step
    fractions x, with the powers as cumulative products; every operand
    holds one entry per sample (or broadcasts to it)."""
    p2 = x * x
    p3 = p2 * x
    return y + h * (Q[0] * x + Q[1] * p2 + Q[2] * p3 + Q[3] * (p3 * x))


class Block(NamedTuple):
    """The attempts of a `dopri_run` since its last check, stacked: row ids
    (K,); per attempt and row, whether its step was accepted, its start and
    end times (A, K), start state (A, K, d) and dense coefficients (A, 4, K, d)."""

    ids: np.ndarray
    accept: np.ndarray
    t: np.ndarray
    t_new: np.ndarray
    y: np.ndarray
    Q: np.ndarray

    def take(self, rows: np.ndarray) -> "Block":
        """The block of the given rows (positions in `ids`)."""
        return Block(self.ids[rows], *(x[:, rows] for x in self[1:5]), self.Q[:, :, rows])


def dopri_run(
    field: Field, y: np.ndarray, t_end: float, tol: float, atol: float, failed: dict[int, float],
    check: Callable[[Block], tuple | None], ids: np.ndarray | None = None,
) -> None:
    """Lockstep Dormand-Prince 5(4) over a (K, d) stack of initial states.

    Every CHECK attempts, and after an attempt that leaves no row live, the
    run calls check(block) with the `Block` of the attempts since the last
    check; the rows' ids are `ids`, by default their indices in y.  A row
    whose step size underflows gets its time in `failed` under its id and
    stops.  A check returns None or a pair (retire, admit), applied before
    the next attempt: the run drops the rows whose ids are in the array
    `retire`, and every row that has finished or failed, from its state and
    from the stacked field (which needs a `take`); then `admit`, None or a
    triple (ids, field, y) of new rows, their stacked field and states,
    appends rows (the fields need a `stack`), each starting at its own t =
    0 with its own first step size, as in a fresh stack.  The run ends once
    no row is live after a check.

    Every row keeps its own step size, error norm and accept/reject: the
    error norm is the RMS of the embedded error over atol + tol * max(|y|,
    |y_new|), a step is accepted below 1 and the next size is the step times
    0.9 * err^(-1/5) clamped to [0.2, 10] (at most 1 right after a
    rejection); a row fails once its step falls below 10 ulp of its time.
    A row that has finished (or failed) rides along with a zero step until
    the last row is done or it is dropped.  Stage sums add each stage's
    elementwise products in stage order, so a row's bits never depend on the
    other rows or on when it joined (a BLAS product may).  The run ignores
    numpy's overflow, invalid and divide warnings: a failing row overflows.
    """
    ids = np.arange(y.shape[0]) if ids is None else ids
    min_end_step = 10.0 * np.spacing(t_end)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f, h_abs = _initial_step(field, y, t_end, tol, atol)
        t = np.zeros(ids.size)
        live = np.ones(ids.size, dtype=bool)
        fresh = np.ones(ids.size, dtype=bool)     # the next attempt starts a new step
        while live.any():
            steps = []     # the attempts since the last check
            # the smallest step of a live row, inf once no row is live; a finished
            # row keeps t = t_end and a failed one gets h_abs = 0, so neither moves
            while len(steps) < CHECK and (h_min := np.minimum.reduce(h_abs, where=live, initial=np.inf)) != np.inf:
                if not h_min > min_end_step:
                    # a step near the float spacing of t, or NaN: raise a new step to
                    # the minimum, fail a rejected one below it and a NaN one
                    min_step = 10.0 * np.spacing(t)
                    np.maximum(h_abs, min_step, out=h_abs, where=fresh)
                    small = live & ~(h_abs >= min_step)
                    failed.update(zip(ids[small].tolist(), t[small].tolist()))
                    h_abs[small] = 0.0
                    live &= ~small
                t_new = np.minimum(t + h_abs, t_end)
                h = t_new - t
                hc = h[:, None]
                acc = _W[:, 0] * f
                for a, b, w in _STAGES:
                    y_new = y + acc[a - 1] * hc
                    k = field(y_new)
                    rows = acc[a:b]
                    rows += w * k
                scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * tol
                err = _rms(acc[6] * hc / scale)
                accept = live & (err < 1)
                # after a rejection the step may not grow; err == 0 gives the cap;
                # a rejected step (err >= 1) never reaches the cap
                grow = np.minimum(np.where(fresh, _MAX_FACTOR, 1.0), _SAFETY * np.power(err, _ERROR_EXPONENT))
                h_abs = h * np.fmax(_MIN_FACTOR, grow)
                steps.append((accept, t, t_new, y, np.concatenate((f[None], acc[7:]))))
                fresh = accept
                t = np.where(accept, t_new, t)
                moved = accept[:, None]
                y = np.where(moved, y_new, y)
                f = np.where(moved, k, f)
                live &= t < t_end
            change = check(Block(ids, *(np.array(x) for x in zip(*steps))))
            if change is None:
                continue
            retire, admit = change
            keep = live & ~np.isin(ids, retire)
            if not keep.all():
                ids, t, y, f, h_abs, live, fresh = (x[keep] for x in (ids, t, y, f, h_abs, live, fresh))
                field = field.take(np.flatnonzero(keep))
            if admit is not None:
                new_ids, new_field, new_y = admit
                new = (new_ids, np.zeros(new_ids.size), new_y, *_initial_step(new_field, new_y, t_end, tol, atol))
                ids, t, y, f, h_abs = (np.concatenate(x) for x in zip((ids, t, y, f, h_abs), new))
                live, fresh = np.ones(ids.size, dtype=bool), np.concatenate([fresh, np.ones(new_ids.size, dtype=bool)])
                # an emptied stack takes the new rows' field as it is
                field = type(field).stack([field, new_field]) if keep.any() else new_field


def sample_block(block: Block, ts: np.ndarray, m: int) -> np.ndarray:
    """The first m components of the states at the sample times ts in a
    block, as `Trajectory.sample` reads them (a step (t, t_new] holds the
    times above t up to t_new, a row's first step also t = 0), shape (slots,
    K, m): each attempt has as many slots as its step with the most samples,
    so a row's samples come in time order, NaN in the slots its step leaves."""
    lo = np.where(block.t == 0.0, 0, np.searchsorted(ts, block.t, side="right"))
    n = np.where(block.accept, np.searchsorted(ts, block.t_new, side="right") - lo, 0)
    slots = n.max(axis=1, initial=0)
    a, k = np.nonzero(n)
    count = n[a, k]
    # per sample: the flat index g of its step (a, k) and its place j among that step's samples
    g = np.repeat(a * n.shape[1] + k, count)
    j = np.arange(g.size) - np.repeat(np.cumsum(count) - count, count)
    t = block.t.ravel()[g]
    h = block.t_new.ravel()[g] - t
    # component-major, (m, samples), so that the arithmetic runs along the samples
    y = np.take(block.y[..., :m].transpose(2, 0, 1).reshape(m, -1), g, axis=-1)
    Q = np.take(block.Q[..., :m].transpose(1, 3, 0, 2).reshape(4, m, -1), g, axis=-1)
    slot = np.repeat(np.cumsum(slots)[a] - slots[a], count) + j
    out = np.full((slots.sum(), n.shape[1], m), np.nan)
    out[slot, g % n.shape[1]] = dense_state(y, h, Q, (ts[np.repeat(lo[a, k], count) + j] - t) / h).T
    return out


def _collected(
    field: Field, Y: np.ndarray, t_end: float, tol: float, atol: float, check: Callable[[Block], tuple | None]
) -> list[Trajectory | IntegrationError]:
    """`dopri_run` of the (K, d) stack Y under `check`, with the accepted
    steps of each row, which check may retire along the way, as its
    trajectory; a row whose step size underflows is its IntegrationError."""
    blocks, failed = [], {}
    dopri_run(field, Y, t_end, tol, atol, failed, lambda block: blocks.append(block) or check(block))
    steps = []    # the accepted steps of each block, by attempt and then by row
    for b in blocks:
        a, k = np.nonzero(b.accept)
        steps.append((b.ids[k], b.t[a, k], b.t_new[a, k], b.y[a, k], b.Q[a, :, k]))
    if not steps:    # an empty stack takes no step
        return []
    blocks.clear()    # the blocks dominate the memory of a large stack
    ids, t, t_new, y, Q = (np.concatenate(x) for x in zip(*steps))
    # the accepted steps by row, in attempt order
    at = np.argsort(ids, kind="stable")
    runs = np.split(at, np.cumsum(np.bincount(ids, minlength=Y.shape[0]))[:-1])
    return [
        Trajectory(t=np.append(0.0, t_new[s]), h=t_new[s] - t[s], y=y[s], Q=np.moveaxis(Q[s], 1, 0))
        if r not in failed
        else IntegrationError(f"integration failed at t={failed[r]:.6g}: step size underflow", time=failed[r])
        for r, s in enumerate(runs)
    ]


def integrate_rows(
    field: Field, Y: np.ndarray, t_end: float, tol: float = 1e-8, atol: float = ATOL
) -> list[Trajectory | IntegrationError]:
    """Adaptive Dormand-Prince 5(4) integration of a (K, d) stack of states.

    `field` maps the stack to its derivatives row by row.  Each row runs with
    its own step control, so it gives the same bits in any stack.  Returns
    one Trajectory per row; a row whose step size underflows is its
    IntegrationError, and the other rows run on.
    """
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    return _collected(field, np.asarray(Y, dtype=float), t_end, tol, atol, lambda block: None)


def integrate(field: Field, x0: np.ndarray, t_end: float, tol: float = 1e-8, atol: float = ATOL) -> Trajectory:
    """`integrate_rows` of one state, shape (d,); raises IntegrationError if
    its step size underflows."""
    y0 = np.asarray(x0, dtype=float)
    if y0.ndim != 1:
        raise ValueError("integrate takes one state; use integrate_rows for a stack")
    (run,) = integrate_rows(field, y0[None], t_end, tol=tol, atol=atol)
    if isinstance(run, IntegrationError):
        raise run
    return run


class Dispatch:
    """Mechanical powers that make (delta_pre, 0) stationary pre-fault, one
    per pre-fault network of the same machines.

    delta_pre covers the modeled machines; the infinite machine sits at 0.
    Pre-fault angles must lie within pi/2 of each other pairwise, otherwise
    every network is rejected.
    """

    def __init__(self, delta_pre: np.ndarray, infinite_index: int):
        self.delta_pre = np.asarray(delta_pre, dtype=float)
        self.infinite_index = infinite_index

    def powers(self, reds: Sequence[ReducedNetwork]) -> list[np.ndarray | InadmissibleScenario]:
        """Pm of the modeled machines on each network, as one stack, or the
        InadmissibleScenario of a network on which a modeled machine does not
        come out as a generator (Pm > 0)."""
        act = _modeled_machines(reds[0].n, self.infinite_index)
        kernel = Coupling.stacked(reds, act)
        if np.any(np.abs(kernel.diffs(self.delta_pre)) >= np.pi / 2.0):
            raise InadmissibleScenario("pre-fault angles must satisfy |d_i - d_k| < pi/2 pairwise", code="bad-angles")
        out: list[np.ndarray | InadmissibleScenario] = []
        for Pm in np.ascontiguousarray(kernel._power_of(kernel._columns(self.delta_pre)).T):
            if np.any(Pm <= 0.0):
                bad = [int(i) for i in act[Pm <= 0.0]]
                Pm = InadmissibleScenario(
                    f"dispatch gives non-positive mechanical power for machines {bad}", code="pm-nonpositive"
                )
            out.append(Pm)
        return out
