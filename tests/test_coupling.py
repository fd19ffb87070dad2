"""Property checks of the pairwise coupling kernel on random small networks.

Stacked evaluation must give every row exactly the bits of a one-state
evaluation, so that batching states never changes a result.  The same holds
for kernels stacked over networks and for stacked integration runs.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from swingcct import equilibria as eq
from swingcct.errors import IntegrationError
from swingcct.netmodel import ReducedNetwork
from swingcct import swing as sw
from swingcct.swing import Coupling, GeneratorParams

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


def network(draw, n: int, inf: int) -> tuple[ReducedNetwork, GeneratorParams]:
    """Random symmetric G/B and EMFs over n machines, and inertias and
    inputs of the modeled ones (drawn for all n, the infinite entry deleted)."""
    entries = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
    G = draw(arrays(float, (n, n), elements=entries))
    B = draw(arrays(float, (n, n), elements=entries))
    G, B = G + G.T, B + B.T
    E = draw(arrays(float, n, elements=st.floats(0.5, 1.5)))
    Pbar = np.outer(E, E) * B
    np.fill_diagonal(Pbar, 0.0)
    red = ReducedNetwork(n=n, G=G, B=B, Pbar=Pbar, E=E)
    M = draw(arrays(float, n, elements=st.floats(0.05, 1.0)))
    Pm = draw(arrays(float, n, elements=st.floats(-2.0, 2.0)))
    gp = GeneratorParams(M=np.delete(M, inf), Pm=np.delete(Pm, inf), infinite_index=inf)
    return red, gp


@st.composite
def networks(draw, max_n: int = 4):
    """A random network over n = 2..max_n machines, one infinite, plus a
    (k, m) stack of modeled-machine angles."""
    n = draw(st.integers(2, max_n))
    red, gp = network(draw, n, draw(st.integers(0, n - 1)))
    k = draw(st.integers(1, 6))
    angles = draw(arrays(float, (k, n - 1), elements=st.floats(-2.0 * np.pi, 2.0 * np.pi)))
    return red, gp, angles


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@PROPERTY
@given(networks())
def test_diffs_equal_outer_differences(case):
    red, gp, angles = case
    cp = Coupling(red, gp.active)
    stacked = cp.diffs(angles)
    for row, d in zip(angles, stacked):
        full = np.insert(row, gp.infinite_index, 0.0)
        expect = np.subtract.outer(full, full).ravel()
        assert np.array_equal(d, expect)
        assert np.array_equal(cp.diffs(row), expect)


@PROPERTY
@given(networks())
def test_stacked_rows_equal_single_rows(case):
    red, gp, angles = case
    for conductive in (True, False):
        cp = Coupling(red, gp.active, conductive=conductive)
        for method in (cp.power, cp.conductance, cp.jacobian, cp.pair_energy):
            stacked = method(angles)
            for i, row in enumerate(angles):
                assert same_bits(stacked[i], method(row))
                assert same_bits(stacked[i], method(angles[i : i + 1])[0])
        # powers and conductances cover the modeled machines only
        assert cp.power(angles).shape == cp.conductance(angles).shape == angles.shape


def in_machine_order(terms: np.ndarray) -> np.ndarray:
    """The terms (..., n) added one by one, k = 0, 1, ..., n - 1."""
    acc = terms[..., 0]
    for k in range(1, terms.shape[-1]):
        acc = acc + terms[..., k]
    return acc


@PROPERTY
@given(networks(max_n=9))
def test_kernel_sums_terms_in_machine_order(case):
    """Powers (both forms), conductances and the Jacobian's diagonal are, bit
    for bit, their terms added one by one in machine order, also beyond the
    seven machines up to which numpy's own sum of a row is sequential."""
    red, gp, angles = case
    act = gp.active
    full = np.insert(angles, gp.infinite_index, 0.0, axis=1)
    D = (full[:, :, None] - full[:, None, :])[:, act]   # d_i - d_k, i in act
    PG = (np.outer(red.E, red.E) * red.G)[act]
    Pbar = red.Pbar[act]
    diag = np.arange(act.size)
    for conductive in (True, False):
        cp = Coupling(red, act, conductive=conductive)
        P, C = Pbar * np.sin(D), Pbar * np.cos(D)
        if conductive:
            P, C = PG * np.cos(D) + P, C - PG * np.sin(D)
        J = -C[..., act]
        J[..., diag, diag] = in_machine_order(C)
        assert same_bits(cp.power(angles), in_machine_order(P))
        assert same_bits(cp.conductance(angles), in_machine_order(PG * np.cos(D)))
        assert same_bits(cp.jacobian(angles), J)


@st.composite
def network_stacks(draw):
    """k = 1..5 random networks with the same machines, one state each, and
    a random partition of the k rows into batches."""
    n = draw(st.integers(2, 4))
    inf = draw(st.integers(0, n - 1))
    k = draw(st.integers(1, 5))
    nets = [network(draw, n, inf) for _ in range(k)]
    angles = draw(arrays(float, (k, n - 1), elements=st.floats(-np.pi, np.pi)))
    speeds = draw(arrays(float, (k, n - 1), elements=st.floats(-2.0, 2.0)))
    labels = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    return nets, np.hstack([angles, speeds]), labels


@PROPERTY
@given(network_stacks())
def test_stacked_networks_equal_single_networks(case):
    nets, states, _ = case
    angles = states[:, : states.shape[1] // 2]
    for conductive in (True, False):
        kernels = [Coupling(red, gp.active, conductive=conductive) for red, gp in nets]
        stacked = Coupling.stack(kernels)
        for name in ("power", "conductance", "jacobian", "pair_energy"):
            rows = getattr(stacked, name)(angles)
            for i, kernel in enumerate(kernels):
                assert same_bits(rows[i], getattr(kernel, name)(angles[i]))


def uniform_network(n: int) -> ReducedNetwork:
    """n machines, every pair coupled by B = 1 and G = 0.1."""
    B = np.ones((n, n)) - n * np.eye(n)
    return ReducedNetwork(n=n, G=0.1 * np.ones((n, n)), B=B, Pbar=B - np.diag(np.diag(B)), E=np.ones(n))


def test_stack_rejects_other_machines_or_form():
    """Kernels of another machine set (other modeled machines, or another
    machine count) or of the other form do not stack; kernels built apart
    from equal machine arrays do."""
    red = uniform_network(3)
    kernel = Coupling(red, np.array([0, 1]))
    assert Coupling.stack([kernel, Coupling(uniform_network(3), np.array([0, 1]))]).networks == 2
    others = [
        Coupling(red, np.array([1, 2])),  # another infinite machine
        Coupling(uniform_network(4), np.array([0, 1])),  # the same modeled indices among four machines
        Coupling(red, np.array([0, 1]), conductive=False),
        kernel.anchored(),
    ]
    for other in others:
        for pair in ([kernel, other], [other, kernel]):
            with pytest.raises(ValueError, match="stacked kernels need the same machines and form"):
                Coupling.stack(pair)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(network_stacks())
def test_stacked_integration_rows_equal_single_runs(case):
    """Every row of a stacked run, with its own network, takes the steps and
    gives the dense samples of its one-row run, in any batch."""
    nets, states, labels = case
    fields = [sw.swing_field(red, gp) for red, gp in nets]
    ts = np.linspace(0.0, 0.3, 41)
    for label in set(labels):
        rows = [i for i, g in enumerate(labels) if g == label]
        batch = sw.integrate_rows(sw.SwingField.stack([fields[i] for i in rows]), states[rows], 0.3, tol=1e-6)
        for run, i in zip(batch, rows):
            one = sw.integrate(fields[i], states[i], 0.3, tol=1e-6)
            assert same_bits(run.t, one.t)
            assert same_bits(run.sample(ts), one.sample(ts))


def separate_jacobian(cp: Coupling, delta: np.ndarray) -> np.ndarray:
    """The Jacobian as the kernel computed it before power and Jacobian were
    fused: its own difference product, sine and cosine, kept as the oracle."""
    D = cp._act_diffs(cp._columns(delta))
    C = cp._Pbar_act * np.cos(D)
    if cp.conductive:
        C -= cp._PG_act * np.sin(D)
    J = -C[cp.act].T
    J[:, cp._diag, cp._diag] = np.add.reduce(C).T
    return J.reshape(np.shape(delta) + (cp.act.size,))


@PROPERTY
@given(networks(), network_stacks())
def test_fused_power_jacobian_equals_separate_calls(case, stacks):
    """One-network and stacked-network kernels, in both forms: the fused
    evaluation gives `power` and the separately computed Jacobian bit for
    bit, and the anchored copy of a conductive kernel is the anchored kernel."""
    red, gp, angles = case
    nets, states, _ = stacks
    for conductive in (True, False):
        one = Coupling(red, gp.active, conductive=conductive)
        stacked = Coupling.stack([Coupling(r, g.active, conductive=conductive) for r, g in nets])
        for cp, x in ((one, angles), (one, angles[0]), (stacked, states[:, : states.shape[1] // 2])):
            P, J = cp.power_jacobian(x)
            assert same_bits(P, cp.power(x))
            assert same_bits(J, separate_jacobian(cp, x))
            assert same_bits(cp.jacobian(x), J)
    anchored = Coupling(red, gp.active).anchored()
    assert not anchored.conductive
    for a, b in zip(anchored.power_jacobian(angles), Coupling(red, gp.active, conductive=False).power_jacobian(angles)):
        assert same_bits(a, b)


@PROPERTY
@given(networks())
def test_jacobian_matches_central_differences(case):
    red, gp, angles = case
    act = gp.active
    h = 1e-6
    for conductive in (True, False):
        cp = Coupling(red, act, conductive=conductive)
        for x in angles:
            fd = np.empty((act.size, act.size))
            for j in range(act.size):
                e = np.zeros(act.size)
                e[j] = h
                fd[:, j] = (cp.power(x + e) - cp.power(x - e)) / (2.0 * h)
            assert np.allclose(cp.jacobian(x), fd, rtol=1e-6, atol=1e-6)


@PROPERTY
@given(networks(), st.integers(0, 2**32 - 1))
def test_stacked_newton_equals_single_starts(case, seed):
    red, gp, starts = case
    cp = Coupling(red, gp.active, conductive=False)
    drive = np.random.default_rng(seed).uniform(-1.0, 1.0, size=gp.n_active)
    X, converged = eq._newton(cp, drive, starts)
    for i, start in enumerate(starts):
        Xi, ci = eq._newton(cp, drive, start[None, :])
        assert converged[i] == ci[0]
        assert same_bits(X[i], Xi[0])


def test_stacked_newton_with_a_network_and_drive_per_row():
    """On random networks, rows with their own network and drive, which
    leave the stack at different iterations, each get the bits they get
    alone."""
    lengths = set()
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 3
        act = np.delete(np.arange(n), seed % n)
        kernels = []
        for _row in range(6):
            G, B = rng.uniform(-5.0, 5.0, (2, n, n))
            E = rng.uniform(0.5, 1.5, n)
            Pbar = np.outer(E, E) * (B + B.T)
            np.fill_diagonal(Pbar, 0.0)
            red = ReducedNetwork(n=n, G=G + G.T, B=B + B.T, Pbar=Pbar, E=E)
            kernels.append(Coupling(red, act, conductive=bool(seed % 2)))
        drives = rng.uniform(-1.0, 1.0, (6, n - 1))
        starts = rng.uniform(-np.pi, np.pi, (6, n - 1))
        X, converged = eq._newton(Coupling.stack(kernels), drives, starts)
        runs, evaluate = [], Coupling.power_jacobian
        for kernel, drive, start, x, ok in zip(kernels, drives, starts, X, converged):
            with mock.patch.object(Coupling, "power_jacobian", autospec=True, side_effect=evaluate) as pj:
                Xi, ci = eq._newton(kernel, drive, start[None, :])
            runs.append((pj.call_count, bool(ci[0])))
            assert ok == ci[0] and same_bits(x, Xi[0])
        lengths.add(len(set(runs)))
    # stacks whose rows converge and fail after different numbers of iterations
    assert max(lengths) >= 4


# The stage-by-stage Dormand-Prince stepper the fused stage sums replaced,
# kept as the oracle they must reproduce bit for bit.
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_P = (
    (1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0, 0, 0, 0),
    (0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)


def _combine(coefs, stages):
    acc = None
    for c, k in zip(coefs, stages):
        if c != 0:
            acc = c * k if acc is None else acc + c * k
    return acc


def staged_integrate(field, y, t_end, tol=1e-8, atol=1e-10) -> list:
    """Stacked integration with one stage sum per weight vector, as the
    integrator computed it before its stage sums were fused, assembled into
    one trajectory per row (or its IntegrationError) step by step."""
    K = y.shape[0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f, h_abs = sw._initial_step(field, y, t_end, tol, atol)
        t = np.zeros(K)
        live = np.ones(K, dtype=bool)
        fresh = np.ones(K, dtype=bool)
        failed = np.full(K, np.nan)
        # each row's accepted steps (t_new, h, y, Q) in step order
        steps = [[] for _ in range(K)]
        while live.any():
            if np.min(h_abs, where=live, initial=np.inf) <= 10.0 * np.spacing(t_end):
                min_step = 10.0 * np.spacing(t)
                np.maximum(h_abs, min_step, out=h_abs, where=fresh)
                small = live & (h_abs < min_step)
                failed[small] = t[small]
                live &= ~small
            t_new = np.minimum(t + h_abs, t_end)
            h = np.where(live, t_new - t, 0.0)
            hc = h[:, None]
            ks = [f]
            for a in _A[1:]:
                ks.append(field(y + _combine(a, ks) * hc))
            y_new = y + hc * _combine(_B, ks)
            ks.append(field(y_new))
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * tol
            err = sw._rms(_combine(_E, ks) * hc / scale)
            grow = 0.9 * err ** (-1 / 5)
            accept = live & (err < 1)
            grown = np.minimum(np.where(fresh, 10.0, 1.0), grow)
            h_abs = h * np.where(accept, grown, np.fmax(0.2, grow))
            for i in np.flatnonzero(accept):
                Q = np.stack([_combine([p[j] for p in _P], [k[i] for k in ks]) for j in range(4)])
                steps[i].append((t_new[i], h[i], y[i], Q))
            fresh = accept
            t = np.where(accept, t_new, t)
            y = np.where(accept[:, None], y_new, y)
            f = np.where(accept[:, None], ks[6], f)
            live &= ~accept | (t_new < t_end)
    return [
        sw.Trajectory(
            t=np.array([0.0] + [s[0] for s in row]), h=np.array([s[1] for s in row]),
            y=np.array([s[2] for s in row]), Q=np.stack([s[3] for s in row], axis=1),
        ) if np.isnan(t_bad) else IntegrationError("step size underflow", time=float(t_bad))
        for row, t_bad in zip(steps, failed)
    ]


@settings(derandomize=True, max_examples=25, deadline=None)
@given(network_stacks(), st.integers(0, 4))
def test_fused_stage_sums_equal_staged_stepper(case, bad):
    """Step times, step states, dense-output coefficients and samples equal
    the stage-by-stage stepper's bits, also with a row that fails."""
    nets, states, _ = case
    stacked = sw.SwingField.stack([sw.swing_field(red, gp) for red, gp in nets])
    # one row gets a drive that escapes in finite time: x' >= 20 (1 + x^2)
    push = np.zeros((len(nets), 1))
    push[bad % len(nets)] = 20.0
    field = lambda y: stacked(y) + push * (1.0 + y * y)
    ts = np.linspace(0.0, 0.3, 41)
    new = sw.integrate_rows(field, states, 0.3, tol=1e-6)
    old = staged_integrate(field, states, 0.3, tol=1e-6)
    assert isinstance(new[bad % len(nets)], IntegrationError)
    assert len(new) == len(old) == len(nets)
    for a, b in zip(new, old):
        if isinstance(a, IntegrationError):
            assert isinstance(b, IntegrationError) and a.time == b.time
            continue
        for name in ("t", "h", "y", "Q"):
            assert same_bits(getattr(a, name), getattr(b, name)), name
        assert same_bits(a.sample(ts), b.sample(ts))


def test_stage_weights_form_one_block_per_stage():
    """Each stage adds to one contiguous block of rows of the weight table
    (stage 1 to rows 1-4, stages 2-5 to rows s-9, stage 6 to rows 6-9), so
    the stepper skips exactly the zero weights."""
    nonzero = sw._W[:, :, 0, 0] != 0
    blocks = [(0, 10), (1, 5)] + [(s, 10) for s in range(2, 7)]
    for s, (a, b) in enumerate(blocks):
        assert np.flatnonzero(nonzero[:, s]).tolist() == list(range(a, b))
