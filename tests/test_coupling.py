"""Property checks of the pairwise coupling kernel on random small networks.

Stacked evaluation must give every row exactly the bits of a one-state
evaluation, so that batching states never changes a result.  The same holds
for kernels stacked over networks and for stacked integration runs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from swingcct import equilibria as eq
from swingcct.netmodel import ReducedNetwork
from swingcct import swing as sw
from swingcct.swing import Coupling, GeneratorParams

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


def network(draw, n: int, inf: int) -> tuple[ReducedNetwork, GeneratorParams]:
    """Random symmetric G/B, EMFs, inertias and inputs over n machines."""
    entries = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
    G = draw(arrays(float, (n, n), elements=entries))
    B = draw(arrays(float, (n, n), elements=entries))
    G, B = G + G.T, B + B.T
    E = draw(arrays(float, n, elements=st.floats(0.5, 1.5)))
    Pbar = np.outer(E, E) * B
    np.fill_diagonal(Pbar, 0.0)
    red = ReducedNetwork(n=n, G=G, B=B, Pbar=Pbar, E=E)
    M = draw(arrays(float, n, elements=st.floats(0.05, 1.0)))
    M[inf] = np.inf
    Pm = draw(arrays(float, n, elements=st.floats(-2.0, 2.0)))
    gp = GeneratorParams(M=M, Pm=Pm, E=E, infinite_index=inf)
    return red, gp


@st.composite
def networks(draw):
    """A random network over n = 2..4 machines, one infinite, plus a (k, m)
    stack of modeled-machine angles."""
    n = draw(st.integers(2, 4))
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
        assert same_bits(cp.active_power(angles), cp.power(angles)[:, gp.active])


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
        for name in ("power", "active_power", "conductance", "jacobian", "pair_energy"):
            rows = getattr(stacked, name)(angles)
            for i, kernel in enumerate(kernels):
                assert same_bits(rows[i], getattr(kernel, name)(angles[i]))


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
        batch = sw.integrate(sw.SwingField.stack([fields[i] for i in rows]), states[rows], 0.3, tol=1e-6)
        samples = batch.sample(ts)
        for j, i in enumerate(rows):
            one = sw.integrate(fields[i], states[i], 0.3, tol=1e-6)
            assert same_bits(batch.row(j).t, one.t)
            assert same_bits(batch.row(j).sample(ts), one.sample(ts))
            assert same_bits(samples[:, j], one.sample(ts))


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
                fd[:, j] = (cp.power(x + e)[act] - cp.power(x - e)[act]) / (2.0 * h)
            assert np.allclose(cp.jacobian(x), fd, rtol=1e-6, atol=1e-6)


@PROPERTY
@given(networks(), st.integers(0, 2**32 - 1))
def test_stacked_newton_equals_single_starts(case, seed):
    red, gp, starts = case
    cp = Coupling(red, gp.active, conductive=False)
    drive = np.random.default_rng(seed).uniform(-1.0, 1.0, size=gp.n_active)
    X, converged = eq._newton(cp, drive, starts, max_iter=20)
    for i, start in enumerate(starts):
        Xi, ci = eq._newton(cp, drive, start[None, :], max_iter=20)
        assert converged[i] == ci[0]
        assert same_bits(X[i], Xi[0])
