"""Network assembly, topology edits and Kron reduction.

The reduction oracle used throughout: solve the full nodal equations with
zero current injection at eliminated buses and compare the injected currents
at retained nodes against the reduced matrix acting on the same voltages.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swingcct.netmodel as nm
from swingcct.errors import NetworkError, SingularNetworkError
from swingcct.faultstudy import regimes

RNG = np.random.default_rng(42)


def two_bus(y=1.0 - 5.0j):
    net = nm.BusNetwork(
        buses=(nm.Bus("a"), nm.Bus("b")),
        branches=(nm.Branch(id="ab", from_bus="a", to_bus="b", y_series=y),),
        shunt_loads={},
        generators={},
    )
    return net, y


def nodal_currents(Y: nm.ComplexMatrix, retained: list[str], V_R: np.ndarray) -> np.ndarray:
    """Injected currents at retained nodes, zero injection elsewhere."""
    keep = [Y.index(r) for r in retained]
    drop = [i for i in range(len(Y.nodes)) if i not in keep]
    A = Y.values
    if drop:
        V_L = np.linalg.solve(A[np.ix_(drop, drop)], -A[np.ix_(drop, keep)] @ V_R)
        return A[np.ix_(keep, keep)] @ V_R + A[np.ix_(keep, drop)] @ V_L
    return A[np.ix_(keep, keep)] @ V_R


# ---------------------------------------------------------------------------
# build_ybus
# ---------------------------------------------------------------------------


def test_two_bus_stamp():
    net, y = two_bus()
    Y = nm.build_ybus(net)
    expected = np.array([[y, -y], [-y, y]])
    assert np.allclose(Y.values, expected, atol=0)


def test_isolated_bus_with_shunt():
    net = nm.BusNetwork(
        buses=(nm.Bus("a"),), branches=(), shunt_loads={"a": 0.7 + 0.0j}, generators={}
    )
    Y = nm.build_ybus(net)
    assert Y.values.shape == (1, 1)
    assert Y.values[0, 0] == 0.7 + 0.0j


def test_wscc_shunt_loads_on_diagonal(wscc):
    """The published load values appear summed into the bus diagonals."""
    Y = nm.build_ybus(wscc.net)
    for bus, load in (("5", 1.261 - 0.2634j), ("6", 0.8777 - 0.0346j), ("8", 0.969 - 0.1601j)):
        i = Y.index(bus)
        without = nm.build_ybus(nm.set_load(wscc.net, bus, 0j))
        assert Y.values[i, i] - without.values[i, i] == pytest.approx(load, abs=1e-12)


def test_zero_impedance_branch_rejected():
    net, _ = two_bus(y=complex(np.inf, 0.0))
    with pytest.raises(NetworkError, match="zero-impedance"):
        nm.build_ybus(net)


def test_generator_nodes_appended(wscc):
    Y = nm.build_ybus(wscc.net)
    assert len(Y.nodes) == 9 + 3
    # internal node connects through 1/(j x'_d)
    g = wscc.net.generators["2"]
    i, j = Y.index("2"), Y.index(nm.internal_node("2"))
    assert Y.values[i, j] == pytest.approx(-1.0 / (1j * g.xd_prime))
    assert np.allclose(Y.values, Y.values.T)


# ---------------------------------------------------------------------------
# kron_reduce
# ---------------------------------------------------------------------------


def test_kron_identity():
    net, y = two_bus()
    Y = nm.build_ybus(net)
    red = nm.kron_reduce(Y, ["a", "b"])
    assert np.array_equal(red.values, Y.values)


def test_kron_series_shunt_chain():
    y, y_L = 2.0 - 8.0j, 0.9 - 0.4j
    net = nm.BusNetwork(
        buses=(nm.Bus("a"), nm.Bus("load")),
        branches=(nm.Branch(id="al", from_bus="a", to_bus="load", y_series=y),),
        shunt_loads={"load": y_L},
        generators={},
    )
    red = nm.kron_reduce(nm.build_ybus(net), ["a"])
    assert red.values[0, 0] == pytest.approx(y * y_L / (y + y_L), rel=1e-14)


def test_kron_wscc_full_nodal_oracle(wscc):
    """Reduced matrix reproduces the full nodal solve for random phasors."""
    Y = nm.build_ybus(wscc.net)
    retained = [nm.internal_node(b) for b in wscc.net.generator_buses]
    red = nm.kron_reduce(Y, retained)
    for _ in range(10):
        V_R = RNG.normal(size=3) * np.exp(1j * RNG.uniform(-np.pi, np.pi, size=3))
        expected = nodal_currents(Y, retained, V_R)
        assert np.max(np.abs(red.values @ V_R - expected)) <= 1e-10


def test_kron_singular_block_reports_buses():
    # isolated eliminated bus: its diagonal is zero, Y_LL singular
    net = nm.BusNetwork(
        buses=(nm.Bus("a"), nm.Bus("dangling")),
        branches=(),
        shunt_loads={"a": 1.0 + 0j},
        generators={},
    )
    with pytest.raises(NetworkError, match="dangling"):
        nm.kron_reduce(nm.build_ybus(net), ["a"])


def test_kron_staged_composability():
    n = 8
    A = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    A = A + A.T + np.diag(10.0 + RNG.uniform(1, 2, n))  # symmetric, well conditioned
    nodes = tuple(f"n{i}" for i in range(n))
    Y = nm.ComplexMatrix(values=A, nodes=nodes)
    final = ["n0", "n1", "n2"]
    one_shot = nm.kron_reduce(Y, final)
    staged = nm.kron_reduce(nm.kron_reduce(Y, ["n0", "n1", "n2", "n3", "n4"]), final)
    assert np.max(np.abs(one_shot.values - staged.values)) <= 1e-10


# ---------------------------------------------------------------------------
# apply_fault / apply_clearing / set_load
# ---------------------------------------------------------------------------


def test_fault_shrinks_matrix_by_one(wscc):
    on = nm.apply_fault(wscc.net, "7")
    assert len(nm.build_ybus(on).nodes) == len(nm.build_ybus(wscc.net).nodes) - 1


def test_fault_on_infinite_bus_rejected(wscc):
    with pytest.raises(NetworkError, match="infinite"):
        nm.apply_fault(wscc.net, "1")
    with pytest.raises(NetworkError, match="does not exist"):
        nm.apply_fault(wscc.net, "99")


def test_fault_islands_generators():
    gens = {
        "1": nm.Generator(bus="1", emf=1.0, xd_prime=0.1, inertia=5.0),
        "3": nm.Generator(bus="3", emf=1.0, xd_prime=0.1, inertia=5.0),
    }
    net = nm.BusNetwork(
        buses=(nm.Bus("1", "generator"), nm.Bus("2"), nm.Bus("3", "generator")),
        branches=(
            nm.Branch(id="12", from_bus="1", to_bus="2", y_series=-4j),
            nm.Branch(id="23", from_bus="2", to_bus="3", y_series=-4j),
        ),
        shunt_loads={},
        generators=gens,
    )
    red = nm.reduce_to_generators(nm.apply_fault(net, "2"))
    assert red.Pbar[0, 1] == 0.0


def test_fault_pinned_voltage_oracle(wscc):
    """Fault-on reduction equals pinning the faulted bus voltage to zero."""
    Y = nm.build_ybus(wscc.net)  # unfaulted assembly
    retained = [nm.internal_node(b) for b in wscc.net.generator_buses]
    red_on = nm.kron_reduce(nm.build_ybus(nm.apply_fault(wscc.net, "7")), retained)

    keep = [Y.index(r) for r in retained]
    pin = Y.index("7")
    drop = [i for i in range(len(Y.nodes)) if i not in keep and i != pin]
    A = Y.values
    for _ in range(5):
        V_R = RNG.normal(size=3) + 1j * RNG.normal(size=3)
        V_L = np.linalg.solve(A[np.ix_(drop, drop)], -A[np.ix_(drop, keep)] @ V_R)
        I_R = A[np.ix_(keep, keep)] @ V_R + A[np.ix_(keep, drop)] @ V_L
        assert np.max(np.abs(red_on.values @ V_R - I_R)) <= 1e-10


def test_clearing_touches_only_branch_entries(wscc):
    Y_pre = nm.build_ybus(wscc.net)
    Y_post = nm.build_ybus(nm.apply_clearing(wscc.net, "5-7"))
    diff = Y_pre.values - Y_post.values
    i, j = Y_pre.index("5"), Y_pre.index("7")
    touched = {(i, i), (j, j), (i, j), (j, i)}
    nonzero = set(zip(*np.nonzero(diff)))
    assert nonzero == touched


def test_clearing_then_restore_is_involution(wscc):
    br = wscc.net.branch("5-7")
    cleared = nm.apply_clearing(wscc.net, "5-7")
    restored = nm.BusNetwork(
        buses=cleared.buses,
        branches=cleared.branches + (br,),
        shunt_loads=cleared.shunt_loads,
        generators=cleared.generators,
        frequency=cleared.frequency,
    )
    assert np.array_equal(nm.build_ybus(restored).values, nm.build_ybus(wscc.net).values)


def test_clearing_a_bridge_warns():
    gens = {
        "1": nm.Generator(bus="1", emf=1.0, xd_prime=0.1, inertia=5.0),
        "2": nm.Generator(bus="2", emf=1.0, xd_prime=0.1, inertia=5.0),
    }
    net = nm.BusNetwork(
        buses=(nm.Bus("1", "generator"), nm.Bus("2", "generator")),
        branches=(nm.Branch(id="12", from_bus="1", to_bus="2", y_series=-4j),),
        shunt_loads={},
        generators=gens,
    )
    with pytest.warns(UserWarning, match="islands"):
        nm.apply_clearing(net, "12")


def test_duplicate_branch_ids_rejected(wscc):
    """Clearing removes a branch by id, so an id must name one branch."""
    (b46,) = [br for br in wscc.net.branches if br.id == "4-6"]
    branches = tuple(replace(br, id="5-7") if br is b46 else br for br in wscc.net.branches)
    with pytest.raises(NetworkError, match="duplicate branch ids"):
        replace(wscc.net, branches=branches)


def test_set_load_nominal_is_noop(wscc):
    same = nm.set_load(wscc.net, "8", 0.969 - 0.1601j)
    assert np.array_equal(nm.build_ybus(same).values, nm.build_ybus(wscc.net).values)


def test_set_load_returns_copy(wscc):
    before = wscc.net.shunt_loads["8"]
    edited = nm.set_load(wscc.net, "8", 0.0j)
    assert wscc.net.shunt_loads["8"] == before
    assert edited.shunt_loads["8"] == 0.0j


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_symmetry_through_pipeline(wscc):
    for red in (
        nm.build_ybus(wscc.net),
        nm.build_ybus(nm.apply_fault(wscc.net, "7")),
        nm.build_ybus(nm.apply_clearing(wscc.net, "5-7")),
    ):
        assert np.max(np.abs(red.values - red.values.T)) <= 1e-12
    retained = [nm.internal_node(b) for b in wscc.net.generator_buses]
    red = nm.kron_reduce(nm.build_ybus(wscc.net), retained)
    assert np.max(np.abs(red.values - red.values.T)) <= 1e-12


def test_reduced_network_pbar_identity(wscc):
    for red in regimes(wscc):
        outer = np.outer(red.E, red.E) * red.B
        np.fill_diagonal(outer, 0.0)
        assert np.array_equal(red.Pbar, outer)
        assert np.all(np.diag(red.Pbar) == 0.0)
        assert np.max(np.abs(red.Pbar - red.Pbar.T)) == 0.0


def test_random_networks_stay_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n_bus = rng.integers(3, 7)
        buses = tuple(nm.Bus(f"b{i}") for i in range(n_bus))
        branches = []
        for k in range(n_bus - 1):  # spanning chain keeps things connected
            y = rng.normal() + 1j * rng.normal(loc=-4)
            branches.append(
                nm.Branch(id=f"c{k}", from_bus=f"b{k}", to_bus=f"b{k+1}", y_series=y)
            )
        loads = {f"b{i}": rng.normal() + 1j * rng.normal() for i in range(n_bus)}
        net = nm.BusNetwork(buses=buses, branches=tuple(branches), shunt_loads=loads, generators={})
        Y = nm.build_ybus(net)
        assert np.max(np.abs(Y.values - Y.values.T)) <= 1e-12
        red = nm.kron_reduce(Y, ["b0"])
        assert np.max(np.abs(red.values - red.values.T)) <= 1e-12


# ---------------------------------------------------------------------------
# the Kron template of a swept load
# ---------------------------------------------------------------------------


@st.composite
def swept_networks(draw):
    """A random connected network (bus 0 infinite, then 1-3 generator buses,
    then 1-4 load buses), a line whose removal leaves it connected, the bus
    whose shunt load is swept (a load, a generator or the infinite bus) and
    that load's value."""
    n_gen, n_load = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    n = 1 + n_gen + n_load
    ids = [f"b{i}" for i in range(n)]
    kinds = ["infinite"] + ["generator"] * n_gen + ["load"] * n_load
    conductance, susceptance = st.floats(0.0, 2.0), st.floats(1.0, 20.0)

    def admittance():
        return complex(draw(conductance), -draw(susceptance))

    # a random spanning tree, plus extra lines that close loops
    pairs = [(draw(st.integers(0, k - 1)), k) for k in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
                           min_size=1, max_size=4))
    branches = tuple(
        nm.Branch(id=f"l{k}", from_bus=ids[i], to_bus=ids[j], y_series=admittance(),
                  shunt_from=complex(0.0, draw(st.floats(0.0, 0.2))))
        for k, (i, j) in enumerate(pairs)
    )
    load = st.builds(complex, st.floats(0.0, 2.0), st.floats(-2.0, 2.0))
    loads = {ids[i]: draw(load) for i in range(n) if draw(st.booleans())}
    generators = {
        ids[i]: nm.Generator(bus=ids[i], emf=draw(st.floats(0.9, 1.2)), xd_prime=draw(st.floats(0.05, 0.5)),
                             inertia=draw(st.floats(1.0, 20.0)))
        for i in range(1 + n_gen)
    }
    net = nm.BusNetwork(buses=tuple(nm.Bus(b, k) for b, k in zip(ids, kinds)), branches=branches,
                        shunt_loads=loads, generators=generators)
    kind = draw(st.sampled_from(["load", "generator", "infinite"]))
    bus = {"infinite": ids[0], "generator": ids[1], "load": ids[-1]}[kind]
    return net, f"l{n - 1}", bus, draw(load)


def reduced_bytes(red):
    return [a.tobytes() for a in (red.G, red.B, red.Pbar, red.E)]


@settings(max_examples=60, deadline=None)
@given(swept_networks(), st.data())
def test_template_equals_rebuilt_network(case, data):
    """At a load, a generator or the infinite bus, the template's reductions
    are those of the network rebuilt with the load, bit for bit: for the
    pre-fault and post-fault pair, and for a fault-on regime, whose fault
    is often at the swept bus, which then leaves no entry to fill."""
    net, extra_line, bus, load = case
    faultable = [b.id for b in net.buses if b.kind != "infinite"]
    fault = bus if bus in faultable and data.draw(st.booleans()) else data.draw(st.sampled_from(faultable))
    for nets in ([net, nm.apply_clearing(net, extra_line)], [nm.apply_fault(net, fault)]):
        try:
            rebuilt = [nm.reduce_to_generators(nm.set_load(n, bus, load)) for n in nets]
        except SingularNetworkError:
            with pytest.raises(SingularNetworkError):
                nm.KronTemplate(nets, bus).reduce(load)
            continue
        got = nm.KronTemplate(nets, bus).reduce(load)
        assert [reduced_bytes(r) for r in got] == [reduced_bytes(r) for r in rebuilt]


@settings(max_examples=60, deadline=None)
@given(swept_networks(), st.integers(0, 2**32 - 1))
def test_template_nodal_oracle(case, seed):
    """Zero current injection at the eliminated nodes of the full network
    gives the currents of the template's reduced matrix."""
    net, _line, bus, load = case
    full = nm.set_load(net, bus, load)
    (red,) = nm.KronTemplate([net], bus).reduce(load)
    Y = nm.build_ybus(full)
    retained = [nm.internal_node(b) for b in full.generator_buses]
    rng = np.random.default_rng(seed)
    V_R = rng.normal(size=len(retained)) * np.exp(1j * rng.uniform(-np.pi, np.pi, size=len(retained)))
    expected = nodal_currents(Y, retained, V_R)
    scale = np.abs(Y.values).max() * np.abs(V_R).max()
    assert np.max(np.abs((red.G + 1j * red.B) @ V_R - expected)) <= 1e-10 * scale
