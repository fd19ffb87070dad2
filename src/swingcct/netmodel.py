"""Bus-level network model: Y_BUS assembly, topology edits, Kron reduction.

The admittance matrix is built over the physical buses plus one appended
internal node per generator (EMF source behind the transient reactance).
Reduction to the generator internal nodes gives the n x n admittance
parameters that drive the swing equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import NetworkError, SingularNetworkError

BUS_KINDS = ("generator", "infinite", "load")


def internal_node(bus: str) -> str:
    """Node label of the internal EMF node appended for the generator at `bus`."""
    return f"gen:{bus}"


@dataclass(frozen=True)
class Bus:
    id: str
    kind: str = "load"

    def __post_init__(self) -> None:
        if self.kind not in BUS_KINDS:
            raise NetworkError(f"bus {self.id!r}: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class Branch:
    """Series element between two buses, with optional shunt halves.

    `y_series` is the series admittance (1/Z) in p.u.; `shunt_from` and
    `shunt_to` are admittances stamped on the respective terminal buses
    (line-charging halves or similar).
    """

    id: str
    from_bus: str
    to_bus: str
    y_series: complex
    shunt_from: complex = 0j
    shunt_to: complex = 0j


@dataclass(frozen=True)
class Generator:
    """Classical machine: EMF magnitude behind transient reactance."""

    bus: str
    emf: float        # |E| p.u.
    xd_prime: float   # x'_d p.u.
    inertia: float    # H, seconds


@dataclass(frozen=True)
class BusNetwork:
    """Full network description for one operating regime.

    `grounded` lists buses whose voltage is forced to zero (bolted
    three-phase fault); their rows/columns are deleted from the assembled
    matrix before any reduction.
    """

    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    shunt_loads: Mapping[str, complex]
    generators: Mapping[str, Generator]
    frequency: float = 50.0
    grounded: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise NetworkError("duplicate bus ids")
        if len({br.id for br in self.branches}) != len(self.branches):
            raise NetworkError("duplicate branch ids")
        known = set(ids)
        for br in self.branches:
            if br.from_bus not in known or br.to_bus not in known:
                raise NetworkError(f"branch {br.id!r} references unknown bus")
            if br.from_bus == br.to_bus:
                raise NetworkError(f"branch {br.id!r} is a self-loop")
        for bus_id in self.shunt_loads:
            if bus_id not in known:
                raise NetworkError(f"shunt load on unknown bus {bus_id!r}")
        for bus_id, gen in self.generators.items():
            if bus_id not in known:
                raise NetworkError(f"generator on unknown bus {bus_id!r}")
            if gen.bus != bus_id:
                raise NetworkError(f"generator bus mismatch for {bus_id!r}")
        kinds = {b.id: b.kind for b in self.buses}
        infinite = [b.id for b in self.buses if b.kind == "infinite"]
        if len(infinite) > 1:
            raise NetworkError(f"more than one infinite bus: {infinite}")
        if not 0.0 < self.frequency < math.inf:
            raise NetworkError(f"frequency {self.frequency!r}: must be positive and finite")
        for b in self.buses:
            if b.kind in ("generator", "infinite") and b.id not in self.generators:
                raise NetworkError(f"bus {b.id!r} is kind {b.kind!r} but has no generator record")
            if b.kind == "generator" and not 0.0 < self.generators[b.id].inertia < math.inf:
                raise NetworkError(
                    f"generator at {b.id!r}: inertia {self.generators[b.id].inertia!r} must be positive and finite"
                )
        for bus_id in self.generators:
            if kinds[bus_id] == "load":
                raise NetworkError(f"generator attached to load bus {bus_id!r}")
        for g in self.grounded:
            if g not in known:
                raise NetworkError(f"grounded bus {g!r} does not exist")

    @property
    def generator_buses(self) -> tuple[str, ...]:
        """Generator terminal buses, in bus-list order (defines machine order)."""
        return tuple(b.id for b in self.buses if b.id in self.generators)

    @property
    def infinite_bus(self) -> str | None:
        for b in self.buses:
            if b.kind == "infinite":
                return b.id
        return None

    def branch(self, branch_id: str) -> Branch:
        for br in self.branches:
            if br.id == branch_id:
                return br
        raise NetworkError(f"no branch {branch_id!r}")


@dataclass(frozen=True)
class ComplexMatrix:
    """Square complex nodal matrix with node labels as the dimension tag."""

    values: np.ndarray
    nodes: tuple[str, ...]

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] != len(self.nodes):
            raise NetworkError("matrix/label dimension mismatch")
        if not np.all(np.isfinite(v.view(float))):
            raise NetworkError("non-finite matrix entry")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class ReducedNetwork:
    """Admittance parameters over the n generator internal nodes.

    Pbar[i, k] = E_i * E_k * B[i, k] with zero diagonal; G's diagonal keeps
    the shunt conductance seen from each machine.
    """

    n: int
    G: np.ndarray
    B: np.ndarray
    Pbar: np.ndarray
    E: np.ndarray

    @classmethod
    def from_stack(cls, Y: np.ndarray, emf: Sequence[float]) -> list["ReducedNetwork"]:
        """One network per matrix of a (k, n, n) stack of reduced admittance
        matrices with the same EMFs."""
        n = Y.shape[-1]
        E = np.asarray(emf, dtype=float)
        if E.shape != (n,):
            raise NetworkError("EMF vector length does not match reduced matrix")
        if not np.isfinite(Y.view(float)).all():
            raise NetworkError("non-finite matrix entry")
        G, B = Y.real.copy(), Y.imag.copy()
        Pbar = np.outer(E, E) * B
        Pbar[:, range(n), range(n)] = 0.0
        return [cls(n=n, G=g, B=b, Pbar=p, E=E) for g, b, p in zip(G, B, Pbar)]


def _stamp(Y: np.ndarray, i: int, j: int, y: complex, shunt_i: complex = 0j, shunt_j: complex = 0j) -> None:
    """Stamp a two-terminal admittance y between nodes i and j, plus shunts
    on each terminal."""
    Y[i, i] += y + shunt_i
    Y[j, j] += y + shunt_j
    Y[i, j] -= y
    Y[j, i] -= y


def build_ybus(net: BusNetwork) -> ComplexMatrix:
    """Assemble the nodal admittance matrix, generator internal nodes appended.

    Branches are stamped first, then each machine's transient reactance
    between its bus and its internal node, then the shunt loads, last.
    Grounded buses are stamped and then removed (row/column deletion), so
    the returned dimension is N + g - len(grounded).
    """
    nodes = [b.id for b in net.buses] + [internal_node(b) for b in net.generator_buses]
    idx = {nid: i for i, nid in enumerate(nodes)}
    Y = np.zeros((len(nodes), len(nodes)), dtype=complex)
    for br in net.branches:
        y = complex(br.y_series)
        if not (np.isfinite(y.real) and np.isfinite(y.imag)):
            raise NetworkError(f"branch {br.id!r}: zero-impedance (non-finite admittance)")
        _stamp(Y, idx[br.from_bus], idx[br.to_bus], y, complex(br.shunt_from), complex(br.shunt_to))
    for bus_id in net.generator_buses:
        gen = net.generators[bus_id]
        if gen.xd_prime <= 0.0:
            raise NetworkError(f"generator at {bus_id!r}: x'_d must be positive")
        _stamp(Y, idx[bus_id], idx[internal_node(bus_id)], 1.0 / (1j * gen.xd_prime))
    for bus_id, load in net.shunt_loads.items():
        Y[idx[bus_id], idx[bus_id]] += complex(load)
    if net.grounded:
        if net.infinite_bus in net.grounded:
            raise NetworkError("cannot ground the infinite bus")
        keep = [i for i, n in enumerate(nodes) if n not in net.grounded]
        Y = Y[np.ix_(keep, keep)]
        nodes = [nodes[i] for i in keep]
    return ComplexMatrix(values=Y, nodes=tuple(nodes))


def _partition(Y: ComplexMatrix, retained: Sequence[str]) -> tuple[list[int], list[int]]:
    """Indices of the retained and of the eliminated nodes, in matrix order."""
    for r in retained:
        if r not in Y.nodes:
            raise NetworkError(f"retained node {r!r} not in matrix")
    retained = set(retained)
    keep = [i for i, n in enumerate(Y.nodes) if n in retained]
    drop = [i for i, n in enumerate(Y.nodes) if n not in retained]
    return keep, drop


def _blocks(A: np.ndarray, keep: list[int], drop: list[int]) -> list[np.ndarray]:
    """Y_RR, Y_RL, Y_LR and Y_LL of the partition (keep, drop)."""
    return [A[np.ix_(r, c)] for r, c in ((keep, keep), (keep, drop), (drop, keep), (drop, drop))]


def schur_complement(
    Y_RR: np.ndarray, Y_RL: np.ndarray, Y_LR: np.ndarray, Y_LL: np.ndarray, dropped: Sequence[str]
) -> np.ndarray:
    """Y_RR - Y_RL Y_LL^{-1} Y_LR of one matrix or of a stack (k, ., .),
    symmetrised to scrub roundoff (the reduction of a symmetric matrix is
    symmetric).  A singular Y_LL raises SingularNetworkError naming the
    eliminated nodes `dropped`.
    """
    try:
        X = np.linalg.solve(Y_LL, Y_LR)
    except np.linalg.LinAlgError:
        raise SingularNetworkError(f"singular eliminated block for bus set {list(dropped)}") from None
    red = Y_RR - Y_RL @ X
    return 0.5 * (red + np.swapaxes(red, -1, -2))


class KronTemplate:
    """Kron reductions of regimes of one network to the generator internal
    nodes, as a function of the shunt load at one bus, or of none.

    The regimes share their nodes (they differ in branches, as pre-fault and
    post-fault do).  Everything but the swept load is assembled once: each
    regime's build_ybus without that load, split into its retained and
    eliminated blocks, and the EMFs.  `reduce(load)` adds the load to its
    diagonal entry, which is build_ybus's last stamp there, and eliminates
    all regimes in one stacked solve: the reductions of the networks rebuilt
    with the load, bit for bit.  Where a fault grounds the swept bus, or
    `bus` is None, no entry takes the load.
    """

    def __init__(self, nets: Sequence[BusNetwork], bus: str | None = None):
        if bus is not None and bus not in {b.id for b in nets[0].buses}:
            raise NetworkError(f"no bus {bus!r}")
        retained = [internal_node(b) for b in nets[0].generator_buses]
        self._emf = np.array([nets[0].generators[b].emf for b in nets[0].generator_buses])
        blocks = []
        for net in nets:
            Y = build_ybus(replace(net, shunt_loads={k: v for k, v in net.shunt_loads.items() if k != bus}))
            keep, drop = _partition(Y, retained)
            if blocks and Y.nodes != labels:
                raise NetworkError("the regimes of a template must share their nodes")
            labels = Y.nodes
            blocks.append(_blocks(Y.values, keep, drop))
        self._RR, self._RL, self._LR, self._LL = (np.array(b) for b in zip(*blocks))
        self._dropped = [labels[i] for i in drop]
        self._at = self._dropped.index(bus) if bus in self._dropped else None

    def reduce(self, load: complex) -> list[ReducedNetwork]:
        """Each regime's reduction with `load` at the swept bus."""
        return self._reduce([load])

    def reductions(self, loads: Sequence[complex]) -> list[list[ReducedNetwork] | NetworkError]:
        """`reduce` of every load, all in one stacked solve unless one of
        them fails: each load's regimes, or the NetworkError `reduce` raises
        with it."""
        try:
            nets = self._reduce(loads)
        except NetworkError:
            nets = None
        if nets is None:    # outside the handler, so that no error keeps the first one as its context
            out: list[list[ReducedNetwork] | NetworkError] = []
            for load in loads:
                try:
                    out.append(self.reduce(load))
                except NetworkError as exc:
                    out.append(exc.with_traceback(None))    # kept as a value: its traceback holds this frame
            return out
        k = self._LL.shape[0]
        return [nets[i : i + k] for i in range(0, len(nets), k)]

    def _reduce(self, loads: Sequence[complex]) -> list[ReducedNetwork]:
        """The regimes' reductions of each load in turn, as one stack."""
        tile = (len(loads), 1, 1)
        Y_LL = np.tile(self._LL, tile)
        if self._at is not None:
            at = Y_LL.reshape((len(loads), -1) + Y_LL.shape[1:])[:, :, self._at, self._at]
            at += np.array(loads, dtype=complex)[:, None]
            if not np.all(np.isfinite(at)):
                raise NetworkError("non-finite matrix entry")
        red = schur_complement(*(np.tile(b, tile) for b in (self._RR, self._RL, self._LR)), Y_LL, self._dropped)
        return ReducedNetwork.from_stack(red, self._emf)


def apply_fault(net: BusNetwork, fault_bus: str) -> BusNetwork:
    """Bolted three-phase fault: mark `fault_bus` for row/column deletion."""
    if fault_bus not in {b.id for b in net.buses}:
        raise NetworkError(f"fault bus {fault_bus!r} does not exist")
    for b in net.buses:
        if b.id == fault_bus and b.kind == "infinite":
            raise NetworkError("cannot fault the infinite bus")
    if fault_bus in net.grounded:
        return net
    return replace(net, grounded=net.grounded + (fault_bus,))


def is_islanded(net: BusNetwork) -> bool:
    """True if some generator bus is cut off from the rest of the machines."""
    alive = {b.id for b in net.buses} - set(net.grounded)
    adj: dict[str, set[str]] = {b: set() for b in alive}
    for br in net.branches:
        if br.from_bus in alive and br.to_bus in alive:
            adj[br.from_bus].add(br.to_bus)
            adj[br.to_bus].add(br.from_bus)
    gens = [g for g in net.generator_buses if g in alive]
    if len(gens) < 2:
        return False
    seen = {gens[0]}
    stack = [gens[0]]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return any(g not in seen for g in gens[1:])


def apply_clearing(net: BusNetwork, switch_out: str) -> BusNetwork:
    """Post-fault topology: remove one branch (fault cleared by switching)."""
    br = net.branch(switch_out)
    remaining = tuple(b for b in net.branches if b.id != br.id)
    cleared = replace(net, branches=remaining)
    if is_islanded(cleared):
        import warnings

        warnings.warn(f"removing branch {switch_out!r} islands part of the network", stacklevel=2)
    return cleared


def set_load(net: BusNetwork, bus_id: str, Y: complex) -> BusNetwork:
    """Copy of the network with the shunt load at `bus_id` replaced by Y."""
    if bus_id not in {b.id for b in net.buses}:
        raise NetworkError(f"no bus {bus_id!r}")
    loads = dict(net.shunt_loads)
    loads[bus_id] = complex(Y)
    return replace(net, shunt_loads=loads)


def reduce_to_generators(net: BusNetwork) -> ReducedNetwork:
    """Build, ground, and reduce down to the generator internal nodes: the
    one-regime KronTemplate of `net`, which has no swept bus to take a load."""
    (reduced,) = KronTemplate([net]).reduce(0j)
    return reduced
