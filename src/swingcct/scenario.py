"""Scenario file format (versioned JSON) and the bundled 9-bus test case."""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ScenarioFormatError
from .faultstudy import FaultScenario
from .netmodel import Branch, Bus, BusNetwork, Generator

SCHEMA_VERSION = 1

#: name accepted by loaders in place of a file path
BUNDLED = "wscc9-tmib"


def _complex_from(value: Any, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) for v in value)
    ):
        raise ScenarioFormatError(f"{where}: expected a [real, imag] pair, got {value!r}")
    return complex(value[0], value[1])


def _require(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise ScenarioFormatError(f"{where}: missing field {key!r}")
    return obj[key]


def scenario_from_dict(data: dict) -> FaultScenario:
    if not isinstance(data, dict):
        raise ScenarioFormatError("top level: expected an object")
    version = _require(data, "schema_version", "top level")
    if version != SCHEMA_VERSION:
        raise ScenarioFormatError(f"schema_version: unsupported version {version!r}")

    buses = []
    for i, b in enumerate(_require(data, "buses", "top level")):
        where = f"buses[{i}]"
        buses.append(Bus(id=str(_require(b, "id", where)), kind=_require(b, "kind", where)))

    branches = []
    for i, br in enumerate(_require(data, "branches", "top level")):
        where = f"branches[{i}]"
        branches.append(
            Branch(
                id=str(_require(br, "id", where)),
                from_bus=str(_require(br, "from_bus", where)),
                to_bus=str(_require(br, "to_bus", where)),
                y_series=_complex_from(_require(br, "y_series", where), f"{where}.y_series"),
                shunt_from=_complex_from(br["shunt_from"], f"{where}.shunt_from")
                if "shunt_from" in br
                else 0j,
                shunt_to=_complex_from(br["shunt_to"], f"{where}.shunt_to")
                if "shunt_to" in br
                else 0j,
            )
        )

    shunt_loads = {
        str(k): _complex_from(v, f"shunt_loads[{k!r}]")
        for k, v in _require(data, "shunt_loads", "top level").items()
    }

    generators = {}
    for k, g in _require(data, "generators", "top level").items():
        where = f"generators[{k!r}]"
        generators[str(k)] = Generator(
            bus=str(k),
            emf=float(_require(g, "emf", where)),
            xd_prime=float(_require(g, "xd_prime", where)),
            inertia=float(_require(g, "inertia", where)),
        )

    prefault = {
        str(k): float(v) for k, v in _require(data, "prefault_angles", "top level").items()
    }

    try:
        net = BusNetwork(
            buses=tuple(buses),
            branches=tuple(branches),
            shunt_loads=shunt_loads,
            generators=generators,
            frequency=float(_require(data, "frequency", "top level")),
        )
    except Exception as exc:
        raise ScenarioFormatError(f"network: {exc}") from exc
    if net.infinite_bus is None:
        raise ScenarioFormatError("buses: exactly one bus must be of kind 'infinite'")

    return FaultScenario(
        net=net,
        fault_bus=str(_require(data, "fault_bus", "top level")),
        clearing_branch=str(_require(data, "clearing_branch", "top level")),
        prefault_angles=prefault,
        name=str(data.get("name", "")),
    )


def scenario_to_dict(sc: FaultScenario) -> dict:
    def pair(z: complex) -> list[float]:
        return [z.real, z.imag]

    branches = []
    for br in sc.net.branches:
        entry = {
            "id": br.id,
            "from_bus": br.from_bus,
            "to_bus": br.to_bus,
            "y_series": pair(br.y_series),
        }
        if br.shunt_from != 0:
            entry["shunt_from"] = pair(br.shunt_from)
        if br.shunt_to != 0:
            entry["shunt_to"] = pair(br.shunt_to)
        branches.append(entry)

    return {
        "schema_version": SCHEMA_VERSION,
        "name": sc.name,
        "frequency": sc.net.frequency,
        "buses": [{"id": b.id, "kind": b.kind} for b in sc.net.buses],
        "branches": branches,
        "shunt_loads": {k: pair(v) for k, v in sc.net.shunt_loads.items()},
        "generators": {
            k: {"emf": g.emf, "xd_prime": g.xd_prime, "inertia": g.inertia}
            for k, g in sc.net.generators.items()
        },
        "fault_bus": sc.fault_bus,
        "clearing_branch": sc.clearing_branch,
        "prefault_angles": dict(sc.prefault_angles),
    }


def load_scenario(path: str | Path) -> FaultScenario:
    """Load a scenario file; the name 'wscc9-tmib' resolves to the bundle."""
    if str(path) == BUNDLED:
        text = resources.files("swingcct.data").joinpath("wscc9_tmib.json").read_text()
    else:
        p = Path(path)
        if not p.exists():
            raise ScenarioFormatError(f"scenario file not found: {p}")
        text = p.read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return scenario_from_dict(data)


def save_scenario(sc: FaultScenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(sc), indent=2) + "\n")


# ---------------------------------------------------------------------------
# Bundled test case: 9-bus, 3-machine network reduced to two machines and an
# infinite bus.  Classical data (100 MVA base): the machine with the largest
# inertia is modeled as the infinite bus, rotor angles are referenced to it.
# ---------------------------------------------------------------------------

# from-bus, to-bus, series R, series X, total line-charging susceptance
_WSCC_BRANCHES = [
    ("1", "4", 0.0, 0.0576, 0.0),
    ("2", "7", 0.0, 0.0625, 0.0),
    ("3", "9", 0.0, 0.0586, 0.0),
    ("4", "5", 0.0100, 0.0850, 0.176),
    ("4", "6", 0.0170, 0.0920, 0.158),
    ("5", "7", 0.0320, 0.1610, 0.306),
    ("6", "9", 0.0390, 0.1700, 0.358),
    ("7", "8", 0.0085, 0.0720, 0.149),
    ("8", "9", 0.0119, 0.1008, 0.209),
]

# bus -> (|E|, x'_d, H); machine 1 is converted into the infinite bus
_WSCC_GENERATORS = {
    "1": (1.0566, 0.0608, 23.64),
    "2": (1.0502, 0.1198, 6.40),
    "3": (1.0170, 0.1813, 3.01),
}

# internal EMF angles from the pre-fault power flow [deg]
_WSCC_EMF_ANGLES_DEG = {"1": 2.2717, "2": 19.7315, "3": 13.1664}

# combined shunt loads (constant-impedance load plus line charging) at the
# load buses; these are the swept "load A/B/C" parameters
_WSCC_LOADS = {
    "5": 1.2610 - 0.2634j,  # load A
    "6": 0.8777 - 0.0346j,  # load B
    "8": 0.9690 - 0.1601j,  # load C
}

LOAD_BUS = {"A": "5", "B": "6", "C": "8"}


def make_wscc9_tmib(frequency: float = 60.0, charging: str = "static") -> FaultScenario:
    """Two-machine-infinite-bus reduction of the 9-bus test network.

    `charging` controls where line-charging susceptance not already folded
    into the load values lives: "static" keeps it as fixed bus shunts,
    "branch" attaches it to the branch ends (so that switching a line out
    removes its charging at non-load buses).
    """
    if charging not in ("static", "branch"):
        raise ValueError(f"unknown charging mode {charging!r}")

    load_buses = set(_WSCC_LOADS)
    buses = []
    for bid in "123456789":
        if bid == "1":
            kind = "infinite"
        elif bid in _WSCC_GENERATORS:
            kind = "generator"
        else:
            kind = "load"
        buses.append(Bus(id=bid, kind=kind))

    branches = []
    extra_shunts: dict[str, complex] = {}
    for f, t, r, x, b in _WSCC_BRANCHES:
        y = 1.0 / complex(r, x)
        half = 0.5j * b
        sf = st = 0j
        for end, val in ((f, half), (t, half)):
            if val == 0:
                continue
            if end in load_buses:
                continue  # already inside the published load value
            if charging == "branch":
                if end == f:
                    sf = val
                else:
                    st = val
            else:
                extra_shunts[end] = extra_shunts.get(end, 0j) + val
        branches.append(
            Branch(id=f"{f}-{t}", from_bus=f, to_bus=t, y_series=y, shunt_from=sf, shunt_to=st)
        )

    shunt_loads = dict(_WSCC_LOADS)
    shunt_loads.update(extra_shunts)

    generators = {
        bid: Generator(bus=bid, emf=e, xd_prime=xdp, inertia=h)
        for bid, (e, xdp, h) in _WSCC_GENERATORS.items()
    }

    ref = _WSCC_EMF_ANGLES_DEG["1"]
    prefault = {
        bid: float(np.deg2rad(ang - ref))
        for bid, ang in _WSCC_EMF_ANGLES_DEG.items()
        if bid != "1"
    }

    net = BusNetwork(
        buses=tuple(buses),
        branches=tuple(branches),
        shunt_loads=shunt_loads,
        generators=generators,
        frequency=frequency,
    )
    return FaultScenario(
        net=net,
        fault_bus="7",
        clearing_branch="5-7",
        prefault_angles=prefault,
        name="wscc9-tmib",
    )
