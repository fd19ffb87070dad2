"""Scenario file format (versioned JSON); the bundled case ships as data/wscc9_tmib.json."""

from __future__ import annotations

import json
import math
from importlib import resources
from pathlib import Path
from typing import Any

from .errors import NetworkError, ScenarioFormatError
from .faultstudy import FaultScenario
from .netmodel import Branch, Bus, BusNetwork, Generator

SCHEMA_VERSION = 1

#: name accepted by loaders in place of a file path
BUNDLED = "wscc9-tmib"


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(f"{where}: expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer too large for a float
        x = math.inf
    if not math.isfinite(x):  # json also reads NaN and Infinity
        raise ScenarioFormatError(f"{where}: expected a finite number, got {value!r}")
    return x


def _complex_from(value: Any, where: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ScenarioFormatError(f"{where}: expected a [real, imag] pair, got {value!r}")
    return complex(_number(value[0], where), _number(value[1], where))


def _require(obj: Any, key: str, where: str) -> Any:
    if not isinstance(obj, dict):
        raise ScenarioFormatError(f"{where}: expected an object, got {obj!r}")
    if key not in obj:
        raise ScenarioFormatError(f"{where}: missing field {key!r}")
    return obj[key]


def _section(data: dict, key: str, kind: type) -> Any:
    """A required top-level list or object."""
    value = _require(data, key, "top level")
    if not isinstance(value, kind):
        raise ScenarioFormatError(f"{key}: expected {'a list' if kind is list else 'an object'}, got {value!r}")
    return value


def scenario_from_dict(data: dict) -> FaultScenario:
    """Build a scenario from its file form; any malformed field raises
    ScenarioFormatError naming where it is."""
    if not isinstance(data, dict):
        raise ScenarioFormatError("top level: expected an object")
    version = _require(data, "schema_version", "top level")
    if version != SCHEMA_VERSION:
        raise ScenarioFormatError(f"schema_version: unsupported version {version!r}")

    buses = []
    for i, b in enumerate(_section(data, "buses", list)):
        where = f"buses[{i}]"
        try:
            buses.append(Bus(id=str(_require(b, "id", where)), kind=_require(b, "kind", where)))
        except NetworkError as exc:
            raise ScenarioFormatError(f"{where}: {exc}") from exc

    branches = []
    for i, br in enumerate(_section(data, "branches", list)):
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
        for k, v in _section(data, "shunt_loads", dict).items()
    }

    generators = {}
    for k, g in _section(data, "generators", dict).items():
        where = f"generators[{k!r}]"
        generators[str(k)] = Generator(
            bus=str(k),
            emf=_number(_require(g, "emf", where), f"{where}.emf"),
            xd_prime=_number(_require(g, "xd_prime", where), f"{where}.xd_prime"),
            inertia=_number(_require(g, "inertia", where), f"{where}.inertia"),
        )

    prefault = {
        str(k): _number(v, f"prefault_angles[{k!r}]")
        for k, v in _section(data, "prefault_angles", dict).items()
    }
    frequency = _number(_require(data, "frequency", "top level"), "frequency")

    try:
        net = BusNetwork(
            buses=tuple(buses),
            branches=tuple(branches),
            shunt_loads=shunt_loads,
            generators=generators,
            frequency=frequency,
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

