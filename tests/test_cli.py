"""Scenario file handling and the command-line entry points."""

import json
from pathlib import Path

import numpy as np
import pytest

from swingcct import cli
from swingcct.errors import ScenarioFormatError
from swingcct.scenario import (
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

DATA = Path(__file__).parent / "data"

# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------


def test_bundled_scenario_loads():
    sc = load_scenario("wscc9-tmib")
    assert sc.net.frequency == 60.0
    assert sc.fault_bus == "7" and sc.clearing_branch == "5-7"
    assert sc.net.infinite_bus == "1"
    assert sc.net.shunt_loads["8"] == pytest.approx(0.969 - 0.1601j)


def test_scenario_round_trip(tmp_path, wscc):
    p = tmp_path / "case.json"
    save_scenario(wscc, p)
    back = load_scenario(p)
    assert back.net == wscc.net
    assert back.prefault_angles == wscc.prefault_angles
    assert (back.fault_bus, back.clearing_branch) == (wscc.fault_bus, wscc.clearing_branch)


def test_missing_file_reported():
    with pytest.raises(ScenarioFormatError, match="not found"):
        load_scenario("/nonexistent/case.json")


def test_malformed_json_line_reported(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{\n  "schema_version": 1,\n  oops\n}')
    with pytest.raises(ScenarioFormatError, match="line 3"):
        load_scenario(p)


def test_field_errors_carry_context(wscc):
    data = scenario_to_dict(wscc)
    bad = json.loads(json.dumps(data))
    del bad["branches"][0]["y_series"]
    with pytest.raises(ScenarioFormatError, match=r"branches\[0\]: missing field 'y_series'"):
        scenario_from_dict(bad)

    bad = json.loads(json.dumps(data))
    bad["shunt_loads"]["5"] = "not-a-pair"
    with pytest.raises(ScenarioFormatError, match=r"shunt_loads\['5'\]"):
        scenario_from_dict(bad)

    bad = json.loads(json.dumps(data))
    bad["schema_version"] = 99
    with pytest.raises(ScenarioFormatError, match="unsupported version"):
        scenario_from_dict(bad)

    # wrong types and non-numbers: named, never a traceback
    cases = [
        (("generators", "2", "emf"), "abc", r"generators\['2'\]\.emf: expected a number"),
        (("buses",), [1], r"buses\[0\]: expected an object"),
        (("shunt_loads",), [1, 2], r"shunt_loads: expected an object"),
        (("prefault_angles", "2"), None, r"prefault_angles\['2'\]: expected a number"),
        (("branches", 0, "y_series"), [1.0, "x"], r"branches\[0\]\.y_series: expected a number"),
        (("frequency",), True, r"frequency: expected a number"),
        (("branches",), {"id": "x"}, r"branches: expected a list"),
        # json reads NaN and Infinity: a non-finite number is named too
        (("prefault_angles", "2"), float("nan"), r"prefault_angles\['2'\]: expected a finite number"),
        (("generators", "2", "emf"), float("nan"), r"generators\['2'\]\.emf: expected a finite number"),
        (("generators", "3", "emf"), float("inf"), r"generators\['3'\]\.emf: expected a finite number"),
        (("shunt_loads", "8"), [0.969, -float("inf")], r"shunt_loads\['8'\]: expected a finite number"),
        # the kind rule lives in netmodel.Bus; its message gains the field
        (("buses", 3, "kind"), "bogus", r"buses\[3\]: bus '4': unknown kind 'bogus'"),
    ]
    for path, value, message in cases:
        bad = json.loads(json.dumps(data))
        target = bad
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ScenarioFormatError, match=message):
            scenario_from_dict(bad)


def test_malformed_field_exits_with_input_error(tmp_path, wscc, capsys):
    data = scenario_to_dict(wscc)
    data["generators"]["2"]["emf"] = "abc"
    p = tmp_path / "bad-emf.json"
    p.write_text(json.dumps(data))
    assert cli.main(["study", str(p)]) == 3
    assert "expected a number" in capsys.readouterr().err


def test_non_finite_number_exits_with_input_error(tmp_path, wscc, capsys):
    data = scenario_to_dict(wscc)
    data["prefault_angles"]["2"] = float("nan")
    p = tmp_path / "nan-angle.json"
    p.write_text(json.dumps(data))  # written as the JSON extension NaN
    assert cli.main(["study", str(p)]) == 3
    assert "prefault_angles['2']: expected a finite number" in capsys.readouterr().err


def test_charging_variants_share_fault_regimes():
    """Pre-fault and fault-on assemblies agree between charging variants.

    The bundle keeps the line charging at non-load buses as fixed bus shunts;
    the data file attaches it to the branch ends instead, so switching a line
    out also removes its charging.
    """
    from swingcct.faultstudy import regimes

    a = load_scenario("wscc9-tmib")
    b = load_scenario(DATA / "wscc9_tmib_branch_charging.json")
    pre_a, on_a, post_a = regimes(a)
    pre_b, on_b, post_b = regimes(b)
    assert np.allclose(pre_a.B, pre_b.B, atol=1e-12) and np.allclose(pre_a.G, pre_b.G, atol=1e-12)
    assert np.allclose(on_a.B, on_b.B, atol=1e-12)
    assert not np.allclose(post_a.B, post_b.B, atol=1e-6)  # switched-out charging differs


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_study(capsys):
    rc = cli.main(["study", "wscc9-tmib"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "tau:" in out and "0.11" in out


def test_cli_study_freq_override(capsys):
    rc = cli.main(["study", "wscc9-tmib", "--freq", "50", "--resolution", "5e-4"])
    assert rc == 0
    assert "0.12" in capsys.readouterr().out  # slower machines, longer CCT


@pytest.mark.parametrize("freq", ["0", "-50", "nan", "inf"])
def test_cli_study_bad_freq_override(freq, capsys):
    assert cli.main(["study", "wscc9-tmib", "--freq", freq]) == 3
    assert "frequency" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--resolution", v) for v in ("0", "-1", "nan", "inf")]
    + [("--horizon", v) for v in ("0", "-1", "nan", "inf")]
    + [("--tolerance", v) for v in ("0", "-1", "nan", "inf")],
)
def test_cli_study_bad_search_setting(flag, value, capsys):
    """A search setting that is not positive and finite is an input error,
    reported before any integration."""
    assert cli.main(["study", "wscc9-tmib", flag, value]) == 3
    assert "must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value", [("frequency", 0.0), ("frequency", -50.0), ("inertia", 0.0), ("inertia", -1.0)]
)
def test_scenario_file_bad_frequency_or_inertia(field, value, tmp_path, wscc, capsys):
    data = scenario_to_dict(wscc)
    if field == "frequency":
        data["frequency"] = value
    else:
        data["generators"]["2"]["inertia"] = value
    with pytest.raises(ScenarioFormatError, match=field):
        scenario_from_dict(data)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    assert cli.main(["study", str(p)]) == 3
    assert field in capsys.readouterr().err


def test_cli_sweep(tmp_path, capsys):
    rc = cli.main([
        "sweep", "wscc9-tmib", "--param", "8.B", "--range", "-0.4:-0.2:0.1",
        "--out", str(tmp_path / "rep"), "--resolution", "1e-3",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert (tmp_path / "rep" / "sweep.csv").exists()
    assert (tmp_path / "rep" / "trend.svg").exists()
    assert "argmax tau:" in out


def test_cli_sweep_inadmissible_everywhere(tmp_path):
    rc = cli.main([
        "sweep", "wscc9-tmib", "--param", "8.G", "--range", "8.8:9.0:0.1",
        "--out", str(tmp_path / "rep"),
    ])
    assert rc == 2


def test_cli_branches(tmp_path, capsys):
    rc = cli.main([
        "branches", "wscc9-tmib", "--param", "8.B", "--range", "-4.0:-3.5:0.05",
        "--out", str(tmp_path / "rep"),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fold at 8.B = -3.82" in out
    assert (tmp_path / "rep" / "branches.svg").exists()


@pytest.mark.parametrize(
    "rng, message",
    [
        ("9:8", "lo must be below hi"), ("8:9:-0.05", "step must be positive"), ("8:9:0", "step must be positive"),
        ("0:inf", "both finite"), ("-inf:0", "both finite"), ("nan:1", "both finite"),
        ("8:9:inf", "positive and finite"), ("8:9:nan", "positive and finite"),
        # widths whose checkpoint spacing underflows to 0 or overflows to inf
        ("-5e-324:0", "nonzero width"), ("-5e-324:0:0.05", "nonzero width"), ("-1e308:1e308", "nonzero width"),
    ],
)
def test_cli_branches_bad_range(rng, message, tmp_path, capsys):
    rc = cli.main(["branches", "wscc9-tmib", "--param", "8.G", "--range", rng, "--out", str(tmp_path / "rep")])
    assert rc == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("rng", ["-1e-300:0", "0:1e308"])
def test_cli_branches_extreme_range_ends(rng, tmp_path, capsys):
    """Ranges far narrower or far wider than the default step end in a
    trace, not a traceback: the checkpoint grid's slack and the trace's end
    test scale with it, so the two branches of the bundled case's range
    -1:0 are two branches here too."""
    rc = cli.main(["branches", "wscc9-tmib", "--param", "8.B", "--range", rng, "--out", str(tmp_path / "rep")])
    assert rc == 0
    assert "branches: 2\n" in capsys.readouterr().out


def test_cli_branches_takes_no_search_setting(tmp_path, capsys):
    """A branch trace integrates nothing, so the clearing-time search flags
    of study and sweep are unknown to it: a usage error."""
    rc = cli.main([
        "branches", "wscc9-tmib", "--param", "8.B", "--range", "-1:0", "--resolution", "1e-3",
        "--out", str(tmp_path / "rep"),
    ])
    assert rc == 3
    assert "unrecognized arguments: --resolution" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [("--range", "-10:inf:0.05", "both finite"), ("--range", "-inf:0:0.05", "both finite"),
     ("--jobs", "0", "at least 1"), ("--jobs", "-2", "at least 1")],
)
def test_cli_sweep_bad_range_or_jobs(flag, value, message, tmp_path, capsys):
    args = {"--range": "-1:0:0.5", "--jobs": "1", flag: value}
    argv = ["sweep", "wscc9-tmib", "--param", "8.B", "--out", str(tmp_path / "rep")]
    rc = cli.main(argv + [part for item in args.items() for part in item])
    assert rc == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_cli_sweep_grid_numpy_cannot_size(tmp_path, capsys):
    """A grid of more points than numpy can size is an input error, raised
    before any point runs."""
    rc = cli.main(["sweep", "wscc9-tmib", "--param", "8.G", "--range", "0:1:1e-300", "--out", str(tmp_path / "rep")])
    assert rc == 3
    assert "too many points" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_cli_sweep_grid_numpy_cannot_allocate(tmp_path, capsys):
    """A grid numpy can size but not allocate is an input error too: 1e15
    points would take 7.1 PiB, past any address space, so the allocation
    fails before any memory is taken."""
    rc = cli.main(["sweep", "wscc9-tmib", "--param", "8.G", "--range", "0:1:1e-15", "--out", str(tmp_path / "rep")])
    assert rc == 3
    assert "too many points" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_cli_sweep_tiny_step_ends_at_hi(tmp_path):
    """A step far below 1e-12 gives the grid lo, lo + step, ..., hi and no
    point past hi."""
    rc = cli.main([
        "sweep", "wscc9-tmib", "--param", "8.G", "--range", "0:1e-13:5e-14", "--resolution", "1e-3",
        "--out", str(tmp_path / "rep"),
    ])
    assert rc == 0
    rows = (tmp_path / "rep" / "sweep.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [0.0, 5e-14, 1e-13]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "wscc9-tmib", "--range", "0:1:0.5"], "required: --param"),
        (["study", "wscc9-tmib", "--bogus"], "unrecognized arguments: --bogus"),
        (["study", "wscc9-tmib", "--resolution", "abc"], "invalid float value: 'abc'"),
    ],
    ids=["missing-param", "unknown-flag", "bad-number"],
)
def test_cli_usage_error_is_input_error(argv, message, capsys):
    """A command line argparse rejects exits 3, like any input error, and
    not argparse's own 2, which means no admissible parameter point here."""
    assert cli.main(argv) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["study", "--help"]])
def test_cli_help_exits_zero(argv, capsys):
    assert cli.main(argv) == 0
    assert "usage: swingcct" in capsys.readouterr().out


def test_cli_input_errors(tmp_path, capsys):
    assert cli.main(["study", "/missing.json"]) == 3
    assert cli.main(["sweep", "wscc9-tmib", "--param", "zz", "--range", "0:1:0.5"]) == 3
    assert cli.main(["sweep", "wscc9-tmib", "--param", "8.B", "--range", "0:1"]) == 3
    err = capsys.readouterr().err
    assert "input error" in err


def test_cli_study_bad_angles_file(tmp_path, wscc, capsys):
    """Pre-fault angles pi/2 or more apart end in a verdict, not a traceback."""
    data = scenario_to_dict(wscc)
    data["prefault_angles"]["2"] = 1.7
    p = tmp_path / "wide.json"
    p.write_text(json.dumps(data))
    assert cli.main(["study", str(p)]) == 2
    assert "scenario=bad-angles" in capsys.readouterr().out


def test_scenario_requires_one_infinite_bus(tmp_path, wscc, capsys):
    data = scenario_to_dict(wscc)
    for bus in data["buses"]:
        if bus["kind"] == "infinite":
            bus["kind"] = "generator"
    with pytest.raises(ScenarioFormatError, match="exactly one bus"):
        scenario_from_dict(data)
    p = tmp_path / "no-infinite.json"
    p.write_text(json.dumps(data))
    assert cli.main(["study", str(p)]) == 3
    assert "exactly one bus" in capsys.readouterr().err


def test_duplicate_branch_ids_exit_with_input_error(tmp_path, wscc, capsys):
    """A file with two branches of one id would clear both: it is rejected."""
    data = scenario_to_dict(wscc)
    for br in data["branches"]:
        if br["id"] == "4-6":
            br["id"] = "5-7"
    with pytest.raises(ScenarioFormatError, match="network: duplicate branch ids"):
        scenario_from_dict(data)
    p = tmp_path / "duplicate-branch.json"
    p.write_text(json.dumps(data))
    assert cli.main(["study", str(p)]) == 3
    assert "duplicate branch ids" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["study"],
        ["sweep", "--param", "2.B", "--range", "-1:0:0.5"],
        ["sweep", "--param", "2.B", "--range", "-1:0:0.01", "--jobs", "3"],
        ["branches", "--param", "2.B", "--range", "-1:0"],
    ],
    ids=["study", "sweep", "sweep-jobs", "branches"],
)
def test_no_modeled_machine_exits_with_input_error(argv, tmp_path, capsys):
    """A file whose only generator is on the infinite bus has no machine to
    study: every command names that and exits 3."""
    command, *flags = argv
    out = [] if command == "study" else ["--out", str(tmp_path)]
    assert cli.main([command, str(DATA / "no_modeled_machine.json"), *flags, *out]) == 3
    err = capsys.readouterr().err
    assert "input error: no modeled machine" in err and "Traceback" not in err
