"""Sweep driver, optimum search, report files, and their round-trips."""

import concurrent.futures
import gc
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import with_part
from swingcct import report as rp
from swingcct.equilibria import continue_branch
from swingcct.errors import ScenarioFormatError
from swingcct.faultstudy import CHAIN, StudyContext, hamiltonian_model_factory
from swingcct.sweep import SweepRow, SweepSpec, detect_uep_switches, find_optimum, run_sweep


@pytest.fixture(scope="module")
def small_sweep(wscc):
    spec = SweepSpec(scenario=wscc, param="8.B", lo=-1.0, hi=-0.5, step=0.25, resolution=5e-4)
    return spec, run_sweep(spec)


def synthetic_rows():
    mk = lambda p, tau, adm=True: SweepRow(
        param=p, tau=tau, tau_H=tau, tau_A=tau, dE=0.5, E_c=-2.0, admissible=adm, verdicts=""
    )
    return [mk(0.0, 0.10), mk(0.5, 0.25), mk(1.0, 0.25), mk(1.5, 0.07, adm=False)]


# ---------------------------------------------------------------------------
# spec validation and the driver
# ---------------------------------------------------------------------------


def test_spec_validation(wscc):
    with pytest.raises(ScenarioFormatError, match="lo must be below"):
        SweepSpec(scenario=wscc, param="8.B", lo=0.0, hi=-1.0, step=0.1)
    with pytest.raises(ScenarioFormatError, match="positive"):
        SweepSpec(scenario=wscc, param="8.B", lo=-1.0, hi=0.0, step=0.0)
    with pytest.raises(ScenarioFormatError, match="part"):
        SweepSpec(scenario=wscc, param="8.X", lo=-1.0, hi=0.0, step=0.1)
    with pytest.raises(ScenarioFormatError, match="no bus"):
        SweepSpec(scenario=wscc, param="42.B", lo=-1.0, hi=0.0, step=0.1)
    inf, nan = float("inf"), float("nan")
    for lo, hi in ((-10.0, inf), (-inf, 0.0), (nan, 0.0), (-1.0, nan)):
        with pytest.raises(ScenarioFormatError, match="both finite"):
            SweepSpec(scenario=wscc, param="8.B", lo=lo, hi=hi, step=0.05)
    for step in (inf, nan):
        with pytest.raises(ScenarioFormatError, match="positive and finite"):
            SweepSpec(scenario=wscc, param="8.B", lo=-1.0, hi=0.0, step=step)
    for jobs in (0, -2):
        with pytest.raises(ScenarioFormatError, match="at least 1"):
            SweepSpec(scenario=wscc, param="8.B", lo=-1.0, hi=0.0, step=0.1, jobs=jobs)


@pytest.mark.parametrize(
    "lo, hi, step, count",
    [(0.0, 1e-13, 1e-14, 11), (0.0, 1e-13, 5e-14, 3), (0.0, 1e-300, 1e-301, 11), (0.0, 1.0, 0.4, 3)],
)
def test_grid_ends_at_hi_for_any_step(wscc, lo, hi, step, count):
    """The grid's slack past hi is a tiny fraction of the step, so a step far
    below 1e-12 does not run on past hi, and a step that does not divide the
    range gains no point beyond it."""
    values = SweepSpec(scenario=wscc, param="8.G", lo=lo, hi=hi, step=step).values
    assert values.size == count
    assert values[-1] <= hi + 1e-9 * step


@pytest.mark.parametrize(
    "lo, hi, step, count",
    [(1e4, 2e4, 1e3, 11), (1e6, 2e6, 1e5, 11), (-10.0, 0.0, 0.05, 201), (0.0, 1e-13, 5e-14, 3)],
)
def test_grid_ends_at_hi_at_any_magnitude(wscc, lo, hi, step, count):
    """hi stays a point where its float spacing outgrows the 1e-12 slack
    (|hi| of 8192 or more), and the small-magnitude grids keep theirs."""
    values = SweepSpec(scenario=wscc, param="8.G", lo=lo, hi=hi, step=step).values
    assert values.size == count
    assert abs(values[-1] - hi) <= 1e-9 * step


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.floats(-10.0, 10.0), st.floats(1e-3, 1.0), st.integers(1, 2000),
    st.sampled_from([0.0, 0.5, 1.0, 1.0 - 1e-13, 1.0 + 1e-13]),
)
def test_grid_bits_kept_for_steps_of_a_thousandth_or_more(wscc, lo, step, points, frac):
    """Every grid with a step of 1e-3 or more is the one np.arange(lo, hi +
    1e-12, step) gives, bit for bit."""
    hi = lo + step * (points - frac)
    if not lo < hi:
        return
    values = SweepSpec(scenario=wscc, param="8.G", lo=lo, hi=hi, step=step).values
    assert values.tobytes() == np.arange(lo, hi + 1e-12, step).tobytes()


@pytest.mark.parametrize("lo, hi, step", [(0.0, 1.0, 1e-300), (-1e308, 1e308, 1.0), (0.0, 1e300, 1e-10)])
def test_grid_numpy_cannot_size_is_an_input_error(wscc, lo, hi, step):
    with pytest.raises(ScenarioFormatError, match="too many points"):
        SweepSpec(scenario=wscc, param="8.G", lo=lo, hi=hi, step=step)


@pytest.mark.parametrize("name", ["resolution", "horizon", "tol"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_spec_rejects_bad_search_setting(wscc, name, value):
    with pytest.raises(ScenarioFormatError, match="must be positive and finite"):
        SweepSpec(scenario=wscc, param="8.B", lo=-1.0, hi=0.0, step=0.5, **{name: value})


def test_rows_are_ordered_and_complete(small_sweep):
    spec, rows = small_sweep
    assert [r.param for r in rows] == [-1.0, -0.75, -0.5]
    assert all(r.admissible and r.tau is not None for r in rows)


def test_inadmissible_rows_emitted_without_metrics(wscc):
    spec = SweepSpec(scenario=wscc, param="8.G", lo=8.6, hi=9.0, step=0.2, resolution=5e-4)
    rows = run_sweep(spec)
    assert len(rows) == 3
    assert all(not r.admissible for r in rows)
    assert all(r.tau is None and r.tau_H is None and r.tau_A is None for r in rows)
    assert all("scenario=" in r.verdicts for r in rows)


def test_admissibility_frontier(wscc):
    """Beyond the admissible region the first flagged row fails on the energy
    margin, carrying dE < 0 but no time metrics."""
    spec = SweepSpec(scenario=wscc, param="8.B", lo=-18.0, hi=-16.0, step=0.5, resolution=1e-3)
    rows = run_sweep(spec)
    frontier = None
    for prev, cur in zip(rows[::-1][:-1], rows[::-1][1:]):  # scan towards -18
        if prev.admissible and not cur.admissible:
            frontier = cur
            break
    assert frontier is not None
    assert frontier.dE is not None and frontier.dE < 0
    assert "negative-margin" in frontier.verdicts
    assert frontier.tau is None and frontier.tau_H is None and frontier.tau_A is None


def test_jobs_give_identical_rows(wscc, tmp_path, monkeypatch):
    """Each worker takes one block of whole chains; blocks never change a row."""
    blocks = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def map(self, fn, tasks):
            tasks = list(tasks)
            blocks.append(len(tasks))
            return super().map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    # three chains, the last of one point, at a coarse search resolution
    hi = -1.0 + 0.05 * 2 * CHAIN
    base = dict(scenario=wscc, param="8.B", lo=-1.0, hi=hi, step=0.05, resolution=1e-2)
    results = []
    for jobs in (1, 2, 3):
        spec = SweepSpec(**base, jobs=jobs)
        rows = run_sweep(spec)
        assert [r.param for r in rows] == [float(v) for v in spec.values]
        csv = rp.write_sweep_csv(rows, tmp_path / f"jobs{jobs}.csv").read_bytes()
        results.append((rows, [r.closest for r in rows], csv))
    assert blocks == [2, 3]
    assert results[0] == results[1] == results[2]  # dataclass equality: bit-identical floats


def test_singular_network_point_keeps_sweep_alive(wscc, monkeypatch):
    """A singular Kron block at one grid value ends in that row's verdict."""
    from swingcct import netmodel as nm
    from swingcct.errors import SingularNetworkError

    original = nm.schur_complement
    # bus 8's diagonal entry at 8.B = -0.5, the same in every regime: the
    # fault at bus 7 and the cleared line 5-7 leave bus 8's stamps as they are
    Y = nm.build_ybus(with_part(wscc, "8", "B", -0.5).net)
    target = Y.values[Y.nodes.index("8"), Y.nodes.index("8")]
    fired = []

    def schur(Y_RR, Y_RL, Y_LR, Y_LL, dropped):
        k = list(dropped).index("8")
        entry = Y_LL[..., k, k]
        if np.any((entry.real == target.real) & (np.abs(entry.imag - target.imag) < 1e-6)):
            fired.append(entry)
            raise SingularNetworkError("singular eliminated block for bus set ['8']")
        return original(Y_RR, Y_RL, Y_LR, Y_LL, dropped)

    monkeypatch.setattr(nm, "schur_complement", schur)
    spec = SweepSpec(scenario=wscc, param="8.B", lo=-0.75, hi=-0.25, step=0.25, resolution=1e-3)
    rows = run_sweep(spec)
    # each template's solve of the block's stack, then of that value alone
    assert len(fired) == 4
    assert [r.param for r in rows] == [-0.75, -0.5, -0.25]
    bad = rows[1]
    assert not bad.admissible and bad.verdicts == "scenario=singular-network"
    assert bad.message == "singular eliminated block for bus set ['8']"
    assert bad.tau is None and bad.tau_H is None and bad.tau_A is None and bad.dE is None
    for row in (rows[0], rows[2]):
        assert row.admissible and row.verdicts == ""
        assert all(isinstance(v, float) for v in (row.tau, row.tau_H, row.tau_A, row.dE))


def test_singular_network_point_keeps_branch_trace_alive(wscc, monkeypatch):
    """A singular Kron block at one parameter value is a gap in the branches,
    not an aborted trace: the SEP fold near 8.56 stays where it was."""
    from swingcct import netmodel as nm
    from swingcct.equilibria import fold_locations
    from swingcct.errors import SingularNetworkError

    clean = fold_locations(continue_branch(wscc, (8.0, 9.0), 0.05, param="8.G"))
    original = nm.schur_complement
    # bus 8's diagonal entry at 8.G = 8.5 (the cleared line 5-7 does not touch bus 8)
    Y = nm.build_ybus(with_part(wscc, "8", "G", 8.5).net)
    target = Y.values[Y.nodes.index("8"), Y.nodes.index("8")]
    fired = []

    def schur(Y_RR, Y_RL, Y_LR, Y_LL, dropped):
        k = list(dropped).index("8")
        entry = Y_LL[..., k, k]
        if np.any((np.abs(entry.real - target.real) < 1e-6) & (entry.imag == target.imag)):
            fired.append(entry)
            raise SingularNetworkError("singular eliminated block for bus set ['8']")
        return original(Y_RR, Y_RL, Y_LR, Y_LL, dropped)

    monkeypatch.setattr(nm, "schur_complement", schur)
    branches = continue_branch(wscc, (8.0, 9.0), 0.05, param="8.G")
    assert fired  # at 8.G = 8.5, to 1e-6
    assert branches
    assert len(fold_locations(branches)) == len(clean) >= 1
    assert np.allclose(fold_locations(branches), clean, rtol=0, atol=1e-12)


def test_parallel_serial_equivalence(wscc, monkeypatch):
    """More jobs than chains: the grid runs as one block, in-process, with the serial rows."""

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-chain grid must not start a process pool")

    base = dict(scenario=wscc, param="8.B", lo=-0.4, hi=-0.2, step=0.1, resolution=1e-3)
    serial = run_sweep(SweepSpec(**base, jobs=1))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    parallel = run_sweep(SweepSpec(**base, jobs=2))
    assert serial == parallel  # dataclass equality: bit-identical floats


def test_import_leaves_process_pools_unloaded():
    """The process-pool machinery loads only where a sweep runs more than one block."""
    code = "import sys, swingcct; print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# optimum search and switch detection
# ---------------------------------------------------------------------------


def test_find_optimum_tie_breaks_to_smaller_param():
    assert find_optimum(synthetic_rows(), "tau") == (0.5, 0.25)


def test_find_optimum_ignores_inadmissible():
    rows = synthetic_rows()
    assert all(find_optimum(rows, m)[0] != 1.5 for m in ("tau", "tau_H", "tau_A", "dE"))


def test_find_optimum_single_row():
    row = synthetic_rows()[0]
    assert find_optimum([row], "tau") == (0.0, 0.10)


def test_find_optimum_errors():
    with pytest.raises(ValueError, match="metric"):
        find_optimum(synthetic_rows(), "bogus")
    with pytest.raises(ValueError, match="no admissible"):
        find_optimum([synthetic_rows()[-1]], "tau")


def test_detect_switches_synthetic():
    mk = lambda p, pos: SweepRow(
        param=p, tau=0.1, tau_H=0.1, tau_A=0.1, dE=0.5, E_c=-2.0,
        admissible=True, verdicts="", closest=pos,
    )
    rows = [mk(0.0, (3.0, 1.0)), mk(0.1, (3.01, 1.02)), mk(0.2, (2.9, 2.3)), mk(0.3, (2.91, 2.31))]
    assert detect_uep_switches(rows) == [pytest.approx(0.15)]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_csv_has_header_and_row_count(small_sweep, tmp_path):
    _spec, rows = small_sweep
    p = rp.write_sweep_csv(rows, tmp_path / "s.csv")
    lines = p.read_text().splitlines()
    assert lines[0] == "param,tau,tau_H,tau_A,dE,E_c,admissible,verdicts"
    assert len(lines) == len(rows) + 1


def test_csv_round_trip_bit_exact(small_sweep, tmp_path):
    _spec, rows = small_sweep
    p = rp.write_sweep_csv(rows, tmp_path / "s.csv")
    back = rp.read_sweep_csv(p)
    stripped = [
        SweepRow(
            param=r.param, tau=r.tau, tau_H=r.tau_H, tau_A=r.tau_A,
            dE=r.dE, E_c=r.E_c, admissible=r.admissible, verdicts=r.verdicts,
        )
        for r in rows
    ]
    assert back == stripped
    # a second write produces identical bytes
    q = rp.write_sweep_csv(back, tmp_path / "s2.csv")
    assert q.read_bytes() == p.read_bytes()


def test_emit_reports_files(small_sweep, tmp_path, wscc):
    _spec, rows = small_sweep
    factory = hamiltonian_model_factory(wscc, "8.B")
    branches = continue_branch(factory, (-1.0, -0.5), initial_step=0.1)
    written = rp.emit_reports(rows, branches, tmp_path / "out", x_label="8.B")
    assert set(written) == {"sweep_csv", "trend_svg", "branch_csv", "branch_svg"}
    for p in written.values():
        assert p.exists() and p.stat().st_size > 0
    svg = (tmp_path / "out" / "trend.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    bcsv = (tmp_path / "out" / "branches.csv").read_text().splitlines()
    assert bcsv[0] == "param,delta_norm,type_index,E_pot,fold"
    assert len(bcsv) > 1


def test_emit_reports_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        rp.emit_reports([], None, tmp_path / "out")


def test_emit_reports_output_selection(small_sweep, tmp_path):
    _spec, rows = small_sweep
    written = rp.emit_reports(rows, None, tmp_path / "csv_only", outputs=("csv",))
    assert set(written) == {"sweep_csv"}
    with pytest.raises(ValueError, match="unknown output"):
        rp.emit_reports(rows, None, tmp_path / "bad", outputs=("pdf",))


def test_emit_reports_unwritable_dir(small_sweep, tmp_path):
    _spec, rows = small_sweep
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not dir")
    with pytest.raises(OSError):
        rp.emit_reports(rows, None, blocker / "sub")


def test_sweep_repeatability_bytes(wscc, tmp_path):
    spec = SweepSpec(scenario=wscc, param="8.B", lo=-0.3, hi=-0.2, step=0.1, resolution=1e-3)
    a = rp.write_sweep_csv(run_sweep(spec), tmp_path / "a.csv")
    b = rp.write_sweep_csv(run_sweep(spec), tmp_path / "b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_sweep_leaves_no_reference_cycle(wscc):
    """A sweep with no-sep points frees its block as it returns: nothing it
    made is left for the cyclic collector (an exception kept as a value with
    a traceback through its own frame kept the whole block alive)."""
    spec = SweepSpec(scenario=wscc, param="8.G", lo=8.0, hi=9.0, step=0.5, resolution=1e-3)
    gc.collect()
    gc.disable()
    try:
        rows = run_sweep(spec)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        left = [type(x).__name__ for x in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert "scenario=no-sep" in [r.verdicts for r in rows]
    assert StudyContext.__name__ not in left
