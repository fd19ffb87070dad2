"""swingcct benchmark: one closed-loop caller, one process, no worker pool.

    python3 perfbench/run.py --workload study --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Earlier lines name
each metric with its unit, the sample counts and the environment.

    python3 perfbench/run.py --smoke     # every workload at minimum size, both modes
    python3 perfbench/run.py --record    # rewrite reference.json from this tree
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
WORKLOADS = ("study", "sweep-gc", "branches")

SETUP_SAMPLES = 5
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import swingcct
swingcct.load_scenario("wscc9-tmib")
print(time.perf_counter() - t0)
"""


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def import_package():
    if not (SRC / "swingcct" / "__init__.py").is_file():
        raise FileNotFoundError(f"no swingcct package under {SRC}")
    sys.path.insert(0, str(SRC))
    import swingcct

    if Path(swingcct.__file__).resolve().parent != (SRC / "swingcct").resolve():
        raise ImportError(f"swingcct imported from {swingcct.__file__}, not from {SRC}")
    return swingcct


def setup_seconds(samples: int) -> float:
    """Median time, in a fresh process each, to import swingcct and load the bundled case."""
    times = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_lines": src_lines,
        "machine": platform.machine(),
    }


def load_reference(seed: int, wl) -> dict | None:
    if seed != wl.DEFAULT_SEED or not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text())


# ---------------------------------------------------------------------------
# workloads: set-up, then a list of units to time
# ---------------------------------------------------------------------------


class Workload:
    """Prepared inputs plus a callable that runs and checks one unit of work.

    `unit(i)` returns one correctness verdict per operation in the unit.
    `pass_size` is how many units make one stratified pass over the inputs.
    """

    def __init__(self, name: str, seed: int, min_size: bool, swingcct, wl, out: Path):
        ref = load_reference(seed, wl)
        self.pass_size = 1
        self.min_passes = 1
        if name == "study":
            cases = wl.study_cases(seed, min_size)
            paths = wl.write_study_files(swingcct, cases, out)
            refs = {}
            if ref is not None:
                refs = {(r["param"], r["value"]): r for r in ref["study"]}
            self.pass_size = len(cases)
            # at least 20 studies, so the median has ten samples beyond it
            self.min_passes = 1 if min_size else -(-20 // len(cases))

            def unit(i: int) -> list[bool]:
                case = cases[i % len(cases)]
                rec = wl.study_record(wl.run_study(swingcct, paths[i % len(cases)]))
                return [wl.check_study(rec, case, refs.get(case))]

        elif name == "sweep-gc":
            grid = wl.sweep_grid(seed, min_size)
            ref_rows = ref["sweep"] if ref is not None else None

            def unit(i: int) -> list[bool]:
                # like `swingcct sweep`: load the scenario, sweep, write the reports
                sc = swingcct.load_scenario("wscc9-tmib")
                rows, written = wl.run_sweep(swingcct, sc, grid, out / "sweep")
                return wl.check_sweep(swingcct, rows, written, ref_rows, full=not min_size)

        elif name == "branches":
            ranges = wl.branch_ranges(seed, min_size)
            ref_folds = ref["branches"] if ref is not None and not min_size else None

            def unit(i: int) -> list[bool]:
                sc = swingcct.load_scenario("wscc9-tmib")
                return wl.check_branches(wl.run_branches(swingcct, sc, ranges), ranges, ref_folds)

        else:
            raise ValueError(f"unknown workload {name!r}")
        self.unit = unit


def run_units(work: Workload, seconds: float, passes: int | None = None):
    """Whole passes until the next one would overrun `seconds` (or `passes` of them)."""
    times: list[float] = []
    verdicts: list[bool] = []
    begin = time.perf_counter()
    done = 0
    while True:
        t_pass = time.perf_counter()
        for _ in range(work.pass_size):
            t0 = time.perf_counter()
            try:
                oks = work.unit(len(times))
            except Exception as exc:  # a raising operation is a failed one
                print(f"operation {len(times)} raised {type(exc).__name__}: {exc}", file=sys.stderr)
                oks = [False]
            times.append(time.perf_counter() - t0)
            verdicts += oks
        done += 1
        now = time.perf_counter()
        if passes is not None:
            if done >= passes:
                break
        elif done >= work.min_passes and now - begin + (now - t_pass) > seconds:
            break
    return times, verdicts


ALIASES = {"study": "study_p50_s", "sweep-gc": "sweep_wall_s", "branches": "branches_wall_s"}


def spec_metrics(values: dict[str, float], key: str) -> dict:
    """The metrics BENCHMARK.json lists under `key`, with its units, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[key]}


def run_one(args) -> int:
    import workloads as wl

    swingcct = import_package()
    seed = wl.DEFAULT_SEED if args.seed is None else args.seed
    tag = f"{args.workload}-seed{seed}-trace{args.trace}{'-min' if args.min_size else ''}"
    out = OUT / tag
    out.mkdir(parents=True, exist_ok=True)
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))

    setup_s = setup_seconds(1 if args.min_size else SETUP_SAMPLES)
    work = Workload(args.workload, seed, args.min_size, swingcct, wl, out)
    # warm-up outside the timed region: first-call imports and allocations
    swingcct.run_fault_study(swingcct.load_scenario("wscc9-tmib"))

    if not args.trace:
        times, verdicts = run_units(work, args.seconds)
        failed = verdicts.count(False)
        print(f"{ALIASES[args.workload]}: {statistics.median(times):.6f} s")
        print(f"samples: {len(times)} count")
        print(f"fail_ratio: {failed / len(verdicts):.6f} ratio")
        print(f"operations: {len(verdicts)} count")
        metrics = spec_metrics({
            "setup_s": setup_s,
            "wall_p50_s": statistics.median(times),
            "ok_ratio": 1.0 - failed / len(verdicts),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }, "end_to_end")
    else:
        import tracing

        base_times, verdicts = run_units(work, args.seconds / 2.0)
        passes = len(base_times) // work.pass_size
        tracer = tracing.Tracer()
        tracing.install(tracer, swingcct)
        try:
            times, traced_verdicts = run_units(work, 0.0, passes=passes)
        finally:
            tracer.unpatch()
        verdicts += traced_verdicts
        failed = verdicts.count(False)
        tracer.write(out / "spans.json")
        layers = tracing.layer_metrics(tracer, len(times))
        layers["trace.overhead_ratio"] = sum(times) / sum(base_times)
        metrics = spec_metrics(layers, "per_layer")
    for k, m in metrics.items():
        print(f"{k}: {m['value']:.6g} {m['unit']}")

    result = {"correct": failed == 0, "attempted": len(verdicts), "failed": failed, "metrics": metrics}
    detail = {"env": env, "workload": args.workload, "seed": seed, "times_s": times, **result}
    (out / "result.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """Every workload at minimum size in both modes; every named metric must print."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
                   "1", "--seconds", "1", "--trace", str(trace), "--min-size"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
            if proc.returncode != 0:
                problems.append(f"{name} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            print(f"== {name} trace={trace}", *lines[:-1], sep="\n")
            result = json.loads(lines[-1])
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            if set(result["metrics"]) != set(wanted):
                problems.append(f"{name} trace={trace}: metrics {sorted(result['metrics'])}")
            if trace == 0:
                wanted.update({ALIASES[name]: "s", "fail_ratio": "ratio"})
            printed = {ln.split(": ", 1)[0]: ln.rsplit(" ", 1)[-1] for ln in lines[:-1] if ": " in ln}
            for metric, unit in wanted.items():
                if printed.get(metric) != unit:
                    problems.append(f"{name} trace={trace}: {metric} [{unit}] not printed")
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{name} trace={trace}: {result['failed']} of {result['attempted']} failed")
    for p in problems:
        print(f"SMOKE FAIL {p}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def record() -> int:
    """Write reference.json: the default seed's outputs at this tree."""
    import workloads as wl

    swingcct = import_package()
    seed = wl.DEFAULT_SEED
    out = OUT / "record"
    out.mkdir(parents=True, exist_ok=True)
    cases = wl.study_cases(seed)
    paths = wl.write_study_files(swingcct, cases, out)
    study = [
        {"param": c[0], "value": c[1], **wl.study_record(wl.run_study(swingcct, p))}
        for c, p in zip(cases, paths)
    ]
    sc = swingcct.load_scenario("wscc9-tmib")
    rows, _ = wl.run_sweep(swingcct, sc, wl.sweep_grid(seed), out / "sweep")
    folds = wl.run_branches(swingcct, sc, wl.branch_ranges(seed))
    ref = {"seed": seed, "study": study, "sweep": [wl.row_record(r) for r in rows], "branches": folds}
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--min-size", action="store_true", help="minimum-size inputs")
    p.add_argument("--smoke", action="store_true", help="run the smoke check")
    p.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = p.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.record:
            return record()
        if args.workload is None:
            return fail("--workload is required")
        return run_one(args)
    except (FileNotFoundError, ImportError) as exc:
        return fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
