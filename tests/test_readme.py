"""The README's library examples run as written against the package namespace."""

import re
import types
from pathlib import Path

import swingcct

README = Path(__file__).parent.parent / "README.md"

#: the package-level names the README documents (modules aside)
EXPORTS = {
    # README examples
    "build_context", "first_swing_stable", "load_scenario", "run_fault_study", "true_cct",
    # scenario files, sweeps, branch traces and reports
    "save_scenario", "SweepSpec", "SweepRow", "run_sweep", "find_optimum", "detect_uep_switches",
    "emit_reports", "read_sweep_csv", "continue_branch", "fold_locations",
    "FaultScenario", "FaultStudyResult", "UNBOUNDED",
    # exception types
    "ToolkitError", "NetworkError", "SingularNetworkError", "IntegrationError", "EquilibriumError",
    "InadmissibleScenario", "ScenarioFormatError",
}


def library_examples() -> list[str]:
    """The python blocks of the README's Library section, in order."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_readme_library_examples_run(capsys):
    blocks = library_examples()
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert isinstance(namespace["tau"], float) and namespace["stable"].shape == (3,)
    # the first example prints tau, tau_H, tau_A and dE
    assert len(capsys.readouterr().out.split()) == 4


def test_package_exports_the_documented_names():
    public = {
        name for name, value in vars(swingcct).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == EXPORTS
