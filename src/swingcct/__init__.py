"""Transient-stability toolkit: clearing-time metrics for swing-equation models.

The package exports its entry points: scenario files, fault studies, sweeps,
branch traces, reports and the exception types.  Everything else is public
in its module (`swingcct.netmodel`, `swingcct.swing`, `swingcct.energy`, ...).
"""

from .equilibria import continue_branch, fold_locations
from .errors import (
    EquilibriumError,
    InadmissibleScenario,
    IntegrationError,
    NetworkError,
    ScenarioFormatError,
    SingularNetworkError,
    ToolkitError,
)
from .faultstudy import (
    UNBOUNDED, FaultScenario, FaultStudyResult, build_context, first_swing_stable, run_fault_study, true_cct,
)
from .report import emit_reports, read_sweep_csv
from .scenario import load_scenario, save_scenario
from .sweep import SweepRow, SweepSpec, detect_uep_switches, find_optimum, run_sweep

__version__ = "0.1.0"
