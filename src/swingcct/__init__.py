"""Transient-stability toolkit: clearing-time metrics for swing-equation models."""

from .energy import (
    NO_CROSSING,
    NO_REAL_ROOT,
    FaultOnHamiltonianModel,
    HamiltonianModel,
    QuarticCoefficients,
    energy_margin,
    hamiltonian,
    initial_accelerations,
    potential,
    quartic_coefficients,
    tau_A,
    tau_H,
)
from .equilibria import (
    Branch,
    CriticalEnergy,
    EquilibriumPoint,
    closest_uep,
    continue_branch,
    find_sep,
    fold_locations,
    stationary_points,
)
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
    UNBOUNDED,
    FaultScenario,
    FaultStudyResult,
    build_context,
    first_swing_stable,
    run_fault_study,
    true_cct,
)
from .netmodel import (
    Branch as NetworkBranch,
    Bus,
    BusNetwork,
    Generator,
    ReducedNetwork,
    apply_clearing,
    apply_fault,
    build_ybus,
    kron_reduce,
    reduce_to_generators,
    set_load,
)
from .report import emit_reports, read_sweep_csv
from .scenario import load_scenario, save_scenario
from .sweep import (
    SweepRow,
    SweepSpec,
    detect_uep_switches,
    find_optimum,
    run_sweep,
)
from .swing import (
    Coupling,
    GeneratorParams,
    SwingField,
    Trajectory,
    dispatch_from_angles,
    integrate,
    integrate_rows,
    swing_field,
)

__version__ = "0.1.0"
