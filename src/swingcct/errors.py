"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all swingcct errors."""


class NetworkError(ToolkitError):
    """Malformed network data or a degenerate matrix operation."""


class SingularNetworkError(NetworkError):
    """A Kron reduction met a singular eliminated block."""


class IntegrationError(ToolkitError):
    """Integrator failure; carries the time at which the step size collapsed."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class EquilibriumError(ToolkitError):
    """Newton divergence, wrong stability type, or an empty UEP set."""


class InadmissibleScenario(ToolkitError):
    """Scenario violates an admissibility constraint (dispatch sign or energy margin)."""

    def __init__(self, message: str, code: str):
        super().__init__(message)
        self.code = code


class ScenarioFormatError(ToolkitError, ValueError):
    """Input failed validation; message carries field context."""
