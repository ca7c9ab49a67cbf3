"""Exception types shared across the workbench, and the finiteness check.

The CLI maps these onto its exit-code contract, so raising the right
class matters more than the message wording.
"""

import math


class WorkbenchError(Exception):
    """Base class for all workbench-specific failures."""


class ParseError(WorkbenchError, ValueError):
    """Unreadable or malformed input file (CSV/JSON). CLI exit code 2."""


class FitConvergenceError(WorkbenchError, RuntimeError):
    """A parameter fit did not converge. CLI exit code 3."""


class DegenerateStatisticsError(WorkbenchError, ValueError):
    """Sample set carries no usable statistical information. CLI exit code 4."""


class DomainError(WorkbenchError, ValueError):
    """Physically or mathematically invalid value or range. CLI exit code 5."""


class ModelInapplicableError(DomainError):
    """The closed-form model's assumptions fail for this configuration."""


def require_finite(owner, names):
    """DomainError for the first of `names` that is NaN or infinite on `owner`."""
    for name in names:
        if not math.isfinite(getattr(owner, name)):
            raise DomainError(f"{name} must be finite, got {getattr(owner, name)}")
