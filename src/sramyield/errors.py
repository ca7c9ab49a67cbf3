"""Exception types shared across the workbench, and the field domain checker.

The CLI maps these onto its exit-code contract, so raising the right
class matters more than the message wording. A numeric field declares its
domain on the field (`domain`), and `check_domains` enforces the declarations.
"""

import dataclasses
import math

_INF = math.inf


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


def domain(low=None, *, closed=False, high=None, **field_kwargs):
    """A dataclass field that must be finite, given `low` above it (at or
    above it if `closed`) and given `high` at or below it; other keywords pass
    through to `dataclasses.field`."""
    metadata = {**field_kwargs.pop("metadata", {}), "domain": (low, closed, high)}
    return dataclasses.field(metadata=metadata, **field_kwargs)


def check_domains(obj):
    """DomainError for the first declared field of `obj` outside its domain."""
    for name, above, below, bound in _DOMAINS.get(type(obj)) or _domain_rows(type(obj)):
        value = getattr(obj, name)
        if not above < value < below:  # NaN and both infinities fail it too
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
            raise DomainError(f"{name} must be {bound}, got {value}")


# class -> _domain_rows(class); a dict lookup costs a small record less than
# a functools.cache call
_DOMAINS = {}


def _domain_rows(cls):
    """(name, above, below, bound) of each declared field of `cls`, kept in
    _DOMAINS: a value is in its domain iff above < value < below, `above`
    being an open lower bound, the float just below a closed one or -inf, and
    `below` the float just above `high` or inf; `bound` as messages state it."""
    rows = []
    for f in dataclasses.fields(cls):
        if "domain" in f.metadata:
            low, closed, high = f.metadata["domain"]
            above = -_INF if low is None else math.nextafter(low, -_INF) if closed else low
            below = _INF if high is None else math.nextafter(high, _INF)
            bound = " and ".join(([] if low is None else [f"{'>=' if closed else '>'} {low}"])
                                 + ([] if high is None else [f"<= {high}"]))
            rows.append((f.name, above, below, bound))
    _DOMAINS[cls] = rows = tuple(rows)
    return rows
