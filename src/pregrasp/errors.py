"""Exception types raised across the pre-grasp pipeline, and the parameter checker."""

import math
import numbers
from dataclasses import fields


class PreGraspError(Exception):
    """Base class for all pipeline errors."""


class ParseError(PreGraspError):
    """A point-cloud file could not be parsed.  Carries the 1-based line
    number, or None where the fault lies in no line."""

    def __init__(self, line, reason):
        self.line = line
        self.reason = reason
        super().__init__(reason if line is None else f"line {line}: {reason}")


class EmptyCloud(PreGraspError):
    """Fewer than 4 usable points."""


class BadDimension(PreGraspError):
    """Synthetic-shape dimensions are missing, non-positive or non-finite."""


class DegenerateInput(PreGraspError):
    """All points coincide, or their covariance overflows: no box or principal
    axes can be derived.  Or a point lies 2^62 or more contact cells from the
    cloud's minimum corner, where the contact index cannot key its cell."""


class EmptySide(PreGraspError):
    """A candidate split plane left one side without points."""


class NoContacts(PreGraspError):
    """No finger ray touched the cloud.  The candidate stays valid with quality 0."""


class EmptyWrenchSet(PreGraspError):
    """Quality evaluation was asked to run on zero wrenches."""


class ConfigError(PreGraspError, ValueError):
    """A configuration field failed validation.  Carries the offending field name."""

    def __init__(self, field, reason):
        self.field = field
        super().__init__(f"{field}: {reason}")


def _holds(value, bound):
    """Whether value meets a bound written ">= a", "> a" or "in (a, b]"."""
    op, *limits = (token.strip("(,]") for token in bound.split())
    if op == "in":
        return float(limits[0]) < value <= float(limits[1])
    return {">=": value >= float(limits[0]), ">": value > float(limits[0])}[op]


def check_params(params, name):
    """Raise ConfigError, naming the field `name(field)`, for the first field of a
    parameter dataclass that is not a number of its type (never a bool), is
    non-finite, or breaks its bound in the class's BOUNDS."""
    for f in fields(params):
        value, bound = getattr(params, f.name), params.BOUNDS.get(f.name)
        kind, noun = (numbers.Integral, "an integer") if f.type is int else (numbers.Real, "a number")
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(name(f.name), f"must be {noun}, got {value!r}")
        if not isinstance(value, numbers.Integral) and not math.isfinite(value):
            raise ConfigError(name(f.name), f"must be finite, got {value}")
        if bound is not None and not _holds(value, bound):
            raise ConfigError(name(f.name), f"must be {bound}, got {value}")
