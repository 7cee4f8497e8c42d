"""Exception types raised across the pre-grasp pipeline."""


class PreGraspError(Exception):
    """Base class for all pipeline errors."""


class ParseError(PreGraspError):
    """A point-cloud file could not be parsed.  Carries the 1-based line number."""

    def __init__(self, line, reason):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class EmptyCloud(PreGraspError):
    """Fewer than 4 usable points."""


class BadDimension(PreGraspError):
    """Synthetic-shape dimensions are missing, non-positive or non-finite."""


class DegenerateInput(PreGraspError):
    """All points coincide; no box or principal axes can be derived."""


class EmptySide(PreGraspError):
    """A candidate split plane left one side without points."""


class NoContacts(PreGraspError):
    """No finger ray touched the cloud.  The candidate stays valid with quality 0."""


class EmptyWrenchSet(PreGraspError):
    """Quality evaluation was asked to run on zero wrenches."""


class ConfigError(PreGraspError):
    """A configuration field failed validation.  Carries the offending field name."""

    def __init__(self, field, reason):
        self.field = field
        super().__init__(f"{field}: {reason}")
