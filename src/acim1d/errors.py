"""Exception types shared across the package."""


class Acim1dError(Exception):
    """Base class for package errors."""


class UndefinedNorm(Acim1dError):
    """A map norm estimate came out NaN (say 0*inf in a jet): it bounds nothing."""


class UnresolvedCritical(Acim1dError):
    """The derivative-root search could not separate two sign changes."""


class TreeBudgetExceeded(Acim1dError):
    """Tree construction passed the configured vertex budget."""

    def __init__(self, message, level=None, count=None, budget=None, growth_rate=None):
        super().__init__(message)
        self.level = level
        self.count = count
        self.budget = budget
        self.growth_rate = growth_rate


class EmptySelection(Acim1dError):
    """No seed survived the density/expansion filter (parameters too aggressive)."""


class InsufficientAtoms(Acim1dError):
    """The empirical measure has too few atoms for the requested estimate."""


class OffsetNotFound(Acim1dError):
    """No partition offset kept all orbit points away from atom boundaries."""


class ConfigError(Acim1dError):
    """Experiment configuration could not be parsed or validated."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
