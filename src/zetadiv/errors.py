"""Exception hierarchy shared by every zetadiv module.

The CLI maps these onto process exit codes (usage 2, resource cap 3,
precision failure 4), so library code should raise the most specific
class that applies.
"""


class ZetaDivError(Exception):
    """Base class for all zetadiv errors."""


class InvalidArgumentError(ZetaDivError, ValueError):
    """An argument violates a documented precondition."""


class OutOfRangeError(InvalidArgumentError):
    """A requested evaluation point lies outside the available data range."""


class ResourceLimitError(ZetaDivError):
    """A computation would exceed a configured memory or runtime cap."""


class PrecisionError(ZetaDivError):
    """A computed error estimate does not meet the tolerance."""


class CacheError(ZetaDivError):
    """A binary cache file is corrupt or inconsistent with its header."""


class PrecisionWarning(UserWarning):
    """A result was produced from a grid too sparse for the stated target."""
