"""Exception types shared across the package."""

from __future__ import annotations


class VVCantorError(Exception):
    """Base class for all package-specific failures."""


class EmptyCatalogError(VVCantorError):
    """Raised when an operation needs at least one system with maps."""


class TreeTooLargeError(VVCantorError):
    """Raised before materializing a tree whose node count exceeds the cap."""


class DepthExhaustedError(VVCantorError):
    """A tree is too shallow for the requested cut set or neck block.

    ``extra_depth_hint`` is a lower-bound estimate of how many additional
    levels would be needed (necks are random, so the actual requirement may
    be larger).
    """

    def __init__(self, message: str, extra_depth_hint: int = 0):
        super().__init__(message)
        self.extra_depth_hint = extra_depth_hint


class NeckTimeoutError(VVCantorError):
    """No neck occurred within the environment cap; signals a config bug."""


class SingularMassError(VVCantorError):
    """Mass matrix failed the positive-definiteness check."""

    def __init__(self, message: str, node: int = -1):
        super().__init__(message)
        self.node = node


class InsufficientDataError(VVCantorError):
    """Not enough usable samples for a regression."""


class NoisyRootError(VVCantorError):
    """Monte Carlo noise left a sign decision ambiguous after widening."""


class InvalidInputError(VVCantorError):
    """Numeric input outside the documented domain (NaN, overlap, ...)."""
