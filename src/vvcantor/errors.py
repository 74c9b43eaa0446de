"""Exception types shared across the package."""

from __future__ import annotations


class VVCantorError(Exception):
    """Base class for all package-specific failures."""


class EmptyCatalogError(VVCantorError):
    """Raised when an operation needs at least one system with maps."""


class TreeTooLargeError(VVCantorError):
    """Raised before a tree, a condensation plan or a refined pencil passes
    its node cap, and when the rows of the Monte Carlo lanes still running
    pass ``vtree.DEFAULT_NODE_CAP``."""


class DepthExhaustedError(VVCantorError):
    """A tree or its environment table is too shallow for the requested
    level, cut set or bracketing; the message names the levels it has and
    those it needs (for a cut set, a lower bound: necks are random)."""


class NeckTimeoutError(VVCantorError):
    """No neck occurred within the environment cap; signals a config bug."""


class SingularMassError(VVCantorError):
    """Mass matrix failed the positive-definiteness check; the message
    names the first failing node."""


class InsufficientDataError(VVCantorError):
    """Not enough usable samples for a regression."""


class NoisyRootError(VVCantorError):
    """Monte Carlo noise left a sign decision ambiguous after widening."""


class InvalidInputError(VVCantorError):
    """Numeric input outside the documented domain (NaN, overlap, ...)."""
