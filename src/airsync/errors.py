"""Exception types shared across the simulator."""

from __future__ import annotations


class AirsyncError(Exception):
    """Base class for all simulator errors."""


class InvalidConfigError(AirsyncError):
    """Configuration rejected; ``path`` names the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


class TickOverflowError(AirsyncError):
    """Tick arithmetic left the representable 64-bit range."""


class InsufficientSamplesError(AirsyncError):
    """Fewer samples than an estimator or statistic requires."""


class InsufficientNodesError(AirsyncError):
    """Pairwise statistics need at least two sampled nodes."""


class NegativeTaStateError(AirsyncError):
    """A timing-advance command would drive the cumulative index below zero."""


class NoTaStateError(AirsyncError):
    """Operation requires a current timing-advance state and none exists."""


class CausalityViolationError(AirsyncError):
    """Two-way exchange timestamps are not causally ordered."""
