"""Deterministic simulator of over-the-air device-level time synchronization."""

__version__ = "0.1.0"
