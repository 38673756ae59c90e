"""Inland-waterway vessel traffic flow analysis toolkit."""

__version__ = "0.1.0"
