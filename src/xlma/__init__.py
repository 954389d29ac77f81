"""Movable-subarray placement toolkit for near-field multiuser uplink systems."""

__version__ = "0.1.0"
