"""Simulation and comparison toolkit for stochastic orders of spatial
point processes, random measures and the shot-noise fields they drive."""

__version__ = "0.1.0"
