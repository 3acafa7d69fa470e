"""Cavity-assisted bath engineering of a driven superconducting qubit.

Simulation (Lindblad master equation in the displaced dispersive frame) and
closed-form rate calculator for cooling a Rabi-driven qubit with the photon
shot noise of a detuned, driven cavity.
"""

__version__ = "0.1.0"
