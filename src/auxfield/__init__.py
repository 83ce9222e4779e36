"""Approximate spectra of quantum N-body systems via the auxiliary field method.

Exact N-body harmonic-oscillator solutions, closed-form auxiliary-field masses
for power-law, Coulomb, gaussian and funnel interactions, duality maps to
two-body problems, and independent numerical oracles that verify every closed
form.

Importing the package loads only the model and error types. The solver layers
are imported by name, e.g. ``from auxfield.engine import afm_mass``.
"""
from .errors import AuxFieldError, NumericalError, ValidationError
from .model import (
    AFMSolution,
    BoundCharacter,
    GaussianWell,
    Identical,
    Kinematics,
    PerParticle,
    PotentialTerm,
    PowerLaw,
    QuantumNumbers,
    Scope,
    SystemSpec,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "AFMSolution",
    "AuxFieldError",
    "BoundCharacter",
    "GaussianWell",
    "Identical",
    "Kinematics",
    "NumericalError",
    "PerParticle",
    "PotentialTerm",
    "PowerLaw",
    "QuantumNumbers",
    "Scope",
    "SystemSpec",
    "ValidationError",
    "engine",
    "ho",
    "oracles",
    "special",
    "systems",
    "validate",
]
