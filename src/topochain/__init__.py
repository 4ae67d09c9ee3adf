"""Dissipative SSH-circuit toolkit: bands, topology, transients.

A chain of RC-coupled cells grounded through inductors supports damped
oscillation modes at complex frequencies.  This package computes those
modes, the frequency-dependent hopping weights they induce, the winding
invariants and skin-effect diagnostics built on them, finite-chain spectra,
and full time-domain circuit responses, plus a CLI that reproduces the
bundled experiment presets.
"""

from .circuit import (
    BlochMatrix,
    HoppingPair,
    RealSpaceMatrix,
    bloch_admittance,
    chain_bonds,
    hoppings,
    lambda_diag,
)
from .errors import (
    ConfigError,
    NumericError,
    OutputError,
    TopochainError,
)
from .params import Boundary, CircuitParams, circuit_from_mapping, load_config
from .spectral import (
    BandSet,
    ChainSpectrum,
    FrequencyRoots,
    band_trace,
    branch_effective_matrix,
    bulk_gap,
    eigendecompose,
    lambda_spectrum,
    midpoint_grid,
    natural_frequencies,
)
from .topology import (
    PerturbationReport,
    WindingResult,
    center_of_mass_shift,
    classify_states,
    compare_perturbed,
    perturb_chain,
    skin_effect_present,
    winding_crossings,
    winding_number,
    winding_per_branch,
    winding_quadrature,
)
from .transient import (
    DampedFit,
    TransientSetup,
    TransientTrace,
    assemble_state_space,
    fit_damped_oscillation,
    ground_current_profile,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "BandSet", "BlochMatrix", "Boundary", "ChainSpectrum", "CircuitParams",
    "ConfigError", "DampedFit", "FrequencyRoots", "HoppingPair",
    "NumericError", "OutputError", "PerturbationReport", "RealSpaceMatrix",
    "TopochainError", "TransientSetup", "TransientTrace", "WindingResult",
    "assemble_state_space", "band_trace", "bloch_admittance",
    "branch_effective_matrix", "bulk_gap", "center_of_mass_shift",
    "chain_bonds", "circuit_from_mapping",
    "classify_states", "compare_perturbed", "eigendecompose",
    "fit_damped_oscillation", "ground_current_profile", "hoppings",
    "lambda_diag", "lambda_spectrum", "load_config", "midpoint_grid",
    "natural_frequencies", "perturb_chain", "simulate", "skin_effect_present",
    "winding_crossings", "winding_number", "winding_per_branch",
    "winding_quadrature",
]
