"""Radiative environment and thermalization of a three-level atom near a slab."""

from .analysis import (
    ScanPoint,
    ScanResult,
    ThermalComparison,
    closest_thermal,
    distance_to_thermal,
    scan,
    steady_point,
    thermal_populations,
    transition_environments,
)
from .atom import (
    AtomModel,
    Populations,
    TransitionEnvironment,
    bose_occupation,
    effective_occupation,
    effective_temperature,
    evolve_populations,
    inversion_predicate,
    steady_state,
    transition_rates,
)
from .optics import (
    DielectricModel,
    load_material,
    permittivity,
    slab_amplitudes,
    surface_mode_frequency,
)
from .quadrature import (
    NonFiniteIntegrandError,
    QuadratureResult,
    QuadratureSpec,
    QuadratureToleranceError,
    integrate_evanescent,
    integrate_oscillatory,
    integrate_propagative,
)
from .response import (
    AlphaPair,
    GeometryPoint,
    PointFailure,
    ResponseVectors,
    alpha_pair,
    crossover_distance,
    response_vectors,
)

__version__ = "0.1.0"
