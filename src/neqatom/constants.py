"""SI physical constants used by the package, as literals.

``c``, ``h`` and ``k_B`` are exact in the 2019 SI. ``hbar = h / (2 pi)``
is bit-equal to ``scipy.constants.hbar``. ``epsilon_0`` is the CODATA 2022
value, the one scipy 1.17 ships; older scipy releases carry CODATA 2018's
8.8541878128e-12. Pinning it makes explicit-dipole rates independent of the
installed scipy. Holding them here keeps scipy off the import path: only
``evolve_populations`` loads it, for ``expm``.
"""

import math

c = 299792458.0
"""Speed of light in vacuum [m/s] (exact)."""

h = 6.62607015e-34
"""Planck constant [J s] (exact)."""

hbar = h / (2 * math.pi)
"""Reduced Planck constant [J s]."""

k_B = 1.380649e-23
"""Boltzmann constant [J/K] (exact)."""

epsilon_0 = 8.8541878188e-12
"""Vacuum permittivity [F/m] (CODATA 2022)."""
