"""The package's pinned SI constants against scipy.constants as an oracle."""

import math

import pytest
import scipy.constants as sc

from neqatom import constants
from neqatom.atom import AtomModel, transition_rates
from neqatom.response import AlphaPair

CODATA_2022_EPSILON_0 = 8.8541878188e-12


@pytest.mark.parametrize("name, oracle", [("c", "c"), ("h", "h"), ("hbar", "hbar"), ("k_B", "k")])
def test_constants_are_bit_equal_to_scipy(name, oracle):
    assert getattr(constants, name).hex() == getattr(sc, oracle).hex()


def test_epsilon_0_is_codata_2022_and_close_to_installed_scipy():
    # scipy releases before CODATA 2022 carry 8.8541878128e-12 (CODATA 2018)
    assert constants.epsilon_0 == CODATA_2022_EPSILON_0
    assert constants.epsilon_0 == pytest.approx(sc.epsilon_0, rel=1e-9)


@pytest.mark.parametrize("omega_32", [1e12, 1.495e14, 2.99e14, 1e16])
@pytest.mark.parametrize("which", ["31", "32"])
def test_default_dipole_gives_unit_vacuum_rate_to_4_ulp(omega_32, which):
    atom = AtomModel(omega_31=1.2 * omega_32, omega_32=omega_32)
    env = transition_rates(atom, which, AlphaPair(1.0, 0.0), 300.0, 300.0)
    assert abs(env.gamma0 - 1.0) <= 4 * math.ulp(1.0)
