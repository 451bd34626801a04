import warnings

import hypothesis
import numpy as np
import pytest

from atompairs.atoms import load_atom_data
from atompairs.filters import fadof_spectrum
from atompairs.vapor import VaporCellConfig, make_frequency_grid

hypothesis.settings.register_profile(
    "ci", max_examples=25, derandomize=True, deadline=None
)
hypothesis.settings.load_profile("ci")

warnings.filterwarnings("ignore", message="grid edges leave")


@pytest.fixture(scope="session")
def atoms():
    return load_atom_data()


@pytest.fixture(scope="session")
def d1_center(atoms):
    return atoms.d1_center_hz()


@pytest.fixture(scope="session")
def fadof_grid(d1_center):
    return make_frequency_grid(d1_center, 8e9, 0.5e6)


@pytest.fixture(scope="session")
def fadof_main(atoms, fadof_grid):
    """The 4.5 mT / 365 K natural-abundance 10 cm filter, shared by many tests."""
    cell = VaporCellConfig(
        length_m=0.10, temperature_k=365.0, isotope_fractions=atoms.natural_fractions()
    )
    return fadof_spectrum(cell, 4.5e-3, 1.8e-6, fadof_grid, atoms)


@pytest.fixture(scope="session")
def fadof_hot(atoms, fadof_grid):
    """The 18.0 mT / 353 K row."""
    cell = VaporCellConfig(
        length_m=0.10, temperature_k=353.0, isotope_fractions=atoms.natural_fractions()
    )
    return fadof_spectrum(cell, 18.0e-3, 1.8e-6, fadof_grid, atoms)


@pytest.fixture(scope="session")
def noon_line_hz(atoms):
    from atompairs.cli import noon_frequency_hz

    return noon_frequency_hz(atoms)


@pytest.fixture(scope="session")
def sensing_cell():
    return VaporCellConfig(
        length_m=0.075,
        temperature_k=343.15,
        isotope_fractions={"Rb85": 0.995, "Rb87": 0.005},
        droop_fraction=0.15,
    )


@pytest.fixture(scope="session")
def sensing_scan_fine(atoms, sensing_cell, noon_line_hz):
    """Shared 0..50 mT scan of the slightly imbalanced pair state."""
    from atompairs.noon import make_noon_from_pair, sensing_scan
    from atompairs.vapor import transfer_vs_field

    state = make_noon_from_pair(imbalance=0.15)
    b_list = np.arange(0.0, 50.001e-3, 0.5e-3)
    return sensing_scan(state, b_list, transfer_vs_field(atoms, sensing_cell, noon_line_hz, b_list))

