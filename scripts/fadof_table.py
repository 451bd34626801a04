#!/usr/bin/env python3
"""Compute Faraday-filter figures of merit for the four shipped (B, T) rows.

Prints T_max, FWHM and ENBW per configuration; ~1 s per row.
"""

import numpy as np

from atompairs.atoms import load_atom_data
from atompairs.filters import PolarizerPair, fadof_spectrum, filter_metrics
from atompairs.vapor import VaporCellConfig, check_spacing, make_frequency_grid

ROWS = [(2.0, 345.0), (4.5, 365.0), (5.9, 378.0), (18.0, 353.0)]
SPACING_HZ = 0.5e6


def main():
    atoms = load_atom_data()
    center = atoms.d1_center_hz()
    grid = make_frequency_grid(center, 8e9, SPACING_HZ)
    print(f"{'B [mT]':>7} {'T [K]':>6} {'T_max':>6} {'B_T [GHz]':>10} {'B_N [GHz]':>10} {'peak [GHz]':>11}")
    for b_mt, temp in ROWS:
        cell = VaporCellConfig(
            length_m=0.10, temperature_k=temp, isotope_fractions=atoms.natural_fractions()
        )
        check_spacing(cell, atoms, SPACING_HZ)
        spec = fadof_spectrum(cell, b_mt * 1e-3, PolarizerPair(), grid, atoms)
        m = filter_metrics(spec)
        print(
            f"{b_mt:7.1f} {temp:6.0f} {m.t_max:6.3f} {m.fwhm_hz / 1e9:10.3f} "
            f"{m.enbw_hz / 1e9:10.2f} {(m.peak_hz - center) / 1e9:+11.2f}"
        )


if __name__ == "__main__":
    main()
