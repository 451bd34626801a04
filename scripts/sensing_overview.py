#!/usr/bin/env python3
"""Field scan of the pair-probed Faraday cell with a Fisher-information table.

Runs the 75 mm enriched-Rb85 cell scan, prints rotation/transmission
landmarks and the NooN-vs-SQL information ratio at a few fields.
"""

import numpy as np

from atompairs.atoms import load_atom_data
from atompairs.cli import noon_frequency_hz
from atompairs.noon import (
    circular_jones,
    count_oscillations,
    fisher_information,
    fisher_information_frozen_loss,
    make_noon_from_pair,
    probe_transfer,
    sensing_scan,
    sql_fisher_information,
    visibility,
)
from atompairs.vapor import VaporCellConfig


def main():
    atoms = load_atom_data()
    nu = noon_frequency_hz(atoms)
    cell = VaporCellConfig(
        length_m=0.075,
        temperature_k=343.15,
        isotope_fractions={"Rb85": 0.995, "Rb87": 0.005},
        droop_fraction=0.15,
    )
    state = make_noon_from_pair(imbalance=0.15)
    b_list = np.arange(0.0, 50.001e-3, 0.5e-3)
    transfer = probe_transfer(cell, atoms, nu)
    scan = sensing_scan(state, transfer, b_list)

    hh = scan.probabilities.hh
    sv = scan.probabilities.singles_v
    print(f"probe at {(nu - atoms.d1_center_hz()) / 1e9:+.2f} GHz from the D1 centroid")
    print(f"rotation at 50 mT: {np.degrees(scan.rotation_rad[-1]):+.1f} deg")
    print(f"transmission at 50 mT: {scan.eta[-1]:.3f}")
    print(f"HH oscillations: {count_oscillations(hh):.1f}  visibility {visibility(hh):.3f}")
    print(f"V-singles oscillations: {count_oscillations(sv):.1f}")

    def channel(b):
        return circular_jones(*transfer(b)[:2])

    print(f"\n{'B [mT]':>7} {'FI/photon':>10} {'SQL':>10} {'ratio':>6}")
    for b_mt in (34.0, 40.0, 44.0, 48.0):
        rep = fisher_information(scan, b_mt * 1e-3)
        sql = sql_fisher_information(channel, b_mt * 1e-3)
        print(f"{b_mt:7.1f} {rep.fi_per_photon:10.0f} {sql:10.0f} {rep.fi_per_photon / sql:6.2f}")

    full, frozen = fisher_information_frozen_loss(state, transfer, 44e-3)
    print(f"\nloss-variation bonus at 44 mT: live {full:.0f} vs frozen {frozen:.0f}")


if __name__ == "__main__":
    main()
