#!/usr/bin/env python3
"""Field scan of the pair-probed Faraday cell with a Fisher-information table.

Runs the 75 mm enriched-Rb85 cell scan, prints rotation/transmission
landmarks and the NooN-vs-SQL information ratio at a few fields.
"""

import numpy as np

from atompairs.atoms import load_atom_data
from atompairs.cli import noon_frequency_hz
from atompairs.noon import (
    count_oscillations,
    fisher_information,
    fisher_information_frozen_loss,
    make_noon_from_pair,
    sensing_scan,
    sql_fisher_information,
    visibility,
)
from atompairs.vapor import VaporCellConfig, transfer_vs_field


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
    # one pass over the scan's fields, then b* and b* +- h of each Fisher point
    h_t, fisher_mt = 0.25e-3, np.array([34.0, 40.0, 44.0, 48.0])
    fisher_fields = (fisher_mt[:, None] * 1e-3 + [0.0, h_t, -h_t]).ravel()
    transfer = transfer_vs_field(atoms, cell, nu, np.concatenate([b_list, fisher_fields]))
    scan = sensing_scan(state, b_list, [t[: b_list.size] for t in transfer])
    t_plus, t_minus, theta = (t[b_list.size :].reshape(-1, 3) for t in transfer)

    hh = scan.probabilities.hh
    sv = scan.probabilities.singles_v
    print(f"probe at {(nu - atoms.d1_center_hz()) / 1e9:+.2f} GHz from the D1 centroid")
    print(f"rotation at 50 mT: {np.degrees(scan.rotation_rad[-1]):+.1f} deg")
    print(f"transmission at 50 mT: {scan.eta[-1]:.3f}")
    print(f"HH oscillations: {count_oscillations(hh):.1f}  visibility {visibility(hh):.3f}")
    print(f"V-singles oscillations: {count_oscillations(sv):.1f}")

    print(f"\n{'B [mT]':>7} {'FI/photon':>10} {'SQL':>10} {'ratio':>6}")
    for k, b_mt in enumerate(fisher_mt):
        rep = fisher_information(scan, b_mt * 1e-3)
        sql = sql_fisher_information(t_plus[k], t_minus[k], h_t)
        print(f"{b_mt:7.1f} {rep.fi_per_photon:10.0f} {sql:10.0f} {rep.fi_per_photon / sql:6.2f}")

    full, frozen = fisher_information_frozen_loss(state, (t_plus[2], t_minus[2], theta[2]), h_t)
    print(f"\nloss-variation bonus at 44 mT: live {full:.0f} vs frozen {frozen:.0f}")


if __name__ == "__main__":
    main()
