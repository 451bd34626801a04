"""Independent oracles used to freeze expected values in the tests.

These deliberately avoid the package's own code paths: the closed-form
J = 1/2 Zeeman energies, textbook filter integrals and FFT-based Hilbert
transforms act as cross-checks on the production implementations.
"""

import numpy as np
from scipy.constants import physical_constants

from atompairs.wigner import spin_matrices, wigner_3j

MU_B = physical_constants["Bohr magneton in Hz/T"][0]


def breit_rabi_energies(i_spin, g_j, g_i, a_hfs_hz, b_field_t):
    """All eigenenergies (Hz) of a J=1/2 hyperfine manifold, sorted ascending.

    Closed form valid at arbitrary field; the stretched |m_F| = I + 1/2
    states are exactly linear in B and handled separately so the formula
    remains on the physical branch past the level-crossing parameter x = 1.
    """
    de = a_hfs_hz * (i_spin + 0.5)
    x = (g_j - g_i) * MU_B * b_field_t / de
    energies = []
    # stretched states (F = I + 1/2, m_F = +-(I + 1/2))
    for sign in (+1.0, -1.0):
        m = sign * (i_spin + 0.5)
        energies.append(-de / (2 * (2 * i_spin + 1)) + g_i * MU_B * m * b_field_t + 0.5 * de * (1.0 + sign * x))
    # remaining m_F appear once per F branch
    m = -(i_spin - 0.5)
    while m <= i_spin - 0.5 + 1e-9:
        root = np.sqrt(1.0 + 4.0 * m * x / (2 * i_spin + 1) + x * x)
        for sign in (+1.0, -1.0):
            energies.append(
                -de / (2 * (2 * i_spin + 1))
                + g_i * MU_B * m * b_field_t
                + sign * 0.5 * de * root
            )
        m += 1.0
    return np.sort(np.array(energies))


def _blockwise_spectrum(con, i_spin, g_i, b_field_t):
    """Energies, eigenvectors, m_F and F labels of one J = 1/2 manifold.

    The Hamiltonian is rebuilt from Kronecker products at every field and each
    m_F block is solved on its own, in ascending m_F, with its adiabatic F
    labels read off the zero-field interval rule block by block.
    """
    assert con.B_hfs_hz == 0.0  # the D1 manifolds carry no quadrupole term
    J = con.J
    jx, jy, jz = spin_matrices(J)
    ix, iy, iz = spin_matrices(i_spin)
    eye_j, eye_i = np.eye(round(2 * J + 1)), np.eye(round(2 * i_spin + 1))
    j_dot_i = np.kron(jx, ix) + np.kron(jy, iy).real + np.kron(jz, iz)
    h = con.offset_hz * np.kron(eye_j, eye_i) + con.A_hfs_hz * j_dot_i
    h = h + MU_B * b_field_t * (con.g_J * np.kron(jz, eye_i) + g_i * np.kron(eye_j, iz))

    mf = np.array([-J + kj - i_spin + ki for kj in range(eye_j.shape[0]) for ki in range(eye_i.shape[0])])
    f_energy = {}
    f = abs(J - i_spin)
    while f <= J + i_spin + 1e-9:
        f_energy[f] = 0.5 * con.A_hfs_hz * (f * (f + 1) - i_spin * (i_spin + 1) - J * (J + 1))
        f += 1
    dim = h.shape[0]
    energies, f_labels, m_f = np.empty(dim), np.empty(dim), np.empty(dim)
    vectors = np.zeros((dim, dim), dtype=complex)
    col = 0
    for mf_val in sorted(set(np.round(mf * 2).astype(int) / 2)):
        idx = np.where(np.abs(mf - mf_val) < 1e-9)[0]
        vals, vecs = np.linalg.eigh(h[np.ix_(idx, idx)])
        fs = sorted((f for f in f_energy if abs(mf_val) <= f + 1e-9), key=f_energy.get)
        for k in range(idx.size):
            energies[col + k] = vals[k]
            vectors[idx, col + k] = vecs[:, k]
            f_labels[col + k] = fs[k]
            m_f[col + k] = mf_val
        col += idx.size
    order = np.lexsort((m_f, energies))
    return energies[order], vectors[:, order], m_f[order], f_labels[order]


def blockwise_lines(iso, b_field_t, polarization, strength_cut=1e-12):
    """D1 lines of one isotope, enumerated one at a time.

    The per-field kernel of the atoms module before it stacked its solves:
    Hamiltonians rebuilt per field, one ``eigh`` per m_F block, 3-j symbols
    evaluated per dipole element and one loop step per candidate line, ground
    state outer and excited state inner.  It shares only the spin matrices
    and 3-j symbols of ``atompairs.wigner``.  Returns the (m_F, F label)
    arrays of the ground and excited spectra and the lines as
    (lower, upper, frequency_hz, strength) tuples in emission order.
    """
    ground, excited = iso.manifolds["5S1/2"], iso.manifolds["5P1/2"]
    e_g, v_g, mf_g, f_g = _blockwise_spectrum(ground, iso.nuclear_spin, iso.g_I, b_field_t)
    e_e, v_e, mf_e, f_e = _blockwise_spectrum(excited, iso.nuclear_spin, iso.g_I, b_field_t)
    q = {"sigma+": 1, "pi": 0, "sigma-": -1}[polarization]
    m_i = -iso.nuclear_spin + np.arange(round(2 * iso.nuclear_spin + 1))
    basis_g, basis_e = (
        [(mj, mi) for mj in -con.J + np.arange(round(2 * con.J + 1)) for mi in m_i]
        for con in (ground, excited)
    )
    dipole = np.zeros((len(basis_e), len(basis_g)))
    for col, (mj, mi) in enumerate(basis_g):
        for row, (mj_e, mi_e) in enumerate(basis_e):
            if abs(mi_e - mi) > 1e-9 or abs(mj_e - (mj + q)) > 1e-9:
                continue
            dipole[row, col] = (-1) ** round(excited.J - mj_e) * wigner_3j(
                excited.J, -mj_e, 1, q, ground.J, mj
            )
    strengths = np.abs(v_e.conj().T @ dipole @ v_g) ** 2
    lines = []
    for g in range(e_g.size):
        for e in range(e_e.size):
            if strengths[e, g] >= strength_cut:
                lines.append((g, e, e_e[e] - e_g[g], float(strengths[e, g])))
    return (mf_g, f_g), (mf_e, f_e), lines


def lorentzian_enbw(fwhm_hz):
    """ENBW of a unit-height Lorentzian: integral pi*w/2 over peak 1."""
    return np.pi * fwhm_hz / 2.0


def hilbert_transform(values, spacing):
    """Numerical Hilbert transform on a uniform grid via FFT (odd kernel)."""
    n = values.size
    spectrum = np.fft.fft(values, 4 * n)
    freqs = np.fft.fftfreq(4 * n)
    kernel = -1j * np.sign(freqs)
    out = np.fft.ifft(spectrum * kernel)[:n]
    return out.real


def ideal_noon_fisher_pair(slope_rad_per_t):
    """Lossless N=2 pair probing a rotation theta = slope * B in H/V
    coincidences: classic multinomial value 16 * slope^2 per pair."""
    return 16.0 * slope_rad_per_t**2


def ideal_single_fisher(slope_rad_per_t):
    """Best lossless single-photon interferometer: 4 * slope^2."""
    return 4.0 * slope_rad_per_t**2


def steck_rb_number_density(temperature_k):
    """Rb vapor number density (m^-3) from Steck's fit after Alcock et al.

    D. A. Steck, "Rubidium 85 D Line Data" (rev. 2.3.3), vapor pressure:
    log10(P / torr) = 2.881 + 4.857 - 4215 / T for the solid and
    2.881 + 4.312 - 4040 / T for the liquid, which melts at 312.46 K.
    The ideal-gas density is P / (k_B T).
    """
    if temperature_k < 312.46:
        log10_torr = 2.881 + 4.857 - 4215.0 / temperature_k
    else:
        log10_torr = 2.881 + 4.312 - 4040.0 / temperature_k
    pressure_pa = 10.0**log10_torr * 101325.0 / 760.0
    return pressure_pa / (physical_constants["Boltzmann constant"][0] * temperature_k)


def harmonic_order(theta_rad, values):
    """Fringes per half-turn of polarization rotation, as a power-weighted
    harmonic order.

    Projects ``values`` by least squares onto {1, cos 2m*theta, sin 2m*theta}
    for m = 1..3 and returns sum(m * P_m) / sum(P_m), where P_m is the
    squared amplitude of harmonic m. A signal that fringes m times while the
    polarization turns by pi returns m: one-photon rates (cos 2*theta) give
    1, the N = 2 NooN coincidences (cos 4*theta) give 2, and a product |HH>
    state (cos^4 theta) gives 18/17.

    Three orders are enough: any two-photon rate after a rotation is a
    quadratic form in the rotated amplitudes, each linear in cos theta and
    sin theta, so it holds no harmonic above m = 2, with or without the
    |VV> admixture of an imbalanced pair. The third order is there so that
    content above m = 2 (from dichroism along the scan, say) raises the mean
    instead of folding into the lower orders.

    The order is measured against the rotation itself, not the applied
    field. A count of midrange crossings over a fixed field window measures
    how much rotation that window holds, which moves with vapor density,
    cell length and probe detuning: a few percent more rotation can add half
    an oscillation. A signal made of orders 1..3 alone is fitted exactly
    over any sweep, so its order does not depend on the sweep length; a
    short sweep only makes the fit ill-conditioned, which is why criterion 8
    asks for at least one full coincidence fringe (pi/2 of rotation).
    """
    orders = np.arange(1, 4)
    theta = np.asarray(theta_rad, dtype=float)
    cols = [np.ones_like(theta)]
    for m in orders:
        cols += [np.cos(2 * m * theta), np.sin(2 * m * theta)]
    coef, *_ = np.linalg.lstsq(np.column_stack(cols), np.asarray(values, dtype=float), rcond=None)
    power = coef[1::2] ** 2 + coef[2::2] ** 2
    return float(orders @ power / power.sum())
