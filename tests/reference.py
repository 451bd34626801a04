"""Independent oracles used to freeze expected values in the tests.

These deliberately avoid the package's own code paths: the closed-form
J = 1/2 Zeeman energies, textbook filter integrals and FFT-based Hilbert
transforms act as cross-checks on the production implementations.
"""

import mpmath
import numpy as np
from scipy.constants import physical_constants
from scipy.optimize import minimize

from atompairs.faddeeva import voigt_profile_complex
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


def dense_operators(con, i_spin, g_i):
    """(H0, Z) of one J = 1/2 manifold, H0 = offset + A J.I and Z = g_J Jz + g_I Iz,
    from Kronecker products in the |m_J, m_I> basis (m_J outer, m_I inner,
    both ascending)."""
    jx, jy, jz = spin_matrices(0.5)
    ix, iy, iz = spin_matrices(i_spin)
    eye_j, eye_i = np.eye(2), np.eye(round(2 * i_spin + 1))
    j_dot_i = np.kron(jx, ix) + np.kron(jy, iy).real + np.kron(jz, iz)
    h = con.offset_hz * np.kron(eye_j, eye_i) + con.A_hfs_hz * j_dot_i
    zeeman = con.g_J * np.kron(jz, eye_i) + g_i * np.kron(eye_j, iz)
    return h, zeeman


def dense_hamiltonian(con, i_spin, g_i, b_field_t):
    """H0 + mu_B B Z of ``dense_operators``: (dim, dim) at one field,
    (fields, dim, dim) at a 1-D array."""
    h, zeeman = dense_operators(con, i_spin, g_i)
    return h + (MU_B * np.asarray(b_field_t, dtype=float))[..., None, None] * zeeman


def m_f_blocks(m_f, j, i_spin, a_hfs_hz):
    """(m_F, basis indices, F labels) of each m_F block of a basis whose
    states have total ``m_f``, in ascending m_F.  The labels are the F values
    that hold the block's m_F, lowest zero-field energy (interval rule) first,
    so the k-th lowest level of the block connects to the k-th label."""
    f_energy = {}
    f = abs(j - i_spin)
    while f <= j + i_spin + 1e-9:
        f_energy[f] = 0.5 * a_hfs_hz * (f * (f + 1) - i_spin * (i_spin + 1) - j * (j + 1))
        f += 1
    return [
        (
            mf_val,
            np.where(np.abs(m_f - mf_val) < 1e-9)[0],
            sorted((f for f in f_energy if abs(mf_val) <= f + 1e-9), key=f_energy.get),
        )
        for mf_val in sorted(set(np.round(m_f * 2).astype(int) / 2))
    ]


def basis_m_f(j, i_spin):
    """Total m_F of each |m_J, m_I> basis state (m_J outer, m_I inner)."""
    n_j, n_i = round(2 * j + 1), round(2 * i_spin + 1)
    return np.array([-j + kj - i_spin + ki for kj in range(n_j) for ki in range(n_i)])


def _blockwise_spectrum(con, i_spin, g_i, b_field_t):
    """Energies, eigenvectors, m_F and F labels of one J = 1/2 manifold.

    The Hamiltonian is rebuilt from Kronecker products at every field and each
    m_F block of ``m_f_blocks`` is solved on its own, in ascending m_F, with
    its adiabatic F labels read off the zero-field interval rule.
    """
    h = dense_hamiltonian(con, i_spin, g_i, b_field_t)
    dim = h.shape[0]
    energies, f_labels, m_f = np.empty(dim), np.empty(dim), np.empty(dim)
    vectors = np.zeros((dim, dim), dtype=complex)
    col = 0
    for mf_val, idx, fs in m_f_blocks(basis_m_f(0.5, i_spin), 0.5, i_spin, con.A_hfs_hz):
        vals, vecs = np.linalg.eigh(h[np.ix_(idx, idx)])
        for k in range(idx.size):
            energies[col + k] = vals[k]
            vectors[idx, col + k] = vecs[:, k]
            f_labels[col + k] = fs[k]
            m_f[col + k] = mf_val
        col += idx.size
    order = np.lexsort((m_f, energies))
    return energies[order], vectors[:, order], m_f[order], f_labels[order]


def dipole_matrix(j_g, j_e, i_spin, polarization):
    """<e|d_q|g> between the |m_J, m_I> product bases (m_J outer, m_I inner,
    both ascending), in units of <J'||d||J>, by the Wigner-Eckart theorem."""
    q = {"sigma+": 1, "pi": 0, "sigma-": -1}[polarization]
    m_i = -i_spin + np.arange(round(2 * i_spin + 1))
    basis_g, basis_e = (
        [(mj, mi) for mj in -j + np.arange(round(2 * j + 1)) for mi in m_i] for j in (j_g, j_e)
    )
    dipole = np.zeros((len(basis_e), len(basis_g)))
    for col, (mj, mi) in enumerate(basis_g):
        for row, (mj_e, mi_e) in enumerate(basis_e):
            if abs(mi_e - mi) > 1e-9 or abs(mj_e - (mj + q)) > 1e-9:
                continue
            dipole[row, col] = (-1) ** round(j_e - mj_e) * wigner_3j(j_e, -mj_e, 1, q, j_g, mj)
    return dipole


def dense_spectrum(h, m_f, j, i_spin, a_hfs_hz):
    """Energies, eigenvectors, m_F and F labels of a stack of Hamiltonians
    ``h`` (fields, dim, dim) whose basis states have total ``m_f``.

    The dense kernel of the atoms module before it solved its m_F blocks in
    closed form: the blocks of one size, of every field, go through one
    stacked ``np.linalg.eigh``; the levels are sorted by energy, ties by m_F.
    """
    groups, m_f_out, f_labels = {}, [], []
    for mf_val, idx, fs in m_f_blocks(m_f, j, i_spin, a_hfs_hz):
        groups.setdefault(idx.size, []).append((idx, len(m_f_out) + np.arange(idx.size)))
        m_f_out += [mf_val] * idx.size
        f_labels += fs[: idx.size]
    m_f_out, f_labels = np.array(m_f_out), np.array(f_labels)
    energies = np.empty(h.shape[:-1])
    vectors = np.zeros(h.shape)
    for same in groups.values():
        rows, cols = map(np.array, zip(*same))
        vals, vecs = np.linalg.eigh(h[..., rows[:, :, None], rows[:, None, :]])
        energies[..., cols] = vals
        vectors[..., rows[:, :, None], cols[:, None, :]] = vecs
    order = np.lexsort((np.broadcast_to(m_f_out, energies.shape), energies), axis=-1)
    return (
        np.take_along_axis(energies, order, -1),
        np.take_along_axis(vectors, order[..., None, :], -1),
        m_f_out[order],
        f_labels[order],
    )


def dense_lines(ground, excited, dipole, strength_cut=1e-12):
    """(field, lower, upper, frequency_hz, strength) of every level pair of
    two ``dense_spectrum`` stacks above the cut, from the amplitude matrices
    V_e^T D V_g of one batched product, field by field, ground state outer."""
    e_g, v_g = ground[:2]
    e_e, v_e = excited[:2]
    strengths = np.abs(v_e.swapaxes(-1, -2) @ dipole @ v_g) ** 2
    field, lower, upper = np.nonzero(strengths.swapaxes(-1, -2) >= strength_cut)
    return field, lower, upper, e_e[field, upper] - e_g[field, lower], strengths[field, upper, lower]


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
    dipole = dipole_matrix(0.5, 0.5, iso.nuclear_spin, polarization)
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


def _single_photon_fisher(j_0, dj, a, b_ph, c, d_ph, floor=1e-12):
    """Classical Fisher information of one photon in the polarization
    (cos a, e^{i b} sin a) through a channel with Jones ``j_0`` and derivative
    ``dj``, analyzed in the basis (c, d_ph), the lost-photon class included;
    outcomes with probability <= floor are left out. Broadcasts over the angles."""
    psi_h, psi_v = np.cos(a), np.exp(1j * b_ph) * np.sin(a)
    out_h, out_v = j_0[0, 0] * psi_h + j_0[0, 1] * psi_v, j_0[1, 0] * psi_h + j_0[1, 1] * psi_v
    dout_h, dout_v = dj[0, 0] * psi_h + dj[0, 1] * psi_v, dj[1, 0] * psi_h + dj[1, 1] * psi_v
    # conjugates of the analyzer ports (cos c, e^{i d} sin c), (-e^{-i d} sin c, cos c)
    m1_h, m1_v = np.cos(c), np.exp(-1j * d_ph) * np.sin(c)
    m2_h, m2_v = -np.exp(1j * d_ph) * np.sin(c), np.cos(c)
    amp1, damp1 = m1_h * out_h + m1_v * out_v, m1_h * dout_h + m1_v * dout_v
    amp2, damp2 = m2_h * out_h + m2_v * out_v, m2_h * dout_h + m2_v * dout_v
    p1, p2 = np.abs(amp1) ** 2, np.abs(amp2) ** 2
    dp1 = 2.0 * np.real(amp1.conj() * damp1)
    dp2 = 2.0 * np.real(amp2.conj() * damp2)
    p_lost = np.maximum(1.0 - (p1 + p2), 0.0)
    fi = 0.0
    for p, dp in ((p1, dp1), (p2, dp2), (p_lost, -(dp1 + dp2))):
        fi = fi + np.where(p > floor, dp**2 / np.where(p > floor, p, 1.0), 0.0)
    return fi


def searched_sql_fisher(channel_fn, at_b_t, h_t=0.25e-3):
    """Best single-photon Fisher information through ``channel_fn(b) -> 2x2``
    by brute force over any channel: a 13 x 13 grid of input polarizations
    (Bloch angles) by 13 x 13 analyzer bases, then Nelder-Mead refinement
    from the best grid point. Never above the true optimum."""
    j_0 = np.asarray(channel_fn(at_b_t), dtype=complex)
    dj = (
        np.asarray(channel_fn(at_b_t + h_t), dtype=complex)
        - np.asarray(channel_fn(at_b_t - h_t), dtype=complex)
    ) / (2 * h_t)

    # coarse grid: analyzers (c, d) down, inputs (a, b) across
    angles = np.linspace(0.0, np.pi, 13)
    phases = np.linspace(0.0, 2 * np.pi, 13, endpoint=False)
    aa, bb = (x.ravel() for x in np.meshgrid(angles, phases, indexing="ij"))
    fi_grid = _single_photon_fisher(j_0, dj, aa, bb, aa[:, None], bb[:, None])
    i_out, i_in = np.unravel_index(int(np.argmax(fi_grid)), fi_grid.shape)
    best = float(fi_grid[i_out, i_in])

    res = minimize(
        lambda q: -_single_photon_fisher(j_0, dj, *q),
        np.array([aa[i_in], bb[i_in], aa[i_out], bb[i_out]]),
        method="Nelder-Mead",
        options={"maxiter": 400, "xatol": 1e-6, "fatol": 1e-10},
    )
    return float(max(best, -res.fun))


def kraus_measurement_rates(rho, channel, analyzer_hwp_rad):
    """The six pair outcome classes (HH, HV, VV, one H, one V, none) of one
    channel and one analyzer angle, from Kraus branches: detected through the
    analyzer rows, lost through sqrt(I - J^dag J), each pair of branches
    applied as a Kronecker sandwich."""
    j = np.asarray(channel, dtype=complex)
    c, s = np.cos(2 * analyzer_hwp_rad), np.sin(2 * analyzer_hwp_rad)
    m = np.array([[c, s], [s, -c]]) @ j
    vals, vecs = np.linalg.eigh(np.eye(2) - j.conj().T @ j)
    kraus = {
        "H": np.outer([1.0, 0.0], m[0, :]),
        "V": np.outer([0.0, 1.0], m[1, :]),
        "L": (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T,
    }

    def prob(a, b):
        k2 = np.kron(kraus[a], kraus[b])
        return float(np.real(np.trace(k2 @ rho @ k2.conj().T)))

    return np.array(
        [
            prob("H", "H"),
            prob("H", "V") + prob("V", "H"),
            prob("V", "V"),
            prob("H", "L") + prob("L", "H"),
            prob("V", "L") + prob("L", "V"),
            prob("L", "L"),
        ]
    )


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


def one_shot_susceptibility(arrays, nu_hz):
    """chi(nu) of one polarization's line arrays, as a single lines x
    frequencies evaluation summed line by line in line order: the expression
    blocked evaluation must reproduce."""
    nu = np.asarray(nu_hz, dtype=float)
    detuning = nu[None, :] - arrays.nu0.reshape(-1, 1)
    prof = voigt_profile_complex(
        detuning, arrays.lorentz_fwhm_hz.reshape(-1, 1), arrays.sigma_hz.reshape(-1, 1)
    )
    chi = np.zeros(nu.shape, dtype=complex)
    for amp, line in zip(arrays.amp.ravel(), prof):
        chi = chi + amp * line
    return 1j * chi


def one_shot_csv(path, header, columns):
    """A table written in one pass over whole ``tolist()`` columns, with the
    same row templates as ``cli.write_csv``."""
    columns = [np.asarray(col) for col in columns]
    row = ",".join("%d" if np.issubdtype(col.dtype, np.integer) else "%.12g" for col in columns)
    row += "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % values for values in zip(*(col.tolist() for col in columns)))


def tent_bin_averages(g, offset, bins, dps=120):
    """The average of exp(-g |u|) against a unit-area tent of full width 2
    about each apex c = i - offset (bin units), to ``dps`` digits: the second
    difference F(c+1) - 2 F(c) + F(c-1) of F(u) = (exp(-g|u|) - 1 + g|u|) / g^2,
    with the exponential and linear parts summed apart so that neither has
    to cancel the other.  Returns mpmath numbers, one per bin."""
    with mpmath.workdps(dps):
        g, offset = mpmath.mpf(g), mpmath.mpf(offset)
        ks = range(int(bins[0]) - 1, int(bins[-1]) + 2)
        decay = {k: mpmath.exp(-g * abs(k - offset)) for k in ks}
        out = []
        for i in map(int, bins):
            linear = abs(i + 1 - offset) - 2 * abs(i - offset) + abs(i - 1 - offset)
            out.append((decay[i + 1] - 2 * decay[i] + decay[i - 1]) / g**2 + linear / g)
        return out


def per_phase_counts(psi, alpha, phases_rad, exposure, noise=True, seed=0):
    """Coincidence counts drawn one analyser phase at a time from one seeded
    generator, the loop that the one-call table replaced: expected counts
    exposure |psi + (alpha^2/2) e^{2 i phi}|^2, Poisson-sampled with
    ``noise``.  Returns the rows stacked, one per phase."""
    rng = np.random.default_rng(seed)
    rows = []
    for phi in np.atleast_1d(np.asarray(phases_rad, dtype=float)):
        expected = exposure * np.abs(psi.psi + alpha**2 / 2.0 * np.exp(2j * phi)) ** 2
        rows.append(rng.poisson(expected).astype(float) if noise else expected)
    return np.stack(rows)
