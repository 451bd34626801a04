import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atompairs.atoms import (
    AtomLibrary,
    all_lines_for_cell,
    build_hamiltonian,
    diagonalize,
    load_atom_data,
    transition_lines,
)
from atompairs.errors import ConfigError, NumericError
from atompairs.wigner import spin_matrices, wigner_3j

from reference import blockwise_lines, breit_rabi_energies


def test_spin_matrix_commutators():
    for j in (0.5, 1.0, 1.5, 2.5):
        jx, jy, jz = spin_matrices(j)
        assert np.allclose(jx @ jy - jy @ jx, 1j * jz, atol=1e-12)
        casimir = jx @ jx + jy @ jy + jz @ jz
        assert np.allclose(casimir, j * (j + 1) * np.eye(jx.shape[0]), atol=1e-12)


def test_wigner_3j_against_known_values():
    # (1/2 1 1/2; 1/2 0 -1/2) = sqrt(1/6)
    assert wigner_3j(0.5, 0.5, 1, 0, 0.5, -0.5) == pytest.approx(np.sqrt(1 / 6))
    # orthogonality sum rule
    total = sum(
        wigner_3j(1.5, m1, 1, q, 0.5, m3) ** 2
        for m1 in (-1.5, -0.5, 0.5, 1.5)
        for q in (-1, 0, 1)
        for m3 in (-0.5, 0.5)
        if abs(m1 + q + m3) < 1e-9
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_hamiltonian_dimensions(atoms):
    assert build_hamiltonian(atoms["Rb87"], "5S1/2", 0.0).dim == 8
    assert build_hamiltonian(atoms["Rb85"], "5S1/2", 0.0).dim == 12


def test_ground_splitting_is_interval_times_a(atoms):
    # zero field: two degenerate clusters split by (I + 1/2) A
    for name in ("Rb85", "Rb87"):
        iso = atoms[name]
        spec = diagonalize(build_hamiltonian(iso, "5S1/2", 0.0))
        split = spec.energies_hz.max() - spec.energies_hz.min()
        expected = (iso.nuclear_spin + 0.5) * iso.manifolds["5S1/2"].A_hfs_hz
        assert split == pytest.approx(expected, rel=1e-12)


def test_excited_splitting(atoms):
    iso = atoms["Rb87"]
    spec = diagonalize(build_hamiltonian(iso, "5P1/2", 0.0))
    rel = spec.energies_hz - iso.manifolds["5P1/2"].offset_hz
    split = rel.max() - rel.min()
    assert split == pytest.approx(2.0 * iso.manifolds["5P1/2"].A_hfs_hz, rel=1e-12)


def test_zero_field_degeneracy_within_f_levels(atoms):
    for name in ("Rb85", "Rb87"):
        spec = diagonalize(build_hamiltonian(atoms[name], "5S1/2", 0.0))
        for f in np.unique(spec.f_labels):
            e = spec.energies_hz[spec.f_labels == f]
            assert e.size == round(2 * f + 1)
            assert e.max() - e.min() < 1.0  # Hz


def test_breit_rabi_equivalence_random_fields(atoms):
    rng = np.random.default_rng(42)
    fields = rng.uniform(0.0, 60e-3, size=100)
    for name in ("Rb85", "Rb87"):
        iso = atoms[name]
        for manifold in ("5S1/2", "5P1/2"):
            con = iso.manifolds[manifold]
            scale = (iso.nuclear_spin + 0.5) * con.A_hfs_hz
            for b in fields:
                numeric = diagonalize(build_hamiltonian(iso, manifold, b)).energies_hz
                exact = breit_rabi_energies(
                    iso.nuclear_spin, con.g_J, iso.g_I, con.A_hfs_hz, b
                ) + con.offset_hz
                assert np.abs(numeric - exact).max() < 1e-9 * scale


def test_diagonalize_identity_scaled():
    from atompairs.atoms import ManifoldHamiltonian, product_basis

    basis = tuple(product_basis(0.5, 1.5))
    ham = ManifoldHamiltonian(
        isotope="Rb87",
        manifold="5S1/2",
        J=0.5,
        I=1.5,
        basis=basis,
        matrix_hz=3.0e9 * np.eye(8),
        field_t=0.0,
    )
    spec = diagonalize(ham)
    assert np.allclose(spec.energies_hz, 3.0e9)
    # columns are basis vectors (a permutation of the identity: degenerate
    # levels are ordered by m_F for determinism)
    mags = np.abs(spec.eigenvectors)
    assert np.allclose(np.sort(mags, axis=0)[-1], 1.0)
    assert np.allclose(mags.sum(axis=0), 1.0)
    assert np.allclose(mags.sum(axis=1), 1.0)


def test_diagonalize_reconstruction_and_unitarity(atoms):
    ham = build_hamiltonian(atoms["Rb85"], "5S1/2", 23.7e-3)
    spec = diagonalize(ham)
    v, e = spec.eigenvectors, spec.energies_hz
    assert np.abs(v @ v.conj().T - np.eye(ham.dim)).max() < 1e-10
    recon = v @ np.diag(e) @ v.conj().T
    scale = np.abs(ham.matrix_hz).max()
    assert np.abs(recon - ham.matrix_hz).max() < 1e-10 * scale


def test_block_structure_exact(atoms):
    ham = build_hamiltonian(atoms["Rb87"], "5S1/2", 41e-3)
    spec = diagonalize(ham)
    mf_basis = ham.m_f()
    for col in range(spec.dim):
        support = np.abs(spec.eigenvectors[:, col]) > 0
        assert np.unique(mf_basis[support]).size == 1


def test_diagonalize_rejects_non_hermitian(atoms):
    ham = build_hamiltonian(atoms["Rb87"], "5S1/2", 1e-3)
    bad = ham.matrix_hz.copy()
    bad[0, 1] += 1e3
    from dataclasses import replace

    with pytest.raises(NumericError):
        diagonalize(replace(ham, matrix_hz=bad))


def test_unknown_manifold_raises(atoms):
    with pytest.raises(ConfigError, match="manifold"):
        build_hamiltonian(atoms["Rb87"], "6P3/2", 0.0)


def test_lines_zero_field_groups(atoms):
    iso = atoms["Rb87"]
    g = diagonalize(build_hamiltonian(iso, "5S1/2", 0.0))
    e = diagonalize(build_hamiltonian(iso, "5P1/2", 0.0))
    lines = transition_lines(g, e, "sigma+", iso)
    freqs = np.sort(lines.frequency_hz)
    groups = np.split(freqs, np.where(np.diff(freqs) > 1e6)[0] + 1)
    assert len(groups) == 4  # F = 1,2 -> F' = 1,2


def test_line_selection_rules(atoms):
    iso = atoms["Rb85"]
    g = diagonalize(build_hamiltonian(iso, "5S1/2", 17e-3))
    e = diagonalize(build_hamiltonian(iso, "5P1/2", 17e-3))
    for pol, dm in (("sigma+", 1), ("sigma-", -1), ("pi", 0)):
        lines = transition_lines(g, e, pol, iso)
        assert len(lines) > 0
        assert np.all(lines.strength >= 0)
        assert e.m_f[lines.upper] - g.m_f[lines.lower] == pytest.approx(np.full(len(lines), dm))


def test_strength_sum_rule_field_independent(atoms):
    iso = atoms["Rb85"]
    totals = []
    for b in (0.0, 7e-3, 23e-3, 58e-3):
        g = diagonalize(build_hamiltonian(iso, "5S1/2", b))
        e = diagonalize(build_hamiltonian(iso, "5P1/2", b))
        per_ground = np.zeros(g.dim)
        for pol in ("sigma+", "sigma-", "pi"):
            lines = transition_lines(g, e, pol, iso, strength_cut=0.0)
            np.add.at(per_ground, lines.lower, lines.strength)
        totals.append(per_ground)
        # each ground state radiates the same total strength 1/(2J+1)
        assert np.allclose(per_ground, 0.5, rtol=1e-9)
    assert np.allclose(totals[0], totals[-1], rtol=1e-9)


def test_line_count_conserved(atoms):
    iso = atoms["Rb87"]
    counts = []
    for b in (1e-3, 14e-3, 58e-3):
        g = diagonalize(build_hamiltonian(iso, "5S1/2", b))
        e = diagonalize(build_hamiltonian(iso, "5P1/2", b))
        n = sum(
            len(transition_lines(g, e, pol, iso, strength_cut=1e-9))
            for pol in ("sigma+", "sigma-", "pi")
        )
        counts.append(n)
    assert len(set(counts)) == 1


def test_sigma_minus_group_moves_red_at_high_field(atoms):
    """The strongest sigma- lines out of the upper ground level shift toward
    lower frequency as the field grows (they approach a red-detuned probe)."""
    iso = atoms["Rb85"]

    def mean_freq(b):
        g = diagonalize(build_hamiltonian(iso, "5S1/2", b))
        e = diagonalize(build_hamiltonian(iso, "5P1/2", b))
        lines = transition_lines(g, e, "sigma-", iso)
        upper_f = iso.nuclear_spin + 0.5
        sel = g.f_labels[lines.lower] == upper_f
        w = lines.strength[sel]
        f = lines.frequency_hz[sel]
        return (w * f).sum() / w.sum()

    lo = min(mean_freq(58e-3), mean_freq(0.0))
    assert mean_freq(58e-3) < mean_freq(0.0)
    assert mean_freq(0.0) - mean_freq(58e-3) > 0.2e9


def _retuned(atoms):
    """The same isotope names with other constants: A scaled by 1.1 in Rb85,
    and a negative excited-state A in Rb87, which puts F' = 1 above F' = 2."""
    from dataclasses import replace

    scale = {"Rb85": {"5S1/2": 1.1, "5P1/2": 1.1}, "Rb87": {"5P1/2": -1.0}}
    isotopes = {
        name: replace(iso, manifolds={
            label: replace(con, A_hfs_hz=con.A_hfs_hz * scale[name].get(label, 1.0))
            for label, con in iso.manifolds.items()
        })
        for name, iso in atoms.isotopes.items()
    }
    return AtomLibrary(isotopes=isotopes, vapor_pressure=atoms.vapor_pressure)


def test_lines_match_blockwise_kernel(atoms):
    """all_lines_for_cell and its spectra equal the per-block, per-line oracle.

    The user library keeps the isotope names but not the constants, so a
    cache of field-independent operators keyed on the name fails here.
    """
    fractions = {"Rb85": 0.5, "Rb87": 0.5}
    for lib in (atoms, _retuned(atoms)):
        for b in (0.0, 1e-3, 23.7e-3, 58e-3):
            lines = all_lines_for_cell(lib, fractions, b)
            for name, k in (("Rb85", 0), ("Rb87", 1)):
                iso = lib[name]
                spectra = [
                    diagonalize(build_hamiltonian(iso, label, b)) for label in ("5S1/2", "5P1/2")
                ]
                for pol in ("sigma+", "sigma-"):
                    labels_g, labels_e, expected = blockwise_lines(iso, b, pol)
                    for spec, (m_f, f_labels) in zip(spectra, (labels_g, labels_e)):
                        assert np.array_equal(spec.m_f, m_f)
                        assert np.array_equal(spec.f_labels, f_labels)
                    got = lines[pol][k]
                    assert got.isotope == name and got.polarization == pol
                    lower, upper, freq, strength = map(np.array, zip(*expected))
                    assert np.array_equal(got.lower, lower)
                    assert np.array_equal(got.upper, upper)
                    np.testing.assert_allclose(got.frequency_hz, freq, rtol=1e-12, atol=0)
                    np.testing.assert_allclose(got.strength, strength, rtol=1e-12, atol=0)


def test_mismatched_fields_rejected(atoms):
    iso = atoms["Rb87"]
    g = diagonalize(build_hamiltonian(iso, "5S1/2", 1e-3))
    e = diagonalize(build_hamiltonian(iso, "5P1/2", 2e-3))
    with pytest.raises(ConfigError, match="field"):
        transition_lines(g, e, "sigma+", iso)


def test_constants_internally_consistent(atoms):
    """Shipped linewidth and dipole element agree through the decay formula."""
    from scipy.constants import c, epsilon_0, hbar, pi

    for iso in atoms.isotopes.values():
        omega = 2 * pi * iso.d1_frequency_hz
        d_sq = 2.0 * iso.reduced_dipole_cm**2  # (2J+1) |<J||er||J'>|^2
        gamma = omega**3 * d_sq / (3 * pi * epsilon_0 * hbar * c**3 * 2.0)
        assert gamma / (2 * pi) == pytest.approx(iso.natural_fwhm_hz, rel=5e-3)


def test_abundances_sum_to_one(atoms):
    assert sum(i.abundance for i in atoms.isotopes.values()) == pytest.approx(1.0, abs=1e-12)


def test_atom_data_override(tmp_path, atoms):
    import yaml

    path = tmp_path / "atoms.yaml"
    with open("/dev/null", "w"):
        pass
    from importlib import resources

    text = resources.files("atompairs.data").joinpath("rb_d1.yaml").read_text()
    payload = yaml.safe_load(text)
    payload["isotopes"]["Rb85"]["abundance"] = 0.5
    payload["isotopes"]["Rb87"]["abundance"] = 0.5
    path.write_text(yaml.safe_dump(payload))
    lib = load_atom_data(path)
    assert lib["Rb85"].abundance == 0.5


@given(b=st.floats(min_value=0.0, max_value=60e-3))
@settings(max_examples=20)
def test_hermiticity_and_psd_spectrum_properties(b):
    atoms = load_atom_data()
    ham = build_hamiltonian(atoms["Rb85"], "5P1/2", b)
    assert np.abs(ham.matrix_hz - ham.matrix_hz.conj().T).max() < 1e-6
    spec = diagonalize(ham)
    assert np.all(np.diff(spec.energies_hz) >= -1e-6)
