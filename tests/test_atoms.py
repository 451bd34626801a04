import json
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atompairs.atoms import (
    AtomLibrary,
    all_lines_for_cell,
    build_hamiltonian,
    diagonalize,
    lines_at_fields,
    load_atom_data,
    transition_lines,
)
from atompairs.errors import ConfigError
from atompairs.wigner import spin_matrices, wigner_3j

from reference import (
    basis_m_f,
    blockwise_lines,
    breit_rabi_energies,
    dense_hamiltonian,
    dense_lines,
    dense_operators,
    dense_spectrum,
    dipole_matrix,
    m_f_blocks,
)


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
    """Levels within 8 ulp of the manifold's largest |E| of the Breit-Rabi
    formula, and within 1e-9 (I + 1/2) A, at B = 0 and 100 random fields up
    to 60 mT."""
    rng = np.random.default_rng(42)
    fields = np.concatenate([[0.0], rng.uniform(0.0, 60e-3, size=100)])
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
                bound = min(8 * np.spacing(np.abs(exact).max()), 1e-9 * scale)
                assert np.abs(numeric - exact).max() <= bound


def test_diagonalize_identity_scaled(atoms):
    from atompairs.atoms import ManifoldHamiltonian, _block_layout, product_basis

    basis = tuple(product_basis(1.5))
    layout = _block_layout(basis)
    ham = ManifoldHamiltonian(
        isotope="Rb87",
        manifold="5S1/2",
        I=1.5,
        basis=basis,
        field_t=0.0,
        constants=atoms["Rb87"].manifold("5S1/2"),
        # 3e9 on the diagonal entries, 0 on the off-diagonal ones
        block_entries_hz=3.0e9 * (layout.entry_rows == layout.entry_cols),
    )
    assert np.array_equal(ham.matrix_hz, 3.0e9 * np.eye(8))
    spec = diagonalize(ham)
    assert np.allclose(spec.energies_hz, 3.0e9)
    # columns are basis vectors (a permutation of the identity: levels of
    # bitwise-equal energy, as all eight are here, are ordered by m_F)
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


def _by_label(lines, labels_g, labels_e):
    """Lines (lower, upper, frequency, strength) with each level renamed by
    its rank in (F, m_F) order, sorted by those names: a level's name at
    B = 0, whatever order its degenerate F level comes out in."""
    lower, upper, freq, strength = lines
    rank_g, rank_e = (np.argsort(np.lexsort(labels)) for labels in (labels_g, labels_e))
    lower, upper = rank_g[lower], rank_e[upper]
    order = np.lexsort((upper, lower))
    return lower[order], upper[order], freq[order], strength[order]


def test_lines_match_blockwise_kernel(atoms):
    """all_lines_for_cell and its spectra equal the per-block, per-line oracle.

    At B = 0 the levels of one F are degenerate and the two solvers round
    them into different orders, so there the levels and lines are compared
    by their (F, m_F) labels; at every other field, in order.

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
                labels = [(spec.m_f, spec.f_labels) for spec in spectra]
                for pol in ("sigma+", "sigma-"):
                    labels_g, labels_e, expected = blockwise_lines(iso, b, pol)
                    for (m_f, f_labels), (want_m_f, want_f_labels) in zip(labels, (labels_g, labels_e)):
                        assert np.array_equal(f_labels, want_f_labels)
                        if b == 0:  # the same m_F in each F level, in any order
                            m_f, want_m_f = (x[np.lexsort((x, f_labels))] for x in (m_f, want_m_f))
                        assert np.array_equal(m_f, want_m_f)
                    got = lines[pol][k]
                    assert got.isotope == name and got.polarization == pol
                    want = tuple(map(np.array, zip(*expected)))
                    have = (got.lower, got.upper, got.frequency_hz, got.strength)
                    if b == 0:
                        want, have = _by_label(want, labels_g, labels_e), _by_label(have, *labels)
                    assert np.array_equal(have[0], want[0])
                    assert np.array_equal(have[1], want[1])
                    np.testing.assert_allclose(have[2], want[2], rtol=1e-12, atol=0)
                    np.testing.assert_allclose(have[3], want[3], rtol=1e-12, atol=0)


def test_lines_at_fields_rows_equal_all_lines_for_cell(atoms):
    """Each field's rows of the batched kernel are the one-field call, exactly."""
    fractions = {"Rb85": 0.5, "Rb87": 0.5}
    fields = np.array([0.0, 1e-3, 23.7e-3, 58e-3, 1e-3])
    for lib in (atoms, _retuned(atoms)):
        batched = lines_at_fields(lib, fractions, fields)
        for k, b in enumerate(fields):
            one = all_lines_for_cell(lib, fractions, b)
            for pol in ("sigma+", "sigma-"):
                for got, want in zip(batched[pol], one[pol], strict=True):
                    rows = got.field == k
                    assert np.array_equal(want.field, np.zeros(len(want), dtype=int))
                    for name in ("lower", "upper", "frequency_hz", "strength", "dipole_sq"):
                        assert np.array_equal(getattr(got, name)[rows], getattr(want, name))
                    assert (got.isotope, got.population) == (want.isotope, want.population)


def test_stacked_checks_hold_field_by_field(atoms):
    """B >= 0 and finite for every field of a stack, not only the first."""
    iso = atoms["Rb87"]
    for bad in ([1e-3, -1e-3], [1e-3, np.nan], [np.inf], np.nan):
        with pytest.raises(ConfigError, match="field"):
            build_hamiltonian(iso, "5S1/2", bad)


def test_mismatched_fields_rejected(atoms):
    iso = atoms["Rb87"]
    g = diagonalize(build_hamiltonian(iso, "5S1/2", 1e-3))
    e = diagonalize(build_hamiltonian(iso, "5P1/2", 2e-3))
    with pytest.raises(ConfigError, match="field"):
        transition_lines(g, e, "sigma+", iso)


def test_pinned_constants_are_scipys_codata_bit_for_bit():
    """The package states its physical constants as literals; scipy is their
    oracle, at the CODATA release that scipy ships."""
    from scipy.constants import c, epsilon_0, hbar, k, physical_constants

    from atompairs import atoms, vapor

    assert atoms.MU_B_HZ_PER_T == physical_constants["Bohr magneton in Hz/T"][0]
    assert (vapor.C_LIGHT, vapor.EPSILON_0, vapor.HBAR, vapor.K_B) == (c, epsilon_0, hbar, k)


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


def _shipped_payload() -> dict:
    return json.loads(resources.files("atompairs.data").joinpath("rb_d1.json").read_text())


@pytest.mark.parametrize("suffix, dump", [("yaml", yaml.safe_dump), ("json", json.dumps)], ids=["yaml", "json"])
def test_atom_data_override(tmp_path, atoms, suffix, dump):
    """A user's YAML or JSON file gives the shipped library with only the two
    abundances changed."""
    payload = _shipped_payload()
    payload["isotopes"]["Rb85"]["abundance"] = 0.5
    payload["isotopes"]["Rb87"]["abundance"] = 0.5
    path = tmp_path / f"atoms.{suffix}"
    path.write_text(dump(payload))
    expected = {name: replace(iso, abundance=0.5) for name, iso in atoms.isotopes.items()}
    assert load_atom_data(path) == replace(atoms, isotopes=expected)


@given(b=st.floats(min_value=0.0, max_value=60e-3))
@settings(max_examples=20)
def test_hermiticity_and_psd_spectrum_properties(b):
    atoms = load_atom_data()
    ham = build_hamiltonian(atoms["Rb85"], "5P1/2", b)
    assert np.abs(ham.matrix_hz - ham.matrix_hz.conj().T).max() < 1e-6
    spec = diagonalize(ham)
    assert np.all(np.diff(spec.energies_hz) >= -1e-6)


D1_MANIFOLDS = [(name, label) for name in ("Rb85", "Rb87") for label in ("5S1/2", "5P1/2")]
SCAN_FIELDS = np.linspace(0.0, 60e-3, 1201)  # B = 0 included


def _dense(iso, label, fields):
    con = iso.manifold(label)
    h = dense_hamiltonian(con, iso.nuclear_spin, iso.g_I, fields)
    m_f = build_hamiltonian(iso, label, 0.0).m_f()
    return dense_spectrum(h, m_f, 0.5, iso.nuclear_spin, con.A_hfs_hz)


@pytest.mark.parametrize("name, label", D1_MANIFOLDS)
def test_block_solver_equals_eigh_on_every_d1_block(atoms, name, label):
    """Every 2x2 m_F block of the four D1 manifolds, at 1,201 fields from 0 to
    60 mT, of the Kronecker-product oracle's matrices solves to eigh's levels
    within 8 ulp of the block's largest and to its |eigenvector| components
    within 1e-15, and so does the whole spectrum to the stacked-eigh
    kernel's; ``matrix_hz`` is the oracle's matrix.

    The levels come out in the oracle's order, with its m_F and F labels, at
    every B > 0.  At B = 0 the levels of one F are degenerate and their
    order follows rounding, so there each F level holds the same m_F."""
    from atompairs.atoms import _block_layout, _solve_2x2

    iso = atoms[name]
    ham = build_hamiltonian(iso, label, SCAN_FIELDS)
    h = dense_hamiltonian(iso.manifold(label), iso.nuclear_spin, iso.g_I, SCAN_FIELDS)
    assert np.array_equal(ham.matrix_hz, h)
    layout = _block_layout(ham.basis)
    # the v00 and v10 components of the 2x2 blocks sit on their two basis rows
    r0, r1 = layout.vector_rows[layout.singles :].reshape(4, -1)[:2]
    assert r0.size > 0
    for rows in zip(r0, r1):
        block = h[:, rows][:, :, rows]
        want_w, want_v = np.linalg.eigh(block)
        (w0, w1), (v00, v10, v01, v11) = _solve_2x2(block[:, 0, 0], block[:, 1, 0], block[:, 1, 1])
        ulp = np.spacing(np.abs(want_w).max(-1, keepdims=True))
        assert np.all(np.abs(np.stack([w0, w1], -1) - want_w) <= 8 * ulp)
        got_v = np.stack([np.stack([v00, v01], -1), np.stack([v10, v11], -1)], -2)
        assert np.abs(np.abs(got_v) - np.abs(want_v)).max() <= 1e-15
    spec = diagonalize(ham)
    v, w = spec.eigenvectors, spec.energies_hz
    scale = np.abs(h).max()
    assert np.abs(h @ v - v * w[:, None, :]).max() <= 1e-13 * scale
    assert np.abs(v.swapaxes(-1, -2) @ v - np.eye(ham.dim)).max() <= 1e-14
    energies, vectors, m_f, f_labels = _dense(iso, label, SCAN_FIELDS)
    ulp = np.spacing(np.abs(energies).max(-1, keepdims=True))
    assert np.all(np.abs(spec.energies_hz - energies) <= 8 * ulp)
    assert np.array_equal(spec.f_labels, f_labels)
    assert SCAN_FIELDS[0] == 0 and np.all(SCAN_FIELDS[1:] > 0)
    assert np.abs(np.abs(spec.eigenvectors[1:]) - np.abs(vectors[1:])).max() <= 1e-15
    assert np.array_equal(spec.m_f[1:], m_f[1:])
    for f in np.unique(f_labels[0]):
        level = f_labels[0] == f
        assert np.array_equal(np.sort(spec.m_f[0][level]), np.sort(m_f[0][level]))


@st.composite
def symmetric_2x2(draw):
    """[[a, b], [b, c]] of integers scaled by a power of two, so that the
    edge cases a = c (mixing angle +-pi/4), b = 0 (0 or pi/2), a + c = 0 and
    |a - c| = |2b| are exact."""
    scale = 2.0 ** draw(st.integers(-60, 60))
    a = draw(st.integers(-(2**20), 2**20))
    b = draw(st.one_of(st.just(0), st.integers(-(2**20), 2**20)))
    relation = draw(st.sampled_from(["free", "a", "-a", "a-2b", "a+2b"]))
    if relation == "free":
        c = draw(st.integers(-(2**20), 2**20))
    else:
        c = {"a": a, "-a": -a, "a-2b": a - 2 * b, "a+2b": a + 2 * b}[relation]
    return a * scale, b * scale, c * scale


@given(abc=symmetric_2x2())
@example(abc=(3.0, 1.0, 3.0))  # a = c
@example(abc=(1.0, 0.0, 2.0))  # b = 0
@example(abc=(2.0, 0.0, 1.0))  # b = 0, a > c
@example(abc=(2.0, -0.0, 1.0))  # b = -0
@example(abc=(0.0, 0.0, 0.0))
@example(abc=(-3.0, 1.0, -1.0))  # a + c < 0
@example(abc=(1.0, 1.0, -1.0))  # a + c = 0
@example(abc=(3.0, 1.0, 1.0))  # a + c > 0
@example(abc=(1.0, 2.0, 0.0))  # |a - c| < |2b|
@example(abc=(2.0, 1.0, 0.0))  # |a - c| = |2b|
@example(abc=(5.0, 1.0, 0.0))  # |a - c| > |2b|
@example(abc=(1.0, 1e-13, 1.0e9))  # b negligible next to a and c
@settings(max_examples=200)
def test_block_solver_equals_eigh_in_every_branch(abc):
    """Levels ascending and within 4 ulp of eigh's largest, with a residual
    and an orthonormality error within 1e-15, at every tie."""
    from atompairs.atoms import _solve_2x2

    a, b, c = abc
    m = np.array([[a, b], [b, c]])
    (w0, w1), (v00, v10, v01, v11) = _solve_2x2(*map(np.array, abc))
    w, v = np.array([w0, w1]), np.array([[v00, v01], [v10, v11]])
    assert w0 <= w1
    assert np.abs(m @ v - v * w).max() <= 1e-15 * np.abs(m).max()
    assert np.abs(v.T @ v - np.eye(2)).max() <= 1e-15
    want_w = np.linalg.eigvalsh(m)
    assert np.abs(w - want_w).max() <= 4 * np.spacing(np.abs(want_w).max())


@pytest.mark.parametrize("name", ["Rb85", "Rb87"])
def test_block_amplitudes_equal_the_dense_product(atoms, name):
    """``transition_lines`` and ``lines_at_fields`` give the dense product's
    lines at 1,201 fields from 0 to 60 mT: the same lines, frequencies within
    2 ulp and strengths within 1e-15.  The lines come in the same order at
    every B > 0; at B = 0, where the levels of one F come out in another
    order, they are compared by their levels' (F, m_F) labels."""
    iso = atoms[name]
    dense = [_dense(iso, label, SCAN_FIELDS) for label in ("5S1/2", "5P1/2")]
    spectra = [diagonalize(build_hamiltonian(iso, label, SCAN_FIELDS)) for label in ("5S1/2", "5P1/2")]
    want_labels = [(m_f[0], f_labels[0]) for _, _, m_f, f_labels in dense]
    labels = [(spec.m_f[0], spec.f_labels[0]) for spec in spectra]
    scan = lines_at_fields(atoms, {name: 1.0}, SCAN_FIELDS)
    for pol in ("sigma+", "sigma-", "pi"):
        want = dense_lines(*dense, dipole_matrix(0.5, 0.5, iso.nuclear_spin, pol))
        routes = [transition_lines(*spectra, pol, iso)] + ([] if pol == "pi" else scan[pol])
        at_zero = want[0] == 0
        for got in routes:
            zero = got.field == 0
            assert np.array_equal(got.field[~zero], want[0][~at_zero])
            have = (got.lower, got.upper, got.frequency_hz, got.strength)
            pairs = [
                ([x[~zero] for x in have], [x[~at_zero] for x in want[1:]]),
                (
                    _by_label([x[zero] for x in have], *labels),
                    _by_label([x[at_zero] for x in want[1:]], *want_labels),
                ),
            ]
            for (lower, upper, freq, strength), (want_lower, want_upper, want_freq, want_strength) in pairs:
                assert np.array_equal(lower, want_lower) and np.array_equal(upper, want_upper)
                assert np.all(np.abs(freq - want_freq) <= 2 * np.spacing(want_freq))
                assert np.abs(strength - want_strength).max() <= 1e-15


def _bits(values):
    """Float bits, so that -0.0 and +0.0 differ."""
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("two_i", range(1, 10))
@pytest.mark.parametrize(
    "a_hfs, offset",
    [(3.417e9, 0.0), (-1.2e8, 0.0), (0.0, 0.0), (-0.0, 0.0), (8.16e8, 3.77e14), (-8.16e8, -2.0e9), (2.5e7, -0.0)],
)
def test_closed_form_blocks_equal_the_kronecker_oracle(two_i, a_hfs, offset):
    """The closed-form J = 1/2 block structure, for I = 1/2 ... 9/2: the
    block entries of H0 and Z are the Kronecker-product oracle's at the
    layout's positions as float bits (signed zeros included), and the layout
    and F labels are the oracle's m_F grouping and interval-rule labels."""
    from atompairs.atoms import ManifoldConstants, _block_layout, _block_operators, _f_labels, product_basis

    i_spin = two_i / 2
    layout = _block_layout(product_basis(i_spin))
    rows, cols = layout.entry_rows, layout.entry_cols
    for g_j, g_i in ((2.0023, -2.9e-4), (-0.5, -1.0e-3), (0.666, 0.0)):
        con = ManifoldConstants(label="x", g_J=g_j, A_hfs_hz=a_hfs, offset_hz=offset)
        h0, zeeman = _block_operators(con, i_spin, g_i)
        want_h0, want_zeeman = dense_operators(con, i_spin, g_i)
        assert np.array_equal(_bits(h0), _bits(want_h0[rows, cols]))
        assert np.array_equal(_bits(zeeman), _bits(want_zeeman[rows, cols]))

    blocks = m_f_blocks(basis_m_f(0.5, i_spin), 0.5, i_spin, a_hfs)
    singles = [block for block in blocks if block[1].size == 1]
    pairs = [block for block in blocks if block[1].size == 2]
    assert (layout.singles, layout.pairs) == (len(singles), len(pairs)) == (2, two_i)
    one = [idx[0] for _, idx, _ in singles]
    r0, r1 = ([idx[k] for _, idx, _ in pairs] for k in (0, 1))
    assert np.array_equal(rows, one + r0 + r1 + r1)
    assert np.array_equal(cols, one + r0 + r0 + r1)
    m_f = [m for m, _, _ in singles + pairs + pairs]
    labels = [fs[0] for _, _, fs in singles + pairs] + [fs[1] for _, _, fs in pairs]
    assert np.array_equal(_bits(layout.m_f), _bits(m_f))
    assert np.array_equal(_f_labels(i_spin, a_hfs), labels)


@pytest.mark.parametrize(
    "manifold, change",
    [("5P1/2", {"J": 1.5}), ("5S1/2", {"B_hfs_hz": 1.0e6}), ("5P1/2", {"J": 0.5, "B_hfs_hz": -2.0})],
)
def test_atom_data_refuses_what_the_block_solver_cannot_solve(tmp_path, manifold, change):
    payload = _shipped_payload()
    payload["isotopes"]["Rb87"]["manifolds"][manifold].update(change)
    path = tmp_path / "atoms.yaml"
    path.write_text(yaml.safe_dump(payload))
    with pytest.raises(ConfigError, match=f"Rb87 {manifold}"):
        load_atom_data(path)
