import numpy as np
import pytest

from scipy.constants import c as C_LIGHT

from atompairs.errors import ConfigError, ResolutionError
from atompairs.noon import circular_jones
from atompairs.vapor import (
    VaporCellConfig,
    VaporPath,
    _check_resolution,
    blocking_cell_transmission,
    make_frequency_grid,
    number_density,
)

from reference import hilbert_transform, steck_rb_number_density


def natural_cell(atoms, temp_k=300.0, length_m=0.10, buffer_mhz=0.0):
    return VaporCellConfig(
        length_m=length_m,
        temperature_k=temp_k,
        isotope_fractions=atoms.natural_fractions(),
        buffer_fwhm_hz=buffer_mhz * 1e6,
    )


# ------------------------------------------------------------- number density


def test_density_at_338k_matches_quoted_value(atoms):
    n_cm3 = number_density(338.15, atoms) / 1e6
    assert 5e11 / 1.5 < n_cm3 < 5e11 * 1.5


@pytest.mark.parametrize("temp_k", [280.0, 300.0, 343.15, 400.0])
def test_density_follows_steck_alcock_fit(atoms, temp_k):
    # both phases of the fit; 343.15 K is the sensing cell (criterion 8)
    assert number_density(temp_k, atoms) == pytest.approx(
        steck_rb_number_density(temp_k), rel=1e-6
    )


# Steck rev. 2.3.3, 5P1/2 decay rate and vacuum wavelength of the D1 line
# (the same to 1e-6 for both isotopes)
STECK_D1_GAMMA_PER_S = 36.129e6
STECK_D1_WAVELENGTH_M = 794.979e-9


@pytest.mark.parametrize("isotope", ["Rb85", "Rb87"])
def test_integrated_absorption_per_atom_is_lambda_sq_gamma_over_8pi(atoms, isotope):
    # Each circular polarization on an unpolarized J = 1/2 -> J' = 1/2 line
    # absorbs int sigma(nu) dnu = lambda^2 Gamma / 8 pi per atom. This pins
    # the dipole strength, line strengths and profile normalization that
    # set the size of the Faraday rotation.
    cell = VaporCellConfig(length_m=0.10, temperature_k=300.0, isotope_fractions={isotope: 1.0})
    path = VaporPath(atoms, cell, 0.0, slices=1)
    nu = atoms[isotope].d1_frequency_hz + np.arange(-50e9, 50e9 + 1.0, 2e6)
    expected = STECK_D1_WAVELENGTH_M**2 * STECK_D1_GAMMA_PER_S / (8 * np.pi)
    for n in path.index_at(nu, 0.0):
        alpha = 4 * np.pi * nu * n.imag / C_LIGHT  # intensity absorption, m^-1
        per_atom = np.trapezoid(alpha, nu) / path.density_m3
        # the +-50 GHz window misses 3.7e-5 of the Lorentzian wings
        assert per_atom == pytest.approx(expected, rel=1e-4)


def test_density_monotone(atoms):
    temps = np.linspace(260.0, 440.0, 50)
    dens = [number_density(t, atoms) for t in temps]
    assert np.all(np.diff(dens) > 0)


def test_density_range_check(atoms):
    with pytest.raises(ConfigError):
        number_density(200.0, atoms)
    with pytest.raises(ConfigError):
        number_density(460.0, atoms)


def test_partial_density_linear_in_fraction(atoms):
    # doubling an isotope fraction doubles that isotope's contribution:
    # absorption depth scales accordingly on an isolated line
    grid = np.array([atoms["Rb87"].d1_frequency_hz - 2.56e9])
    cells = []
    for f87 in (0.2, 0.4):
        cells.append(
            VaporCellConfig(
                length_m=0.10,
                temperature_k=300.0,
                isotope_fractions={"Rb85": 1 - f87, "Rb87": f87},
            )
        )
    ods = []
    for cell in cells:
        path = VaporPath(atoms, cell, 0.0, slices=1)
        arrays = path._arrays_for_field(0.0)["sigma+"]
        chi = arrays.susceptibility(grid)
        ods.append(chi.imag[0])
    # 87Rb dominates at its own line; the 85Rb wing offsets exact doubling
    assert ods[1] / ods[0] == pytest.approx(2.0, rel=0.15)


# ------------------------------------------------------------- complex index


def test_far_detuned_index_is_vacuum(atoms):
    cell = natural_cell(atoms)
    path = VaporPath(atoms, cell, 0.0, slices=1)
    n_plus, n_minus = path.index_at(np.array([atoms.d1_center_hz() + 1.2e12]), 0.0)
    assert abs(n_plus[0] - 1.0) < 1e-9
    assert abs(n_minus[0] - 1.0) < 1e-9


def test_index_passivity(atoms, d1_center):
    cell = natural_cell(atoms, temp_k=330.0)
    path = VaporPath(atoms, cell, 6e-3, slices=1)
    grid = make_frequency_grid(d1_center, 6e9, 10e6)
    n_plus, n_minus = path.index_at(grid, 6e-3)
    assert n_plus.imag.min() > -1e-15
    assert n_minus.imag.min() > -1e-15


def test_absorption_dips_300k_four_groups(atoms, fadof_grid):
    cell = natural_cell(atoms, temp_k=300.0)
    t = blocking_cell_transmission(cell, 0.5e6, atoms)
    trans = t(fadof_grid)
    dips = trans < 0.9
    # count connected below-threshold regions
    starts = np.sum(dips[1:] & ~dips[:-1]) + int(dips[0])
    assert starts == 4


def test_absorption_365k_three_opaque_regions(atoms, fadof_grid):
    cell = natural_cell(atoms, temp_k=365.0)
    t = blocking_cell_transmission(cell, 0.5e6, atoms)
    opaque = t(fadof_grid) < 1e-3
    starts = np.sum(opaque[1:] & ~opaque[:-1]) + int(opaque[0])
    assert starts == 3


def test_complex_index_grid_resolution_guard(atoms, d1_center):
    cell = natural_cell(atoms)
    path = VaporPath(atoms, cell, 0.0, slices=1)
    coarse = make_frequency_grid(d1_center, 4e9, 5e6)
    with pytest.raises(ResolutionError) as err:
        _check_resolution(coarse, path.min_feature_width_hz())
    assert err.value.required_hz < 5e6
    fine = make_frequency_grid(d1_center, 0.1e9, 0.5e6)
    _check_resolution(fine, path.min_feature_width_hz())
    n_plus, _ = path.index_at(fine, 0.0)
    assert n_plus.shape == fine.shape


def test_kramers_kronig_consistency_single_line(atoms):
    """Dispersion of one isolated Voigt line equals the Hilbert transform of
    its absorption to 1e-3 relative."""
    from atompairs.faddeeva import voigt_profile_complex

    spacing = 1e6
    delta = np.arange(-60e9, 60e9, spacing)
    prof = voigt_profile_complex(delta, 6e6, 300e6)
    disp_numeric = hilbert_transform(prof.real, spacing)
    scale = np.abs(prof.imag).max()
    mask = np.abs(delta) < 3e9
    assert np.abs(disp_numeric[mask] - prof.imag[mask]).max() < 1e-3 * scale


# -------------------------------------------------------------- cell transfer


def test_zero_field_no_rotation(atoms, d1_center):
    cell = natural_cell(atoms, temp_k=320.0)
    path = VaporPath(atoms, cell, 0.0, slices=1)
    grid = make_frequency_grid(d1_center, 4e9, 50e6)
    t_plus, t_minus = path.transfer_at(grid)
    assert np.abs(t_plus - t_minus).max() < 1e-12
    assert np.abs(path.rotation_angle_at(grid)).max() < 1e-12


def test_rotation_linear_in_length(atoms, d1_center):
    nu = np.array([d1_center + 2.8e9])
    thetas = []
    for length in (0.05, 0.10):
        cell = VaporCellConfig(
            length_m=length,
            temperature_k=330.0,
            isotope_fractions=atoms.natural_fractions(),
        )
        path = VaporPath(atoms, cell, 4.5e-3, slices=1)
        thetas.append(path.rotation_angle_at(nu)[0])
    assert thetas[1] == pytest.approx(2.0 * thetas[0], rel=1e-9)


def test_cell_transfer_slice_convergence(atoms, sensing_cell, noon_line_hz):
    nu = np.array([noon_line_hz])
    out = {}
    for slices in (16, 32):
        path = VaporPath(atoms, sensing_cell, 40e-3, slices=slices)
        t_plus, t_minus = path.transfer_at(nu)
        out[slices] = np.array([t_plus[0], t_minus[0]])
    assert np.abs(out[16] - out[32]).max() < 1e-6


def test_cell_transfer_passivity_random_configs(atoms, d1_center):
    rng = np.random.default_rng(3)
    grid = make_frequency_grid(d1_center, 5e9, 100e6)
    for _ in range(5):
        cell = VaporCellConfig(
            length_m=rng.uniform(0.02, 0.15),
            temperature_k=rng.uniform(293.0, 400.0),
            isotope_fractions=atoms.natural_fractions(),
            droop_fraction=rng.uniform(0.0, 0.3),
            field_profile="quadratic",
        )
        path = VaporPath(atoms, cell, rng.uniform(0.0, 60e-3), slices=4)
        t_plus, t_minus = path.transfer_at(grid)
        assert np.abs(t_plus).max() <= 1.0 + 1e-12
        assert np.abs(t_minus).max() <= 1.0 + 1e-12


def test_cell_transfer_op_matches_path_and_closed_form(atoms, d1_center):
    """With slices=1 on a uniform cell the transfer equals the closed form."""
    cell = natural_cell(atoms, temp_k=330.0)
    grid = make_frequency_grid(d1_center, 0.5e9, 0.5e6)
    path = VaporPath(atoms, cell, 5e-3, slices=1)
    n_plus, n_minus = path.index_at(grid, 5e-3)
    k_vac = 2j * np.pi * grid / C_LIGHT
    t_plus, t_minus = path.transfer_at(grid)
    assert np.allclose(np.exp(k_vac * (n_plus - 1.0) * cell.length_m), t_plus)
    assert np.allclose(np.exp(k_vac * (n_minus - 1.0) * cell.length_m), t_minus)
    # jones at a grid point is diagonal in the circular basis
    j = circular_jones(t_plus[10], t_minus[10])
    v = np.array([[1.0, 1.0], [1j, -1j]]) / np.sqrt(2)
    d = v.conj().T @ j @ v
    assert abs(d[0, 1]) < 1e-14 and abs(d[1, 0]) < 1e-14


def test_transfer_rejects_gain(atoms, monkeypatch):
    path = VaporPath(atoms, natural_cell(atoms), 0.0, slices=1)
    gain_medium = np.array([1.0 - 1e-6j, 1.0 + 1e-6j])  # Im n < 0 amplifies
    monkeypatch.setattr(path, "index_at", lambda nu, b: (gain_medium, gain_medium))
    with pytest.raises(ValueError, match="gain"):
        path.transfer_at(np.array([1e14, 1.0001e14]))


def _count_index_calls(path, monkeypatch):
    calls = []
    index_at = path.index_at

    def counted(nu_hz, b_t):
        calls.append(b_t)
        return index_at(nu_hz, b_t)

    monkeypatch.setattr(path, "index_at", counted)
    return calls


def test_each_distinct_slice_field_is_evaluated_once(atoms, sensing_cell, noon_line_hz, monkeypatch):
    nu = np.array([noon_line_hz])
    droop = VaporPath(atoms, sensing_cell, 40e-3, slices=16)
    calls = _count_index_calls(droop, monkeypatch)
    droop.transfer_at(nu)
    # 32 Gauss nodes pair up as mirror images about the cell center
    assert len(calls) == 16 and len(set(calls)) == 16
    droop.rotation_angle_at(nu)
    assert len(calls) == 16  # same frequencies: the propagation is reused
    droop.transfer_at(nu + 1e6)
    assert len(calls) == 32

    uniform = VaporPath(atoms, natural_cell(atoms), 5e-3, slices=16)
    calls = _count_index_calls(uniform, monkeypatch)
    uniform.transfer_at(nu)
    assert calls == [5e-3]


def test_field_independent_work_happens_once(atoms, sensing_cell, noon_line_hz, monkeypatch):
    """A 101-field scan evaluates each dipole element once, not once per field."""
    from atompairs import atoms as atoms_module
    from atompairs.noon import make_noon_from_pair, sensing_scan

    calls = []
    wigner_3j = atoms_module.wigner_3j

    def counted(*args):
        calls.append(args)
        return wigner_3j(*args)

    monkeypatch.setattr(atoms_module, "wigner_3j", counted)
    atoms_module._dipole_block.cache_clear()
    b_list = np.linspace(0.0, 50e-3, 101)
    sensing_scan(make_noon_from_pair(imbalance=0.15), sensing_cell, atoms, noon_line_hz, b_list)
    # one _dipole_block per (J_g, J_e, I, q): 12 elements for Rb85 and 8 for
    # Rb87 over sigma+ and sigma-
    assert 0 < len(calls) <= 20


def test_grouped_fields_match_per_node_sum(atoms, sensing_cell, d1_center):
    """(t+, t-, theta) equal the sum over every Gauss node taken one by one."""
    grid = make_frequency_grid(d1_center, 4e9, 20e6)
    for cell in (sensing_cell, natural_cell(atoms, temp_k=330.0)):
        path = VaporPath(atoms, cell, 37e-3, slices=16)
        dz = cell.length_m / path.slices
        mids = (np.arange(path.slices) + 0.5) * dz
        offset = 0.5 * dz / np.sqrt(3.0)
        nodes = np.sort(np.concatenate([mids - offset, mids + offset]))
        log_tp = np.zeros(grid.shape, dtype=complex)
        log_tm = np.zeros(grid.shape, dtype=complex)
        theta = np.zeros(grid.shape)
        k_vac = 2j * np.pi * grid / C_LIGHT
        for b in cell.field_at(nodes, 37e-3):
            n_plus, n_minus = path.index_at(grid, b)
            log_tp += k_vac * (n_plus - 1.0) * cell.length_m / nodes.size
            log_tm += k_vac * (n_minus - 1.0) * cell.length_m / nodes.size
            theta += np.pi * grid * (n_plus.real - n_minus.real) / C_LIGHT * cell.length_m / nodes.size
        t_plus, t_minus = path.transfer_at(grid)
        assert np.abs(t_plus - np.exp(log_tp)).max() <= 1e-12
        assert np.abs(t_minus - np.exp(log_tm)).max() <= 1e-12
        assert np.abs(path.rotation_angle_at(grid) - theta).max() <= 1e-12


def test_sensing_cell_rotation_grows_and_transmits(atoms, sensing_cell, noon_line_hz):
    """Rotation grows nonlinearly with B and transmission stays above 0.5
    until the 50 mT absorption onset."""
    nu = np.array([noon_line_hz])
    theta, trans = [], []
    fields = np.array([10e-3, 25e-3, 37e-3, 49e-3])
    for b in fields:
        path = VaporPath(atoms, sensing_cell, b, slices=8)
        theta.append(abs(path.rotation_angle_at(nu)[0]))
        t_plus, t_minus = path.transfer_at(nu)
        trans.append(0.5 * (abs(t_plus[0]) ** 2 + abs(t_minus[0]) ** 2))
    theta = np.array(theta)
    assert np.all(np.diff(theta) > 0)
    # superlinear growth: incremental slope increases
    slopes = np.diff(theta) / np.diff(fields)
    assert slopes[-1] > 1.5 * slopes[0]
    assert min(trans) > 0.5


# -------------------------------------------------------------- blocking cell


def test_hot_cell_blocks_filter_passband(atoms, fadof_main):
    hot = natural_cell(atoms, temp_k=390.0, buffer_mhz=178.0)
    t = blocking_cell_transmission(hot, 2e6, atoms)
    # opaque across the main transmission peak (half-maximum region)
    peak_idx = int(np.argmax(fadof_main.transmission))
    t_max = fadof_main.transmission[peak_idx]
    region = fadof_main.grid_hz[fadof_main.transmission > 0.5 * t_max]
    assert t(region).max() < 1e-3


def test_cold_cell_transparent_at_operating_point(atoms, fadof_main):
    cold = natural_cell(atoms, temp_k=295.0, buffer_mhz=178.0)
    t = blocking_cell_transmission(cold, 2e6, atoms)
    nu0 = fadof_main.grid_hz[int(np.argmax(fadof_main.transmission))]
    assert t(np.array([nu0]))[0] > 0.9


def test_blocking_transmission_bounded(atoms, d1_center):
    hot = natural_cell(atoms, temp_k=380.0, buffer_mhz=178.0)
    grid = make_frequency_grid(d1_center, 6e9, 5e6)
    t = blocking_cell_transmission(hot, 5e6, atoms)
    assert np.all(t(grid) > 0.0)
    assert np.all(t(grid) <= 1.0)


def test_blocking_cell_checks_the_spacing(atoms):
    cold = natural_cell(atoms, temp_k=295.0)
    with pytest.raises(ResolutionError):
        blocking_cell_transmission(cold, 5e6, atoms)
    with pytest.raises(ConfigError):
        blocking_cell_transmission(cold, 0.0, atoms)


def test_spectroscopy_broadening_monotone_in_field(atoms, sensing_cell):
    """Second moment of the absorption grows with field at every cell
    temperature (the curves broaden in field order)."""

    center = atoms.d1_center_hz()
    grid = make_frequency_grid(center, 5e9, 25e6)  # coarse probe of widths
    from dataclasses import replace

    for temp_c in (22.0, 53.0, 83.0):
        widths = []
        cell = replace(sensing_cell, temperature_k=temp_c + 273.15)
        for b_mt in (0.0, 12.0, 24.0, 37.0, 49.0, 58.0):
            path = VaporPath(atoms, cell, b_mt * 1e-3, slices=4)
            t_plus, t_minus = path.transfer_at(grid)
            absorb = 1.0 - 0.5 * (np.abs(t_plus) ** 2 + np.abs(t_minus) ** 2)
            mu = (grid * absorb).sum() / absorb.sum()
            widths.append(np.sqrt(((grid - mu) ** 2 * absorb).sum() / absorb.sum()))
        assert np.all(np.diff(widths) > 0), f"not monotone at {temp_c} C: {widths}"


@pytest.mark.parametrize("half_span_hz, spacing_hz", [(1e9, 0.0), (1e9, -1e6), (-1e9, 1e6)])
def test_frequency_grid_rejects_bad_steps(half_span_hz, spacing_hz):
    with pytest.raises(ConfigError):
        make_frequency_grid(377e12, half_span_hz, spacing_hz)
