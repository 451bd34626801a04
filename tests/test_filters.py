import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atompairs.errors import ConfigError, CoverageError
from atompairs.filters import (
    FilterSpectrum,
    dichroic_filter,
    fadof_spectrum,
    filter_metrics,
    mirrored_transmission,
)
from atompairs.vapor import VaporCellConfig, make_frequency_grid

from reference import lorentzian_enbw


def test_rectangular_filter_metrics():
    grid = np.linspace(0.0, 10e9, 10001)
    m = filter_metrics(FilterSpectrum(grid, lambda nu: np.where(np.abs(nu - 5e9) < 1e9, 0.8, 0.0)), (3e9, 7e9))
    assert m.t_max == pytest.approx(0.8)
    assert m.fwhm_hz == pytest.approx(2e9, rel=2e-3)
    assert m.enbw_hz == pytest.approx(2e9, rel=2e-3)


def test_lorentzian_enbw_closed_form():
    w = 0.4e9
    grid = np.linspace(-60e9, 60e9, 600001)
    m = filter_metrics(FilterSpectrum(grid, lambda nu: 1.0 / (1.0 + (2 * nu / w) ** 2)), (-3e9, 3e9))
    assert m.fwhm_hz == pytest.approx(w, rel=1e-3)
    assert m.enbw_hz == pytest.approx(lorentzian_enbw(w), rel=1e-2)


def test_metrics_reject_edge_peak():
    grid = np.linspace(0.0, 1e9, 101)
    with pytest.raises(CoverageError):
        filter_metrics(FilterSpectrum(grid, lambda nu: nu / 1e9))


def test_metrics_reject_a_window_that_leaves_no_stopband(fadof_main):
    """``fadof --window-GHz 100`` on the +-8 GHz grid: no point is left to
    measure rejection on, so the metrics refuse rather than report NaN."""
    peak = fadof_main.grid_hz[int(np.argmax(fadof_main.transmission))]
    with pytest.raises(CoverageError, match="stopband"):
        filter_metrics(fadof_main, (peak - 100e9, peak + 100e9))
    edge = max(fadof_main.grid_hz[-1] - peak, peak - fadof_main.grid_hz[0])
    assert np.isfinite(filter_metrics(fadof_main, (peak - edge / 2, peak + edge / 2)).rejection_db)


def test_fadof_zero_field_is_dark(atoms, d1_center):
    cell = VaporCellConfig(
        length_m=0.10, temperature_k=365.0, isotope_fractions=atoms.natural_fractions()
    )
    grid = make_frequency_grid(d1_center, 2e9, 0.5e6)
    spec = fadof_spectrum(cell, 0.0, 1.8e-6, grid, atoms)
    assert spec.transmission.max() <= 1.8e-6 + 1e-12


def test_fadof_main_reproduces_reported_metrics(fadof_main):
    m = filter_metrics(fadof_main)
    assert m.t_max == pytest.approx(0.71, abs=0.08)
    assert m.fwhm_hz == pytest.approx(0.45e9, rel=0.25)
    assert m.enbw_hz == pytest.approx(1.2e9, rel=0.25)


def test_fadof_high_field_row(fadof_hot):
    m = filter_metrics(fadof_hot)
    assert m.t_max == pytest.approx(0.92, abs=0.05)
    assert m.enbw_hz == pytest.approx(2.1e9, rel=0.25)


def test_fadof_peak_between_absorbing_regions(fadof_main):
    """The operating peak sits between two absorption regions; both near
    tails are strongly suppressed (the red one by neighbouring-line
    absorption, which narrows the peak)."""
    m = filter_metrics(fadof_main)
    t_red = fadof_main(np.array([m.peak_hz - 600e6]))[0]
    assert t_red < 0.25 * m.t_max
    t_blue = fadof_main(np.array([m.peak_hz + 600e6]))[0]
    assert t_blue < 0.25 * m.t_max


def test_metrics_stable_under_grid_refinement(atoms, fadof_main, d1_center):
    m1 = filter_metrics(fadof_main)
    # the fine samples at every second grid point, not a new evaluation
    coarse = FilterSpectrum(
        fadof_main.grid_hz[::2], lambda nu: np.interp(nu, fadof_main.grid_hz, fadof_main.transmission)
    )
    m2 = filter_metrics(coarse)
    assert m2.t_max == pytest.approx(m1.t_max, rel=0.02)
    assert m2.fwhm_hz == pytest.approx(m1.fwhm_hz, rel=0.02)
    assert m2.enbw_hz == pytest.approx(m1.enbw_hz, rel=0.02)


def test_transmission_bounds_random_configs(atoms, d1_center):
    rng = np.random.default_rng(5)
    grid = make_frequency_grid(d1_center, 4e9, 20e6)
    for _ in range(4):
        cell = VaporCellConfig(
            length_m=rng.uniform(0.02, 0.2),
            temperature_k=rng.uniform(295.0, 400.0),
            isotope_fractions=atoms.natural_fractions(),
        )
        path_free = fadof_spectrum(
            cell, rng.uniform(0.0, 60e-3), 1.8e-6, grid, atoms
        )
        assert np.all(path_free.transmission >= 0.0)
        assert np.all(path_free.transmission <= 1.0)


def test_dichroic_filter_shape():
    spec = dichroic_filter(3.77e14, 80e6, 0.10, 35.0)
    assert spec(np.array([3.77e14]))[0] == pytest.approx(0.10)
    floor = 10 ** (-3.5)
    wing = spec(np.array([3.77e14 + 490e6]))[0]
    lorentz_wing = 0.10 / (1.0 + (2 * 490 / 80) ** 2)
    assert wing <= max(lorentz_wing, floor) * (1 + 1e-9)
    # infinite rejection leaves the bare Lorentzian wing
    pure = dichroic_filter(3.77e14, 80e6, 0.10, float("inf"))
    assert pure(np.array([3.77e14 + 10e9]))[0] == pytest.approx(
        0.10 / (1 + (2 * 10e9 / 80e6) ** 2), rel=1e-9
    )


def test_dichroic_filter_parameter_guards():
    with pytest.raises(ConfigError):
        dichroic_filter(3.77e14, -1.0, 0.1, 35.0)
    with pytest.raises(ConfigError):
        dichroic_filter(3.77e14, 80e6, 0.4, 35.0)


@pytest.mark.parametrize("offset", [300, 0, -300, 0.3])
def test_mirror_equals_the_evaluator_at_the_reflected_frequencies(d1_center, offset):
    # peak above, at and below the grid centre, and between two grid points
    grid = make_frequency_grid(d1_center, 1e9, 0.5e6)
    nu0 = d1_center + offset * 0.5e6 if offset % 1 else grid[grid.size // 2 + offset]
    evaluated = []

    def fn(nu):
        evaluated.append(nu.size)
        return 0.7 / (1.0 + ((nu - nu0) / 80e6) ** 2)

    spec = FilterSpectrum(grid, fn)
    mirror = mirrored_transmission(spec, nu0)
    assert np.array_equal(mirror, spec(2 * nu0 - grid))
    # the grid is sampled once; only the reflections that leave the grid (or
    # miss it) are evaluated again
    assert evaluated[0] == grid.size
    assert evaluated[1] == (grid.size if offset % 1 else 2 * abs(offset))
    if offset == 0:  # nothing leaves the grid: the mirror is the samples reversed
        assert np.array_equal(mirror, spec.transmission[::-1])


def test_shipped_matching_grid_reflects_onto_itself(fadof_main, fadof_grid):
    # fig3's filter: the reflection about its peak lands on grid points bit for bit
    i0 = int(np.argmax(fadof_main.transmission))
    reflected = 2 * fadof_grid[i0] - fadof_grid
    j = 2 * i0 - np.arange(fadof_grid.size)
    on_grid = (j >= 0) & (j < fadof_grid.size)
    assert np.array_equal(fadof_grid[j[on_grid]], reflected[on_grid])
    assert (on_grid.sum(), (~on_grid).sum()) == (20_739, 11_262)


def test_on_mode_degenerate_transmission(fadof_main):
    # transmission of the mode sitting on the operating peak
    assert fadof_main.transmission.max() == pytest.approx(0.70, abs=0.08)


@given(
    height=st.floats(min_value=0.05, max_value=1.0),
    width=st.floats(min_value=1e8, max_value=2e9),
)
@settings(max_examples=15)
def test_rectangular_metrics_property(height, width):
    grid = np.linspace(-8e9, 8e9, 4001)
    m = filter_metrics(FilterSpectrum(grid, lambda nu: np.where(np.abs(nu) < width / 2, height, 0.0)), (-4e9, 4e9))
    assert m.t_max == pytest.approx(height)
    spacing = grid[1] - grid[0]
    assert abs(m.fwhm_hz - width) <= 2 * spacing
    assert abs(m.enbw_hz - width) <= 2 * spacing
