"""The one grid-resolution rule: ``vapor.check_spacing``.

The rule asks for ``POINTS_PER_FWHM`` grid points across the Voigt FWHM of a
cell's narrowest line.  Its width is checked against a root-found FWHM and
against the cell's actual lines, and its constant against a refinement study
of the figures the paper's spectra are characterised by.
"""

import json

import numpy as np
import pytest
from scipy.optimize import brentq

from atompairs import cavity, cli, filters, vapor
from atompairs.errors import ResolutionError
from atompairs.faddeeva import voigt_profile_complex
from atompairs.vapor import POINTS_PER_FWHM, VaporCellConfig, VaporPath, check_spacing


def limit_hz(cell, atoms) -> float:
    """The largest spacing ``check_spacing`` allows for ``cell``."""
    with pytest.raises(ResolutionError) as err:
        check_spacing(cell, atoms, np.inf)
    return err.value.required_hz


def root_found_fwhm_hz(lorentz_fwhm_hz, sigma_hz) -> float:
    def above_half(delta):
        profile = voigt_profile_complex(np.array([delta, 0.0]), lorentz_fwhm_hz, sigma_hz).real
        return profile[0] - 0.5 * profile[1]

    return 2.0 * brentq(above_half, 0.0, 10.0 * (lorentz_fwhm_hz + sigma_hz), xtol=1e-3, rtol=1e-13)


@pytest.mark.parametrize(
    "lorentz_fwhm_hz, sigma_hz",
    [(1e6, 200e6), (5.75e6, 218e6), (184e6, 230e6), (346e6, 1e6)],
    ids=["doppler", "natural-300K", "buffered", "lorentz"],
)
def test_rule_width_matches_a_root_found_voigt_fwhm(lorentz_fwhm_hz, sigma_hz):
    width = vapor._voigt_fwhm_hz(lorentz_fwhm_hz, sigma_hz)
    assert width == pytest.approx(root_found_fwhm_hz(lorentz_fwhm_hz, sigma_hz), rel=3e-4)


@pytest.mark.parametrize("b_t", [0.0, 23.7e-3, 58e-3])
def test_rule_width_is_the_narrowest_line_at_any_field(atoms, sensing_cell, b_t):
    """Lines move with the field but keep their widths, so the cell-level
    width stands for every field and slice of the cell."""
    lines = VaporPath(atoms, sensing_cell, b_t, slices=1)._lines
    narrowest = vapor._voigt_fwhm_hz(lines.lorentz_fwhm_hz, lines.sigma_hz).min()
    assert limit_hz(sensing_cell, atoms) * POINTS_PER_FWHM == pytest.approx(narrowest, rel=1e-4)


# ------------------------------------------------------- refinement study


def _fadof_figures(spec) -> dict:
    """fig2's report (``fadof`` at its default window) and fig3's pair fraction."""
    peak = float(spec.grid_hz[int(np.argmax(spec.transmission))])
    window = cli.PARAMS["fadof"]["window_ghz"] * 1e9
    metrics = filters.filter_metrics(spec, (peak - window, peak + window))
    p = cli.PARAMS["matching"]
    comb = cavity.mode_comb(
        cavity.CavityConfig(
            fsr_hz=p["fsr_mhz"] * 1e6,
            linewidth_hz=p["linewidth_mhz"] * 1e6,
            degenerate_hz=peak,
            envelope_fwhm_hz=p["envelope_ghz"] * 1e9,
        )
    )
    return {
        "t_max": metrics.t_max,
        "fwhm_hz": metrics.fwhm_hz,
        "enbw_hz": metrics.enbw_hz,
        "rejection_db": metrics.rejection_db,
        "degenerate_pair_fraction": cavity.filtered_pair_rate(comb, spec).degenerate_pair_fraction(),
    }


def _fig2_cell(atoms):
    p = cli.PARAMS["fadof"]
    return VaporCellConfig(
        length_m=p["length_cm"] / 100.0,
        temperature_k=p["temp_k"],
        isotope_fractions=atoms.natural_fractions(),
    )


def _fadof_at(atoms, spacing_hz):
    p = cli.PARAMS["fadof"]
    grid = vapor.make_frequency_grid(atoms.d1_center_hz(), p["half_span_ghz"] * 1e9, spacing_hz)
    return filters.fadof_spectrum(_fig2_cell(atoms), p["field_mt"] * 1e-3, p["extinction"], grid, atoms)


def _fig10_width(atoms, out_dir, temp_c, b_mt, spacing_mhz) -> float:
    params = {**cli.PRESETS["fig10-spectroscopy"]["params"], "temps_c": [temp_c], "fields_mt": [b_mt]}
    if spacing_mhz is not None:
        params["spacing_mhz"] = spacing_mhz
    cli.run_scenario({"scenario": "spectroscopy", "params": params}, atoms, out_dir, seed=0)
    widths = json.loads((out_dir / "spectroscopy_widths.json").read_text())
    return widths[f"{temp_c:g}C_{b_mt:g}mT"]


def _largest_move(moved: dict, shipped: dict) -> float:
    return max(abs(moved[key] / shipped[key] - 1.0) for key in shipped)


def test_points_per_fwhm_is_set_by_the_refinement_study(atoms, fadof_main, tmp_path):
    """At the rule's limit every figure of fig2, fig3 and fig10 stays within
    5e-4 of its value on the preset's shipped grid.  At 4x the limit a figure
    of fig2 or fig3 moves by more than that, so the study can tell."""
    assert fadof_main.grid_hz[1] - fadof_main.grid_hz[0] == pytest.approx(0.5e6)
    shipped = _fadof_figures(fadof_main)
    limit = limit_hz(_fig2_cell(atoms), atoms)
    assert _largest_move(_fadof_figures(_fadof_at(atoms, limit)), shipped) < 5e-4
    assert _largest_move(_fadof_figures(_fadof_at(atoms, 4 * limit)), shipped) > 5e-4

    for temp_c, b_mt in [(22.0, 0.0), (83.0, 58.0)]:
        cell = cli._sensing_cell(cli.PARAMS["spectroscopy"], temp_c)
        spacing_mhz = limit_hz(cell, atoms) / 1e6
        on_shipped = _fig10_width(atoms, tmp_path / f"{temp_c:g}-shipped", temp_c, b_mt, None)
        at_limit = _fig10_width(atoms, tmp_path / f"{temp_c:g}-limit", temp_c, b_mt, spacing_mhz)
        assert at_limit == pytest.approx(on_shipped, rel=5e-4)
