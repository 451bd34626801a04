import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atompairs.cavity import (
    MAX_MODES,
    TAIL_CUT,
    CavityConfig,
    FilteredPairs,
    PairSpectralDensity,
    _envelope_weight,
    filtered_pair_rate,
    mode_comb,
    spectral_purity,
)
from atompairs.errors import ConfigError, NumericError
from atompairs.vapor import blocking_cell_transmission, VaporCellConfig


def type_i_config(nu0=3.77e14):
    return CavityConfig(fsr_hz=501e6, linewidth_hz=8.4e6, degenerate_hz=nu0)


def test_mode_count_within_envelope_fwhm():
    comb = mode_comb(type_i_config())
    inside = np.abs(comb.k * 501e6) <= 150e9 / 2.0
    assert inside.sum() == 299  # floor(150 GHz / 501 MHz), centred


def test_comb_symmetry_exact():
    comb = mode_comb(type_i_config())
    assert np.array_equal(comb.weight, comb.weight[::-1])
    assert comb.weight[comb.degenerate_index] == comb.weight.max() == 1.0


def test_type_ii_configuration():
    cfg = CavityConfig(fsr_hz=490e6, linewidth_hz=7e6, degenerate_hz=3.77e14)
    comb = mode_comb(cfg)
    assert np.all(np.diff(comb.frequency_hz) == pytest.approx(490e6))


@pytest.mark.parametrize("name", ["fsr_hz", "linewidth_hz", "envelope_fwhm_hz"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_config_refuses_non_finite_widths(name, value):
    # an infinite envelope would keep mode_comb's tail search going forever
    with pytest.raises(ConfigError, match="finite"):
        CavityConfig(**{"fsr_hz": 501e6, "linewidth_hz": 8.4e6, "degenerate_hz": 3.77e14, name: value})


def test_comb_beyond_the_mode_limit_is_refused():
    # a 1e6 GHz envelope would need about 3.6 M modes each side
    cfg = CavityConfig(fsr_hz=501e6, linewidth_hz=8.4e6, degenerate_hz=3.77e14, envelope_fwhm_hz=1e15)
    with pytest.raises(ConfigError, match="at most"):
        mode_comb(cfg)
    # the widest comb accepted closes at MAX_MODES: its root lies half a mode inside
    fwhm = (MAX_MODES - 0.5) * 501e6 / np.sqrt(np.log(1e4) / (4.0 * np.log(2.0)))
    widest = CavityConfig(fsr_hz=501e6, linewidth_hz=8.4e6, degenerate_hz=3.77e14, envelope_fwhm_hz=fwhm)
    assert mode_comb(widest).k[-1] == MAX_MODES
    with pytest.raises(ConfigError, match="at most"):
        mode_comb(CavityConfig(**{**widest.__dict__, "envelope_fwhm_hz": fwhm * (MAX_MODES + 0.5) / (MAX_MODES - 0.5)}))


def _scalar_comb_edge(cfg):
    """The first mode k >= 1 whose weight, evaluated alone, is below
    ``TAIL_CUT``, or None if none is up to ``MAX_MODES``."""
    for k in range(1, MAX_MODES + 1):
        if _envelope_weight(cfg, k) < TAIL_CUT:
            return k
    return None


def test_comb_edge_is_the_scalar_search():
    """The comb closes at the mode a one-mode-at-a-time search finds, on
    random (FSR, envelope) pairs, on envelopes whose tail cut falls on a mode
    to within a few ulp, and at the ``MAX_MODES`` boundary, where both refuse."""
    rng = np.random.default_rng(37)
    root = np.sqrt(np.log(1.0 / TAIL_CUT) / (4.0 * np.log(2.0)))
    widths = [(fsr, fsr * 10 ** rng.uniform(-1, 3.5)) for fsr in 10 ** rng.uniform(6, 11, 60)]
    widths += [(fsr, k * fsr / root * (1 + ulps * 2.2e-16)) for fsr, k, ulps in zip(
        10 ** rng.uniform(6, 11, 60), rng.integers(1, 2_000, 60), rng.integers(-4, 5, 60))]
    widths += [(501e6, (MAX_MODES + d) * 501e6 / root) for d in (-0.5, 0.0, 0.5)]
    for fsr, fwhm in widths:
        cfg = CavityConfig(fsr_hz=fsr, linewidth_hz=fsr / 20, degenerate_hz=3.77e14, envelope_fwhm_hz=fwhm)
        want = _scalar_comb_edge(cfg)
        if want is None:
            with pytest.raises(ConfigError, match="at most"):
                mode_comb(cfg)
        else:
            assert mode_comb(cfg).k[-1] == want
    assert _scalar_comb_edge(CavityConfig(fsr_hz=501e6, linewidth_hz=8.4e6, degenerate_hz=3.77e14,
                                          envelope_fwhm_hz=(MAX_MODES + 0.5) * 501e6 / root)) is None


def test_envelope_tail_cut():
    comb = mode_comb(type_i_config())
    edge_weight = comb.weight[0]
    assert edge_weight < 1e-4
    assert comb.weight[1] != comb.weight[0] or comb.weight[1] < 1e-4


def test_delta_filter_keeps_only_degenerate():
    nu0 = 3.77e14
    comb = mode_comb(type_i_config(nu0))

    def delta_filter(nu):
        return np.where(np.abs(np.asarray(nu) - nu0) < 50e6, 1.0, 0.0)

    passed = filtered_pair_rate(comb, delta_filter)
    assert passed.degenerate_pair_fraction() == pytest.approx(1.0)
    assert passed.pair_weight[comb.degenerate_index] == pytest.approx(1.0, rel=1e-9)


def test_opaque_filter_has_no_degenerate_fraction():
    comb = mode_comb(type_i_config())
    passed = filtered_pair_rate(comb, lambda nu: np.zeros_like(np.asarray(nu)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="^degenerate_pair_fraction: no pair passes"):
            passed.degenerate_pair_fraction()


@pytest.mark.parametrize("fsr_hz, envelope_fwhm_hz", [(1e306, 150e9), (501e6, 1e-291)])
def test_comb_past_the_envelope_is_its_degenerate_mode_quietly(fsr_hz, envelope_fwhm_hz):
    """Mode offsets whose square over the envelope width overflows weigh
    exp(-inf) = 0, with no overflow warning."""
    cfg = CavityConfig(fsr_hz=fsr_hz, linewidth_hz=8.4e6, degenerate_hz=3.77e14, envelope_fwhm_hz=envelope_fwhm_hz)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        comb = mode_comb(cfg)
    assert comb.k.tolist() == [-1, 0, 1]
    assert comb.weight.tolist() == [0.0, 1.0, 0.0]


def test_flat_filter_passes_source_weights():
    comb = mode_comb(type_i_config())
    passed = filtered_pair_rate(comb, lambda nu: np.ones_like(np.asarray(nu)))
    assert np.allclose(passed.pair_weight, comb.weight)
    assert np.allclose(passed.mode_transmission, 1.0)


def test_monotone_in_filter():
    comb = mode_comb(type_i_config())
    t1 = filtered_pair_rate(comb, lambda nu: 0.4 * np.ones_like(np.asarray(nu)))
    t2 = filtered_pair_rate(comb, lambda nu: 0.5 * np.ones_like(np.asarray(nu)))
    assert np.all(t2.pair_weight >= t1.pair_weight)
    assert t2.total_pairs >= t1.total_pairs


def test_pairing_symmetry_under_mirroring():
    """p_k is invariant under k <-> -k by construction, and mirroring the
    filter about the degenerate mode leaves the pair weights unchanged."""
    nu0 = 3.77e14
    comb = mode_comb(type_i_config(nu0))
    rng = np.random.default_rng(0)
    knots = np.linspace(nu0 - 300e9, nu0 + 300e9, 101)
    vals = rng.uniform(0.0, 1.0, 101)

    def asym_filter(nu):
        return np.interp(np.asarray(nu, dtype=float), knots, vals)

    def mirrored(nu):
        return asym_filter(2 * nu0 - np.asarray(nu, dtype=float))

    p1 = filtered_pair_rate(comb, asym_filter).pair_weight
    p2 = filtered_pair_rate(comb, mirrored).pair_weight
    assert np.allclose(p1, p1[::-1], rtol=1e-12)
    assert np.allclose(p1, p2, rtol=1e-12)


def test_purity_trivial_cases():
    nu0 = 3.77e14
    comb = mode_comb(type_i_config(nu0))

    def narrow(nu):
        return np.where(np.abs(np.asarray(nu) - nu0) < 260e6, 0.7, 0.0)

    passed = filtered_pair_rate(comb, narrow)

    def hot_cell(nu):
        return np.where(np.abs(np.asarray(nu) - nu0) < 5e9, 1e-4, 1.0)

    rep0 = spectral_purity(passed, 0.0, hot_cell)
    assert rep0.spectral_purity == pytest.approx(1.0, abs=2e-4)
    assert rep0.degenerate_share_in_band == pytest.approx(1.0, abs=1e-6)

    rep = spectral_purity(passed, 1e-2, hot_cell)
    assert 0.0 <= rep.spectral_purity <= 1.0
    assert rep.spectral_purity < rep0.spectral_purity


def test_purity_requires_pairs():
    comb = mode_comb(type_i_config())
    passed = filtered_pair_rate(comb, lambda nu: np.zeros_like(np.asarray(nu)))
    with pytest.raises(ConfigError):
        spectral_purity(passed, 0.0, lambda nu: np.ones_like(np.asarray(nu)))


def test_fadof_filtered_comb_purity(atoms, fadof_main):
    """Physical chain: measured-style purity report for the shipped filter."""
    nu0 = float(fadof_main.grid_hz[np.argmax(fadof_main.transmission)])
    comb = mode_comb(type_i_config(nu0))
    passed = filtered_pair_rate(comb, fadof_main)
    hot = VaporCellConfig(
        length_m=0.10,
        temperature_k=390.0,
        isotope_fractions=atoms.natural_fractions(),
        buffer_fwhm_hz=178e6,
    )
    hot_t = blocking_cell_transmission(hot, atoms)
    rep = spectral_purity(passed, 1.8e-6, hot_t)
    assert rep.degenerate_share_in_band == pytest.approx(0.98, abs=0.01)
    assert rep.degenerate_fraction == pytest.approx(0.96, abs=0.015)
    assert rep.spectral_purity >= 0.98


def test_heralded_resonant_fraction_type_ii():
    from atompairs.filters import dichroic_filter

    nu0 = 3.77e14
    cfg = CavityConfig(fsr_hz=490e6, linewidth_hz=7e6, degenerate_hz=nu0)
    comb = mode_comb(cfg)
    filt = dichroic_filter(nu0, 80e6, 0.10, 35.0)
    passed = filtered_pair_rate(comb, filt)
    # heralded resonant fraction: of pairs whose both photons pass, the
    # degenerate share
    assert passed.degenerate_pair_fraction() >= 0.94


@given(scale=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=15)
def test_purity_bounds_property(scale):
    nu0 = 3.77e14
    comb = mode_comb(type_i_config(nu0))

    def filt(nu):
        d = np.abs(np.asarray(nu) - nu0)
        return np.clip(scale * np.exp(-((d / 1e9) ** 2)) + 1e-6, 0.0, 1.0)

    passed = filtered_pair_rate(comb, filt)

    def hot_cell(nu):
        return np.where(np.abs(np.asarray(nu) - nu0) < 4e9, 1e-3, 1.0)

    rep = spectral_purity(passed, 1e-5, hot_cell)
    assert 0.0 <= rep.spectral_purity <= 1.0
    assert 0.0 <= rep.degenerate_fraction <= 1.0
