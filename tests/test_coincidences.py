import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from atompairs import coincidences
from atompairs.coincidences import (
    CoincidenceHistogram,
    DetectionModel,
    G2Envelope,
    _tooth_bin_weights,
    _trf_fit,
    binned_histogram,
    fit_envelope,
    g2_multi_weights,
    g2_single,
    simulate_histogram,
)
from atompairs.errors import ConfigError, FitFailure

from reference import tent_bin_averages

ENV = G2Envelope.from_linewidth(8.4e6)


def test_fwhm_closed_form():
    # 2 ln2 / (gamma1 + gamma2) for the 8.4 MHz linewidth
    assert ENV.gamma_sum == pytest.approx(2 * np.pi * 8.4e6, rel=1e-12)
    assert ENV.fwhm_s == pytest.approx(2 * np.log(2) / (2 * np.pi * 8.4e6), rel=1e-9)
    assert ENV.fwhm_s == pytest.approx(26.3e-9, rel=5e-3)
    # direct check on the function itself
    assert g2_single(ENV.fwhm_s / 2, ENV) == pytest.approx(0.5, rel=1e-12)


def test_g2_even_and_peaked():
    rng = np.random.default_rng(1)
    ts = rng.uniform(-100e-9, 100e-9, 100)
    assert np.allclose(g2_single(ts, ENV), g2_single(-ts, ENV))
    assert g2_single(0.0, ENV) == 1.0
    assert np.all(g2_single(ts, ENV) <= 1.0)


def test_comb_weights_spacing_and_peak():
    det = DetectionModel(t_bin_s=1e-9, round_trip_s=1.0 / 501e6)
    delays, weights = g2_multi_weights(ENV, det)
    assert np.allclose(np.diff(delays), 1.0 / 501e6)
    assert 1.0 / 501e6 == pytest.approx(1.996e-9, rel=2e-3)
    assert weights.max() == weights[delays == 0.0][0] == 1.0
    assert weights.min() >= 1e-6


def test_tooth_weights_sum_to_one():
    rng = np.random.default_rng(2)
    pos = rng.uniform(-40.0, 40.0, 200)
    w = _tooth_bin_weights(pos, np.arange(-60, 61))
    assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-12


def test_histogram_shifts_bitwise_with_t0():
    env = G2Envelope(gamma1=0.02, gamma2=0.005)
    det_a = DetectionModel(t_bin_s=1.0, t0_s=37.4, round_trip_s=1.996)
    det_b = DetectionModel(t_bin_s=1.0, t0_s=38.4, round_trip_s=1.996)
    ha = binned_histogram(env, det_a, "multi", np.arange(-60, 140))
    hb = binned_histogram(env, det_b, "multi", np.arange(-59, 141))
    assert np.array_equal(ha.values, hb.values)
    hs_a = binned_histogram(env, det_a, "single", np.arange(-60, 140))
    hs_b = binned_histogram(env, det_b, "single", np.arange(-59, 141))
    assert np.array_equal(hs_a.values, hs_b.values)


@pytest.mark.parametrize(
    "g, bound",
    [(1e-6, 1e-9), (1e-4, 5e-12), (0.0528, 5e-12), (1.0, 5e-12), (30.0, 5e-12), (800.0, 5e-12), (5000.0, 5e-12)],
)
def test_single_mode_bins_match_the_tent_oracle(g, bound):
    """Every single-mode bin against a 120-digit tent average, with the tent
    apex on a bin centre, between two and just short of the next; 0.0528 is
    fig4's cavity at 1 ns bins.  With 1 s bins the decay per bin is g and
    the apex offset is t0, both exact."""
    bins = np.arange(-400, 400)
    for offset in (0.0, 0.37, 0.5, 1.0 - 1e-6):
        det = DetectionModel(t_bin_s=1.0, t0_s=offset)
        got = binned_histogram(G2Envelope(gamma1=g, gamma2=0.0), det, "single", bins).values
        want = tent_bin_averages(g, offset, bins)
        assert np.all(np.isfinite(got))
        for value, exact in zip(got, want):
            if exact > 1e-300:
                assert abs((value - exact) / exact) <= bound, (offset, value)
            else:  # past the float range: underflows to (nearly) zero
                assert value <= 1e-300


def test_single_mode_bins_stay_finite_at_every_decay():
    """A decay per bin that underflows to 0 gives the flat average 1, and
    decays of 1e4 per bin and far beyond give finite values."""
    bins = np.arange(-50, 50)
    det = DetectionModel(t_bin_s=1e-300, t0_s=3e-301)
    flat = binned_histogram(G2Envelope(gamma1=1e-300, gamma2=0.0), det, "single", bins)
    assert np.allclose(flat.values, 1.0, rtol=1e-15, atol=0.0)
    for g in (1e4, 1e8, 1e200):
        h = binned_histogram(G2Envelope(gamma1=g, gamma2=0.0), DetectionModel(t_bin_s=1.0, t0_s=0.3), "single", bins)
        assert np.all(np.isfinite(h.values)) and h.values.max() > 0.0


def test_coincidences_import_loads_no_scipy():
    """The histogram model and its fit are numpy only."""
    code = "import sys, atompairs.coincidences; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_zero_rates_zero_floor():
    det = DetectionModel(t_bin_s=1e-9, t0_s=0.0, round_trip_s=1.996e-9)
    h = binned_histogram(ENV, det, "multi", np.arange(320, 360))
    assert np.all(h.values < 1e-6)
    assert det.accidental_rate == 0.0


def test_accidental_floor_value():
    det = DetectionModel(t_bin_s=1e-9, t0_s=0.0, rate1_hz=1e4, rate2_hz=2e4)
    assert det.accidental_rate == pytest.approx(1e-9 * 1e4 * 2e4)
    h = binned_histogram(ENV, det, "single", np.arange(300, 340))
    assert np.allclose(h.values, det.accidental_rate, rtol=1e-6)


def test_multi_histogram_bin_beat_present_single_absent():
    det = DetectionModel(t_bin_s=1e-9, t0_s=0.2e-9, round_trip_s=1.0 / 501e6)
    bins = np.arange(-80, 81)
    multi = binned_histogram(ENV, det, "multi", bins).values
    single = binned_histogram(ENV, det, "single", bins).values

    def alternation(values):
        # rms of the second difference, normalized: flat or smooth -> small
        inner = values[1:-1]
        resid = inner - 0.5 * (values[2:] + values[:-2])
        return np.sqrt(np.mean(resid**2)) / values.max()

    assert alternation(multi) > 10 * alternation(single)
    assert alternation(single) < 0.02


def test_beat_visibility_depends_on_offset():
    """delta in T0 = k t_bin + delta moves the histogram's high-visibility
    region, the signature of the sampling beat."""
    det0 = DetectionModel(t_bin_s=1e-9, t0_s=0.0, round_trip_s=1.0 / 501e6)
    det1 = DetectionModel(t_bin_s=1e-9, t0_s=0.5e-9, round_trip_s=1.0 / 501e6)
    bins = np.arange(-5, 6)
    h0 = binned_histogram(ENV, det0, "multi", bins).values
    h1 = binned_histogram(ENV, det1, "multi", bins).values
    assert not np.allclose(h0, h1)


def test_simulated_fit_roundtrip():
    det = DetectionModel(t_bin_s=1e-9, t0_s=37.4e-9, rate1_hz=1e4, rate2_hz=1e4)
    hist = simulate_histogram(
        ENV, det, "single", np.arange(-80, 160), n_pairs=300000, duration_s=5.0, seed=11
    )
    fit = fit_envelope(hist)
    assert fit.gamma_sum == pytest.approx(ENV.gamma_sum, rel=0.03)
    assert abs(fit.t0_s - 37.4e-9) < 0.5e-9
    assert fit.fwhm_s == pytest.approx(26e-9, abs=1e-9)


# fig4's histogram as cli.run_g2 builds it (37.4 * 1e-9 is not 37.4e-9)
FIG4 = binned_histogram(
    ENV, DetectionModel(t_bin_s=1e-9, t0_s=37.4 * 1e-9, round_trip_s=1 / 501e6), "multi", np.arange(-120, 121)
)


def _port_and_scipy(hist, monkeypatch):
    """fit_envelope's parameters and scipy's least_squares on the same
    residuals, bounds and start."""
    problem = {}

    def spy(fun, x0, lb, ub):
        problem.update(fun=fun, x0=x0, bounds=(lb, ub))
        return _trf_fit(fun, x0, lb, ub)

    monkeypatch.setattr(coincidences, "_trf_fit", spy)
    fit = fit_envelope(hist)
    oracle = least_squares(problem["fun"], problem["x0"], bounds=problem["bounds"], max_nfev=200)
    return np.array([fit.gamma_sum, fit.t0_s, fit.floor, fit.amplitude]), oracle.x


def _faithfulness_histograms():
    for mode, t0_ns, linewidth_mhz, t_bin_ns, rate in itertools.product(
        ("single", "multi"), (0.0, 37.4, -20.0, 5.3), (3.0, 8.4, 20.0), (0.5, 1.0, 2.0), (0.0, 1e3)
    ):
        det = DetectionModel(
            t_bin_s=t_bin_ns * 1e-9, t0_s=t0_ns * 1e-9, rate1_hz=rate, rate2_hz=rate, round_trip_s=1 / 501e6
        )
        yield binned_histogram(G2Envelope.from_linewidth(linewidth_mhz * 1e6), det, mode, np.arange(-300, 301))
    for seed in range(16):
        rng = np.random.default_rng(seed)
        env = G2Envelope.from_linewidth(rng.uniform(3.0, 20.0) * 1e6)
        det = DetectionModel(
            t_bin_s=1e-9, t0_s=rng.uniform(-30.0, 40.0) * 1e-9, rate1_hz=1e4, rate2_hz=1e4, round_trip_s=1 / 501e6
        )
        mode = ("single", "multi")[seed % 2]
        yield simulate_histogram(env, det, mode, np.arange(-120, 121), n_pairs=50_000, duration_s=2.0, seed=seed)
    yield FIG4


def test_fit_is_scipy_trf_bit_for_bit_with_the_same_svd(monkeypatch):
    """With scipy's SVD in place of numpy's, the ported solver returns
    least_squares' parameters exactly: 144 deterministic histograms (both
    modes, four delays, three linewidths, three bin widths, with and without
    accidentals), 16 seeded noisy ones and fig4's."""
    monkeypatch.setattr(np.linalg, "svd", scipy.linalg.svd)
    fits = 0
    for hist in _faithfulness_histograms():
        port, oracle = _port_and_scipy(hist, monkeypatch)
        np.testing.assert_array_equal(port, oracle)
        fits += 1
    assert fits == 161


def test_fig4_fit_with_numpy_svd_is_within_1e_6_of_scipy(monkeypatch):
    """numpy's and scipy's LAPACK builds differ, so the SVD differs at
    rounding; fig4's four parameters stay within 1e-6 relative."""
    port, oracle = _port_and_scipy(FIG4, monkeypatch)
    np.testing.assert_allclose(port, oracle, rtol=1e-6, atol=0)


def test_fit_flat_histogram_fails():
    flat = CoincidenceHistogram(
        bin_index=np.arange(-50, 51),
        values=np.full(101, 7.0),
        t_bin_s=1e-9,
        mode="single",
    )
    with pytest.raises(FitFailure):
        fit_envelope(flat)


def test_fit_noisy_floor_fails():
    rng = np.random.default_rng(4)
    noisy = CoincidenceHistogram(
        bin_index=np.arange(-100, 101),
        values=rng.poisson(400.0, 201).astype(float),
        t_bin_s=1e-9,
        mode="single",
    )
    with pytest.raises(FitFailure):
        fit_envelope(noisy)


def test_fit_requires_span():
    det = DetectionModel(t_bin_s=1e-9, t0_s=0.0)
    hist = binned_histogram(ENV, det, "single", np.arange(-2, 3))
    with pytest.raises(FitFailure):
        fit_envelope(hist)


def test_detection_model_guards():
    with pytest.raises(ConfigError):
        DetectionModel(t_bin_s=0.0)
    with pytest.raises(ConfigError):
        DetectionModel(t_bin_s=1e-9, rate1_hz=-1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_envelope_and_detection_refused(value):
    for gammas in ({"gamma1": value, "gamma2": 1e7}, {"gamma1": 1e7, "gamma2": value}):
        with pytest.raises(ConfigError, match="finite"):
            G2Envelope(**gammas)
    for name in ("t_bin_s", "t0_s", "rate1_hz", "rate2_hz", "round_trip_s"):
        with pytest.raises(ConfigError, match=name):
            DetectionModel(**{"t_bin_s": 1e-9, name: value})


@given(
    t0=st.floats(min_value=-40.0, max_value=40.0),
    gamma=st.floats(min_value=0.005, max_value=0.2),
)
@settings(max_examples=20)
def test_histogram_nonnegative_property(t0, gamma):
    env = G2Envelope(gamma1=gamma, gamma2=gamma / 3)
    det = DetectionModel(t_bin_s=1.0, t0_s=t0, round_trip_s=1.996, rate1_hz=0.1, rate2_hz=0.1)
    for mode in ("single", "multi"):
        h = binned_histogram(env, det, mode, np.arange(-80, 81))
        assert np.all(h.values >= 0.0)
