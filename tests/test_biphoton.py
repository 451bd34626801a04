import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atompairs.biphoton import (
    BiphotonWaveFunction,
    InterferenceRecords,
    coincidence_rate,
    ideal_opo_psi,
    reconstruct_wavefunction,
    simulate_records,
    symmetric_tau_grid,
)
from atompairs.errors import ConfigError, NumericError

from reference import per_phase_counts

TAU = symmetric_tau_grid(120e-9, 1e-9)


def interpolated_fwhm(x, y):
    half = y.max() / 2.0
    above = np.where(y > half)[0]
    lo, hi = above[0], above[-1]

    def cross(i_out, i_in):
        return x[i_out] + (half - y[i_out]) * (x[i_in] - x[i_out]) / (y[i_in] - y[i_out])

    return cross(hi + 1, hi) - cross(lo - 1, lo)


def test_ideal_psi_width_and_phase():
    psi = ideal_opo_psi(8.1e6, 0.35, TAU)
    # squared amplitude has FWHM ln2 / (pi B) ~ 27.2 ns for 8.1 MHz
    fwhm = interpolated_fwhm(TAU, psi.amplitude**2)
    assert fwhm == pytest.approx(np.log(2) / (np.pi * 8.1e6), rel=1e-3)
    assert np.allclose(psi.phase, 0.35)
    assert np.allclose(psi.amplitude, psi.amplitude[::-1])
    # the matched 8.4 MHz source gives the familiar 26 ns
    psi2 = ideal_opo_psi(8.4e6, 0.0, TAU)
    assert interpolated_fwhm(TAU, psi2.amplitude**2) == pytest.approx(26.3e-9, rel=5e-3)


def test_psi_grid_validation():
    with pytest.raises(ConfigError, match="^tau grid must be symmetric about 0$"):
        BiphotonWaveFunction(tau_s=np.array([0.0, 1e-9, 2e-9]), psi=np.ones(3))
    with pytest.raises(ConfigError, match=r"^tau grid needs at least 3 points \(got 2\)$"):
        BiphotonWaveFunction(tau_s=np.array([-1e-9, 1e-9]), psi=np.ones(2))
    with pytest.raises(ConfigError):
        ideal_opo_psi(-1.0, 0.0, TAU)


def test_rate_coherent_only():
    psi = BiphotonWaveFunction(tau_s=TAU, psi=np.zeros_like(TAU, dtype=complex))
    rate = coincidence_rate(psi, 1.3, 0.4)
    assert np.allclose(rate, 1.3**4 / 4.0)


def test_rate_pairs_only():
    psi = ideal_opo_psi(8.1e6, 0.2, TAU)
    rate = coincidence_rate(psi, 0.0, 0.0)
    assert np.allclose(rate, psi.amplitude**2)


def test_rate_pi_periodic():
    psi = ideal_opo_psi(8.1e6, 0.7, TAU)
    for phi in (0.0, 0.3, 1.1, 2.9):
        r1 = coincidence_rate(psi, 1.1, phi)
        r2 = coincidence_rate(psi, 1.1, phi + np.pi)
        assert np.abs(r1 - r2).max() <= 1e-12 * r1.max()


def test_visibility_identity():
    """max_phi R - min_phi R = 2 |psi| |alpha|^2 at every tau."""
    psi = ideal_opo_psi(8.1e6, 0.9, TAU)
    alpha = 1.2
    phis = np.linspace(0, np.pi, 2001, endpoint=False)
    rates = coincidence_rate(psi, alpha, phis[:, None])
    swing = rates.max(axis=0) - rates.min(axis=0)
    assert np.allclose(swing, 2 * psi.amplitude * alpha**2, rtol=1e-5, atol=1e-9)


def test_destructive_dips_below_coherent_floor():
    psi = ideal_opo_psi(8.1e6, 0.0, TAU)
    alpha = np.sqrt(2.0)  # matched amplitudes
    floor = alpha**4 / 4.0
    constructive = coincidence_rate(psi, alpha, 0.0)
    destructive = coincidence_rate(psi, alpha, np.pi / 2)
    i0 = np.argmin(np.abs(TAU))
    assert constructive[i0] > floor
    assert destructive[i0] < floor
    # far tails approach the coherent-only level (|psi| ~ 0.05 at the edge)
    assert constructive[0] == pytest.approx(floor, rel=0.15)
    assert abs(constructive[0] - floor) < 0.1 * abs(constructive[i0] - floor)


def test_records_deterministic_without_noise():
    psi = ideal_opo_psi(8.1e6, 0.1, TAU)
    a = simulate_records(psi, 1.0, [0.0, 0.5, 1.0, 1.5], 10.0, noise=False)
    b = simulate_records(psi, 1.0, [0.0, 0.5, 1.0, 1.5], 10.0, noise=False)
    assert np.array_equal(a.counts, b.counts)


def test_zero_exposure_zero_counts():
    psi = ideal_opo_psi(8.1e6, 0.1, TAU)
    recs = simulate_records(psi, 1.0, [0.0, 0.5, 1.0], 0.0, noise=True, seed=5)
    assert recs.counts.shape == (3, TAU.size) and np.all(recs.counts == 0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_psi_and_record_inputs_refused(value):
    with pytest.raises(ConfigError, match="bandwidth"):
        ideal_opo_psi(value, 0.0, TAU)
    with pytest.raises(ConfigError, match="phase"):
        ideal_opo_psi(8.1e6, value, TAU)
    psi = ideal_opo_psi(8.1e6, 0.1, TAU)
    with pytest.raises(ConfigError, match="alpha"):
        simulate_records(psi, value, [0.0, 0.5, 1.0], 1.0)
    with pytest.raises(ConfigError, match="exposure"):
        simulate_records(psi, 1.0, [0.0, 0.5, 1.0], value)
    records = simulate_records(psi, 1.0, [0.0, 0.5, 1.0], 1.0, noise=False)
    with pytest.raises(ConfigError, match="reference amplitude"):
        reconstruct_wavefunction(records, value)
    with pytest.raises(ConfigError, match="exposure"):
        reconstruct_wavefunction(replace(records, exposure=value), 1.0)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    phases=st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=3, max_size=9),
    exposure=st.sampled_from([0.0, 1e-3, 0.5, 7.0, 2000.0, 1e9]) | st.floats(min_value=0.0, max_value=1e6),
    alpha=st.floats(min_value=0.0, max_value=3.0),
    noise=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_records_table_is_the_per_phase_loop_bit_for_bit(seed, phases, exposure, alpha, noise):
    """One Poisson call over the (phases, tau) table draws exactly what one
    call per phase drew from the same generator."""
    psi = ideal_opo_psi(8.1e6, 0.3, TAU)
    recs = simulate_records(psi, alpha, phases, exposure, noise=noise, seed=seed)
    assert recs.counts.shape == (len(phases), TAU.size)
    assert np.array_equal(recs.counts, per_phase_counts(psi, alpha, phases, exposure, noise=noise, seed=seed))
    assert np.array_equal(recs.phases_rad, phases) and recs.tau_s is psi.tau_s


@pytest.mark.parametrize(
    "counts, message",
    [
        (np.ones((3, TAU.size - 1)), r"\(phases, tau\)"),
        (np.ones((4, TAU.size)), r"\(phases, tau\)"),
        (np.ones(3 * TAU.size), r"\(phases, tau\)"),
        (-np.ones((3, TAU.size)), "nonnegative"),
    ],
)
def test_records_refuse_counts_off_the_phases_by_tau_table(counts, message):
    with pytest.raises(ConfigError, match=message):
        InterferenceRecords(phases_rad=np.array([0.0, 0.5, 1.0]), tau_s=TAU, counts=counts, exposure=1.0)


def test_reconstruction_factors_its_design_once(monkeypatch):
    """The coefficients, the condition number and the (x, y) covariance all
    come from one SVD of the phase design."""
    psi = ideal_opo_psi(8.1e6, 0.35, TAU)
    recs = simulate_records(psi, np.sqrt(2.0), np.linspace(0, np.pi, 12, endpoint=False), 7.0, seed=3)

    def refuse(*args, **kwargs):
        raise AssertionError("the design is factored by svd alone")

    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    for name in ("cond", "lstsq", "pinv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(np.linalg, "svd", counted)
    rec = reconstruct_wavefunction(recs, np.sqrt(2.0))
    assert calls == [(12, 3)]
    assert np.all(np.isfinite(rec.phase_sigma_rad))


def test_reconstruction_refuses_tau_points_without_interference():
    """Where no coincidence was counted at any phase the amplitude estimate
    is 0 and its phase has no error bar: refused by count, naming the
    exposure, before any 0/0."""
    psi = ideal_opo_psi(8.1e6, 0.35, TAU)
    recs = simulate_records(psi, np.sqrt(2.0), np.linspace(0, np.pi, 8, endpoint=False), 7.0, seed=3)
    counts = recs.counts.copy()
    counts[:, :5] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=r"params\.exposure: 5 of 241 tau points hold no interference"):
            reconstruct_wavefunction(replace(recs, counts=counts), np.sqrt(2.0))


def test_needs_three_phases():
    psi = ideal_opo_psi(8.1e6, 0.1, TAU)
    with pytest.raises(ConfigError):
        simulate_records(psi, 1.0, [0.0, 1.0], 1.0)


def test_reconstruction_roundtrip_exact():
    psi = ideal_opo_psi(8.1e6, 0.35, TAU)
    recs = simulate_records(
        psi, 1.0, np.linspace(0, np.pi, 7, endpoint=False), 1.0, noise=False
    )
    rec = reconstruct_wavefunction(recs, 1.0)
    assert np.abs(rec.wavefunction.psi - psi.psi).max() < 1e-10
    # cross-check amplitude from the phi-averaged rates
    assert np.allclose(
        rec.amplitude_sq_from_mean, psi.amplitude**2, atol=1e-10
    )


def test_reconstruction_rejects_degenerate_phases():
    psi = ideal_opo_psi(8.1e6, 0.0, TAU)
    recs = simulate_records(
        psi, 1.0, [0.1, 0.1 + np.pi, 0.1 + 2 * np.pi], 1.0, noise=False
    )
    with pytest.raises(NumericError):
        reconstruct_wavefunction(recs, 1.0)


def test_reconstruction_poisson_uncertainty_calibration():
    """Matched-contrast Poisson run: phase uncertainty near tau = 0 lands in
    the few-degree window and grows toward the tails."""
    psi = ideal_opo_psi(8.1e6, 0.35, TAU)
    alpha = np.sqrt(2.0)
    recs = simulate_records(
        psi, alpha, np.linspace(0, np.pi, 12, endpoint=False), 7.0, noise=True, seed=3
    )
    rec = reconstruct_wavefunction(recs, alpha)
    i0 = np.argmin(np.abs(TAU))
    sigma0 = np.degrees(rec.phase_sigma_rad[i0])
    assert 4.0 <= sigma0 <= 9.0
    tail = np.degrees(rec.phase_sigma_rad[np.abs(TAU) > 80e-9]).min()
    assert tail > 2 * sigma0
    # empirical scatter of the recovered peak phase across seeds matches the
    # reported uncertainty to within a factor two
    errs = []
    for seed in range(12):
        r = simulate_records(
            psi, alpha, np.linspace(0, np.pi, 12, endpoint=False), 7.0, noise=True, seed=seed
        )
        out = reconstruct_wavefunction(r, alpha)
        errs.append(out.wavefunction.phase[i0] - 0.35)
    scatter = np.degrees(np.std(errs))
    assert scatter == pytest.approx(sigma0, rel=1.0)


def test_reconstruction_recovers_phase_ramp():
    ramp = 2e6 * TAU  # linear phase across the grid, small at the edges
    psi = BiphotonWaveFunction(
        tau_s=TAU, psi=np.exp(-np.pi * 8.1e6 * np.abs(TAU)) * np.exp(1j * ramp)
    )
    alpha = np.sqrt(2.0)
    recs = simulate_records(
        psi, alpha, np.linspace(0, np.pi, 12, endpoint=False), 2000.0, noise=True, seed=8
    )
    rec = reconstruct_wavefunction(recs, alpha)
    sel = np.abs(TAU) < 30e-9
    slope = np.polyfit(TAU[sel], np.unwrap(rec.wavefunction.phase[sel]), 1)[0]
    assert slope == pytest.approx(2e6, rel=0.05)


@given(
    phi=st.floats(min_value=0.0, max_value=np.pi),
    alpha=st.floats(min_value=0.1, max_value=2.0),
)
@settings(max_examples=20)
def test_rate_nonnegative_property(phi, alpha):
    psi = ideal_opo_psi(8.1e6, 1.1, TAU)
    rate = coincidence_rate(psi, alpha, phi)
    assert np.all(rate >= 0.0)


@pytest.mark.parametrize("step_s", [0.0, -1e-9])
def test_tau_grid_rejects_non_positive_step(step_s):
    with pytest.raises(ConfigError):
        symmetric_tau_grid(120e-9, step_s)
