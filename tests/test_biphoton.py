import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atompairs.biphoton import (
    BiphotonWaveFunction,
    CoherentRef,
    coincidence_rate,
    ideal_opo_psi,
    reconstruct_wavefunction,
    simulate_records,
    symmetric_tau_grid,
)
from atompairs.errors import ConfigError, NumericError

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
    with pytest.raises(ConfigError):
        BiphotonWaveFunction(tau_s=np.array([0.0, 1e-9, 2e-9]), psi=np.ones(3))
    with pytest.raises(ConfigError):
        ideal_opo_psi(-1.0, 0.0, TAU)


def test_rate_coherent_only():
    psi = BiphotonWaveFunction(tau_s=TAU, psi=np.zeros_like(TAU, dtype=complex))
    rate = coincidence_rate(psi, CoherentRef(alpha=1.3, phase_rad=0.4))
    assert np.allclose(rate, 1.3**4 / 4.0)


def test_rate_pairs_only():
    psi = ideal_opo_psi(8.1e6, 0.2, TAU)
    rate = coincidence_rate(psi, CoherentRef(alpha=0.0, phase_rad=0.0))
    assert np.allclose(rate, psi.amplitude**2)


def test_rate_pi_periodic():
    psi = ideal_opo_psi(8.1e6, 0.7, TAU)
    for phi in (0.0, 0.3, 1.1, 2.9):
        r1 = coincidence_rate(psi, CoherentRef(1.1, phi))
        r2 = coincidence_rate(psi, CoherentRef(1.1, phi + np.pi))
        assert np.abs(r1 - r2).max() <= 1e-12 * r1.max()


def test_visibility_identity():
    """max_phi R - min_phi R = 2 |psi| |alpha|^2 at every tau."""
    psi = ideal_opo_psi(8.1e6, 0.9, TAU)
    alpha = 1.2
    phis = np.linspace(0, np.pi, 2001, endpoint=False)
    rates = np.stack(
        [coincidence_rate(psi, CoherentRef(alpha, p)) for p in phis]
    )
    swing = rates.max(axis=0) - rates.min(axis=0)
    assert np.allclose(swing, 2 * psi.amplitude * alpha**2, rtol=1e-5, atol=1e-9)


def test_destructive_dips_below_coherent_floor():
    psi = ideal_opo_psi(8.1e6, 0.0, TAU)
    alpha = np.sqrt(2.0)  # matched amplitudes
    floor = alpha**4 / 4.0
    constructive = coincidence_rate(psi, CoherentRef(alpha, 0.0))
    destructive = coincidence_rate(psi, CoherentRef(alpha, np.pi / 2))
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
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.counts, rb.counts)


def test_zero_exposure_zero_counts():
    psi = ideal_opo_psi(8.1e6, 0.1, TAU)
    recs = simulate_records(psi, 1.0, [0.0, 0.5, 1.0], 0.0, noise=True, seed=5)
    for r in recs:
        assert np.all(r.counts == 0)


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
    rate = coincidence_rate(psi, CoherentRef(alpha, phi))
    assert np.all(rate >= 0.0)


@pytest.mark.parametrize("step_s", [0.0, -1e-9])
def test_tau_grid_rejects_non_positive_step(step_s):
    with pytest.raises(ConfigError):
        symmetric_tau_grid(120e-9, step_s)
