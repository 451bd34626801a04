import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from atompairs.errors import ConfigError, NumericError
from atompairs.noon import (
    OpticalElement,
    TwoPhotonPolState,
    apply_element,
    circular_jones,
    count_oscillations,
    fisher_information,
    fisher_information_frozen_loss,
    hwp_jones,
    make_noon_from_pair,
    measurement_rates,
    noon_fidelity,
    noon_state,
    pure_state,
    qwp_jones,
    rotation_jones,
    SensingScan,
    sensing_scan,
    sql_fisher_information,
    surrogate_noon_state,
    visibility,
)
from atompairs.vapor import transfer_vs_field

from reference import (
    harmonic_order,
    ideal_noon_fisher_pair,
    ideal_single_fisher,
    kraus_measurement_rates,
    searched_sql_fisher,
)


# ------------------------------------------------------------ state algebra


def test_pair_is_circular_noon():
    pair = make_noon_from_pair()
    # a cell that passes only one circular component keeps only |LL> or |RR>
    for t_plus, t_minus in ((1.0, 0.0), (0.0, 1.0)):
        absorber = OpticalElement(kind="cell", jones=circular_jones(t_plus, t_minus))
        assert apply_element(pair, absorber).trace == pytest.approx(0.5, abs=1e-12)
    # a pi/2 rotation turns the LL and RR amplitudes by -1 each: the pair is
    # unchanged, which holds only if they carry no LR component
    rotated = apply_element(pair, OpticalElement(kind="rotation", jones=rotation_jones(np.pi / 2)))
    assert np.abs(rotated.rho - pair.rho).max() < 1e-12


def test_qwp_maps_pair_to_hv_noon():
    mapped = apply_element(make_noon_from_pair(), OpticalElement(kind="QWP", jones=qwp_jones(np.pi / 4)))
    f, _ = noon_fidelity(mapped)
    assert f == pytest.approx(1.0, abs=1e-12)
    assert abs(mapped.rho[1, 1]) < 1e-12  # no HV population


def test_fidelity_special_values():
    ideal = noon_state(0.3)
    assert noon_fidelity(ideal, 0.3) == pytest.approx(1.0, abs=1e-12)
    mixed = TwoPhotonPolState(np.eye(4) / 4.0)
    f, _ = noon_fidelity(mixed)
    assert f == pytest.approx(0.25, abs=1e-12)
    # the symmetric pair is orthogonal to every H/V NooN state
    pair = make_noon_from_pair()
    for phi in (0.0, 0.4, 1.2):
        assert noon_fidelity(pair, phi) == pytest.approx(0.0, abs=1e-12)


def test_surrogate_state_matches_requested_parameters():
    s = surrogate_noon_state(0.99, 0.20)
    f, phi = noon_fidelity(s)
    assert f == pytest.approx(0.99, abs=1e-9)
    assert 2 * phi == pytest.approx(0.20, abs=1e-9)
    eig = np.linalg.eigvalsh(s.rho)
    assert eig.min() > 0  # strictly PSD mixture


def test_waveplate_algebra():
    # HWP twice is the identity up to phase
    for theta in (0.0, 0.3, 1.1):
        sq = hwp_jones(theta) @ hwp_jones(theta)
        assert np.abs(sq - np.eye(2)).max() < 1e-12
    # QWP(45)^2 = HWP(45) up to a global phase
    prod = qwp_jones(np.pi / 4) @ qwp_jones(np.pi / 4)
    target = hwp_jones(np.pi / 4)
    phase = prod[0, 1] / target[0, 1]
    assert abs(abs(phase) - 1.0) < 1e-12
    assert np.abs(prod - phase * target).max() < 1e-12


def test_hwp_on_pure_states():
    hh = pure_state([1.0, 0, 0, 0])
    out = apply_element(hh, OpticalElement(kind="HWP", jones=hwp_jones(0.0)))
    assert np.allclose(out.rho, hh.rho, atol=1e-12)
    probs = measurement_rates(hh, analyzer_hwp_rad=0.0)
    assert probs.hh == pytest.approx(1.0)
    assert probs.hv == pytest.approx(0.0, abs=1e-12)
    assert probs.vv == pytest.approx(0.0, abs=1e-12)


def test_faraday_zero_field_uniform_attenuation(atoms, sensing_cell, noon_line_hz):
    from atompairs.vapor import VaporPath

    path = VaporPath(atoms, sensing_cell, 0.0, slices=4)
    t_plus, t_minus = path.transfer_at(np.array([noon_line_hz]))
    elem = OpticalElement(kind="cell", jones=circular_jones(t_plus[0], t_minus[0]))
    state = make_noon_from_pair()
    out = apply_element(state, elem)
    eta = out.trace / state.trace
    assert 0.0 < eta < 1.0
    assert np.allclose(out.normalized().rho, state.rho, atol=1e-9)


# ------------------------------------------------------- measurement rates


def test_singles_period_90_deg():
    single_h = pure_state([1.0, 0, 0, 0])
    angles = np.radians(np.arange(0.0, 180.1, 1.0))
    s = [measurement_rates(single_h, analyzer_hwp_rad=a).singles_h for a in angles]
    assert count_oscillations(s) == pytest.approx(2.0)
    # exact 90 deg periodicity
    assert s[0] == pytest.approx(s[90], abs=1e-12)
    assert s[30] == pytest.approx(s[120], abs=1e-12)


def test_pair_coincidences_period_45_deg():
    pair = make_noon_from_pair()
    angles = np.radians(np.arange(0.0, 180.1, 1.0))
    hh = [measurement_rates(pair, analyzer_hwp_rad=a).hh for a in angles]
    hv = [measurement_rates(pair, analyzer_hwp_rad=a).hv for a in angles]
    assert count_oscillations(hh) == pytest.approx(4.0)
    assert count_oscillations(hv) == pytest.approx(4.0)
    assert visibility(hh) > 0.999
    assert hh[0] == pytest.approx(hh[45], abs=1e-12)


@given(chi=st.floats(min_value=0.0, max_value=2 * np.pi))
@settings(max_examples=15)
def test_hv_noon_coincidences_45_deg_periodic(chi):
    state = noon_state(chi / 2.0)
    for theta_deg in (0.0, 10.0, 33.0):
        a = np.radians(theta_deg)
        p1 = measurement_rates(state, analyzer_hwp_rad=a)
        p2 = measurement_rates(state, analyzer_hwp_rad=a + np.pi / 4)
        assert p1.hh == pytest.approx(p2.hh, abs=1e-12)
        assert p1.vv == pytest.approx(p2.vv, abs=1e-12)


def test_outcome_classes_complete_under_loss():
    jones = circular_jones(0.8, 0.6 * np.exp(0.3j))
    probs = measurement_rates(make_noon_from_pair(), channel=jones, analyzer_hwp_rad=0.2)
    total = probs.as_array().sum()
    assert total == pytest.approx(1.0, abs=1e-12)
    assert probs.none > 0.0


_UNIT = st.floats(min_value=-1.0, max_value=1.0)
_ANGLE = st.floats(min_value=0.0, max_value=np.pi)


@st.composite
def _mixed_states(draw):
    """rho = t A A^dag / Tr(A A^dag) for a random complex 4x4 A and trace t <= 1."""
    a = np.array(draw(st.lists(_UNIT, min_size=32, max_size=32))).reshape(2, 4, 4)
    a = a[0] + 1j * a[1]
    gram = a @ a.conj().T
    norm = np.trace(gram).real
    assume(norm > 1e-3)
    rho = draw(st.floats(0.0, 1.0)) * gram / norm
    return TwoPhotonPolState((rho + rho.conj().T) / 2.0)


@st.composite
def _contractive_channels(draw):
    """Waveplate x diag(r1 e^{i phi1}, r2 e^{i phi2}) x waveplate with r <= 1:
    a general contraction, not only a circular-diagonal one."""
    r = np.array([draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))])
    phase = np.array([draw(_ANGLE), draw(_ANGLE)]) * 2.0
    left = qwp_jones(draw(_ANGLE)) @ hwp_jones(draw(_ANGLE))
    right = hwp_jones(draw(_ANGLE)) @ qwp_jones(draw(_ANGLE))
    return left @ np.diag(r * np.exp(1j * phase)) @ right


@given(
    state=_mixed_states(),
    stack=st.lists(st.tuples(_contractive_channels(), _ANGLE), min_size=1, max_size=4),
)
@settings(max_examples=40)
def test_stacked_kernel_matches_kraus_oracle(state, stack):
    channels = np.array([c for c, _ in stack])
    angles = np.array([a for _, a in stack])
    got = measurement_rates(state, channel=channels, analyzer_hwp_rad=angles).as_array()
    assert got.shape == (6, len(stack))
    for k, (channel, angle) in enumerate(stack):
        want = kraus_measurement_rates(state.rho, channel, angle)
        np.testing.assert_allclose(got[:, k], want, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(got.sum(axis=0), state.trace, rtol=0.0, atol=1e-14)


def test_kernel_single_case_is_the_stack_entry():
    state = make_noon_from_pair(imbalance=0.15)
    angles = np.array([0.0, 0.2, 1.1])
    channels = circular_jones(np.array([0.8, 0.5j, 1.0]), np.array([0.6, 0.3, 1.0]))
    by_angle = measurement_rates(state, analyzer_hwp_rad=angles).as_array()
    by_channel = measurement_rates(state, channel=channels, analyzer_hwp_rad=0.2).as_array()
    for k in range(3):
        single = measurement_rates(state, analyzer_hwp_rad=angles[k])
        assert isinstance(single.hh, float)
        np.testing.assert_array_equal(single.as_array(), by_angle[:, k])
        single = measurement_rates(state, channel=channels[k], analyzer_hwp_rad=0.2)
        np.testing.assert_array_equal(single.as_array(), by_channel[:, k])


def test_kernel_rejects_gain_and_non_finite_channels():
    pair = make_noon_from_pair()
    for bad in (1.5 * np.eye(2), np.full((2, 2), np.nan), np.diag([1.0, np.inf])):
        with pytest.raises(ConfigError, match="gain"):
            measurement_rates(pair, channel=bad)
    # the boundary of the rule OpticalElement uses still passes
    measurement_rates(pair, channel=(1.0 + 1e-10) * np.eye(2))
    stack = np.array([np.eye(2), 0.5 * np.eye(2), 1.5 * np.eye(2), np.full((2, 2), np.nan)])
    with pytest.raises(ConfigError, match="stack index 2 "):
        measurement_rates(pair, channel=stack)
    with pytest.raises(ConfigError, match="stack index 1 "):
        measurement_rates(pair, channel=stack[[0, 3, 2]])
    with pytest.raises(ConfigError, match="2x2"):
        measurement_rates(pair, channel=np.eye(3))
    with pytest.raises(ConfigError, match="analyzer angle is not finite"):
        measurement_rates(pair, analyzer_hwp_rad=np.nan)
    with pytest.raises(ConfigError, match="analyzer angle at stack index 2 "):
        measurement_rates(pair, analyzer_hwp_rad=[0.0, 0.1, np.inf, np.nan])


@given(
    t_plus=st.floats(min_value=0.2, max_value=1.0),
    t_minus=st.floats(min_value=0.2, max_value=1.0),
    phase=st.floats(min_value=0.0, max_value=np.pi),
    angle=st.floats(min_value=0.0, max_value=np.pi),
)
@settings(max_examples=25)
def test_physicality_preserved_property(t_plus, t_minus, phase, angle):
    state = make_noon_from_pair()
    chain = [
        OpticalElement(kind="HWP", jones=hwp_jones(angle)),
        OpticalElement(kind="cell", jones=circular_jones(t_plus, t_minus * np.exp(1j * phase))),
        OpticalElement(kind="QWP", jones=qwp_jones(angle / 2)),
    ]
    rho = state
    for elem in chain:
        rho = apply_element(rho, elem)
        eig = np.linalg.eigvalsh(rho.rho)
        assert eig.min() > -1e-12
        assert rho.trace <= 1.0 + 1e-12


def test_two_hwp_applications_identity():
    state = surrogate_noon_state()
    for theta in (0.1, 0.7):
        hwp = OpticalElement(kind="HWP", jones=hwp_jones(theta))
        out = apply_element(apply_element(state, hwp), hwp)
        assert np.abs(out.rho - state.rho).max() < 1e-12


# --------------------------------------------------------------- sensing scan


def test_scan_oscillations_and_visibility(sensing_scan_fine):
    hh = sensing_scan_fine.probabilities.hh
    vv = sensing_scan_fine.probabilities.vv
    sv = sensing_scan_fine.probabilities.singles_v
    assert visibility(hh) > 0.9
    assert visibility(vv) > 0.9
    assert visibility(hh) > 0.33  # classical bound for pair interference
    assert count_oscillations(sv) <= count_oscillations(hh)
    assert count_oscillations(hh) >= 1.0


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("phase", [0.0, 0.7, 2.1])
@pytest.mark.parametrize("sweep", [1.6, 2.07, 4.0])  # 2.07 rad as in the scan
def test_harmonic_order_of_pure_fringes(m, phase, sweep):
    theta = np.linspace(0.0, -sweep, 101)
    values = 0.4 + 0.3 * np.cos(2 * m * theta + phase)
    assert harmonic_order(theta, values) == pytest.approx(m, abs=1e-9)


def _lossless_rates(state, theta):
    return measurement_rates(state, channel=rotation_jones(theta))


def test_harmonic_order_of_lossless_pair_scan(sensing_scan_fine):
    theta = sensing_scan_fine.rotation_rad
    balanced = _lossless_rates(make_noon_from_pair(), theta)
    hh = balanced.hh
    assert harmonic_order(theta, hh) == pytest.approx(2.0, abs=1e-9)
    # against a doubled angle the same fringes read as order 1
    assert harmonic_order(2.0 * theta, hh) == pytest.approx(1.0, abs=1e-9)
    # the |VV> admixture adds a first harmonic to HH but none above one to singles
    imbalanced = _lossless_rates(make_noon_from_pair(imbalance=0.15), theta)
    assert abs(harmonic_order(theta, imbalanced.hh) - 2.0) <= 0.25
    assert harmonic_order(theta, imbalanced.singles_v) == pytest.approx(1.0, abs=1e-9)


def test_harmonic_order_of_product_state(sensing_scan_fine):
    theta = sensing_scan_fine.rotation_rad
    hh = _lossless_rates(pure_state([1.0, 0, 0, 0]), theta).hh
    # cos^4 = (3 + 4 cos 2t + cos 4t) / 8: powers 1/4 and 1/64
    order = harmonic_order(theta, hh)
    assert order == pytest.approx(18.0 / 17.0, abs=1e-9)
    assert abs(order - 2.0) > 0.25


def test_scan_zero_field_point(sensing_scan_fine):
    probs = sensing_scan_fine.probabilities
    assert sensing_scan_fine.rotation_rad[0] == pytest.approx(0.0, abs=1e-9)
    # pair photons start as HV: coincidences all in the HV class
    assert probs.hv[0] > 10 * (probs.hh[0] + probs.vv[0])
    assert 0.8 < sensing_scan_fine.eta[0] <= 1.0


def test_scan_monotone_rotation(sensing_scan_fine):
    theta = np.abs(sensing_scan_fine.rotation_rad)
    assert np.all(np.diff(theta) > -1e-9)
    assert theta[-1] > np.pi / 2  # more than 90 degrees by 50 mT


# ---------------------------------------------------------- Fisher information


def _rotation_scan(slope, b_grid, state=None, eta=1.0):
    """One stacked call over the grid: the pair through a rotation by slope * b
    with polarization-independent transmission eta."""
    state = state or make_noon_from_pair()
    b = np.asarray(b_grid, dtype=float)
    return SensingScan(
        b_t=b,
        eta=np.full(b.shape, eta),
        rotation_rad=slope * b,
        probabilities=measurement_rates(state, channel=np.sqrt(eta) * rotation_jones(slope * b)),
    )


def _at_fisher_fields(b_t, h_t):
    """The fields b*, b* + h and b* - h of the Fisher derivatives."""
    return b_t + np.array([0.0, h_t, -h_t])


def test_fisher_lossless_noon_closed_form():
    slope = 50.0
    b_grid = np.arange(15e-3, 25.001e-3, 0.1e-3)
    scan = _rotation_scan(slope, b_grid)
    rep = fisher_information(scan, 20e-3)
    assert rep.fi_pair == pytest.approx(ideal_noon_fisher_pair(slope), rel=1e-4)
    theta = slope * _at_fisher_fields(20e-3, 0.1e-3)
    t_plus, t_minus = np.exp(1j * theta), np.exp(-1j * theta)
    sql = sql_fisher_information(t_plus, t_minus, 0.1e-3)
    assert sql == pytest.approx(ideal_single_fisher(slope), rel=1e-4)
    ratio = rep.fi_per_photon / sql
    assert ratio == pytest.approx(2.0, abs=1e-3)
    # polarization-independent loss scales it by eta; the best input is then
    # the interior x = 1/2, not a circular state
    eta = 0.64
    lossy = sql_fisher_information(np.sqrt(eta) * t_plus, np.sqrt(eta) * t_minus, 0.1e-3)
    assert lossy == pytest.approx(eta * ideal_single_fisher(slope), rel=1e-4)


def test_fisher_zero_sensitivity_point():
    # quadratic rotation has zero slope at B = 0: no information there
    b_grid = np.arange(-0.5e-3, 0.5001e-3, 0.1e-3)
    state = make_noon_from_pair()
    theta = 2e4 * b_grid**2
    scan = SensingScan(
        b_t=b_grid,
        eta=np.ones(b_grid.shape),
        rotation_rad=theta,
        probabilities=measurement_rates(state, channel=rotation_jones(theta)),
    )
    rep = fisher_information(scan, 0.0)
    assert rep.fi_pair == pytest.approx(0.0, abs=1e-4)


def test_fisher_requires_uniform_dense_scan():
    scan = _rotation_scan(50.0, np.arange(0.0, 10e-3, 2e-3))
    with pytest.raises(ConfigError):
        fisher_information(scan, 4e-3)


def test_fisher_detects_unstable_derivative():
    slope = 50.0
    b_grid = np.arange(15e-3, 25.001e-3, 0.5e-3)
    scan = _rotation_scan(slope, b_grid)
    # corrupt one neighbour point to break the Richardson agreement
    import dataclasses

    i = 10
    probs = scan.probabilities
    hv, hh = probs.hv.copy(), probs.hh.copy()
    hv[i + 1], hh[i + 1] = probs.hv[i + 1] * 0.7, probs.hh[i + 1] + probs.hv[i + 1] * 0.3
    bad = dataclasses.replace(scan, probabilities=dataclasses.replace(probs, hv=hv, hh=hh))
    with pytest.raises(NumericError):
        fisher_information(bad, float(b_grid[i]))


def test_noon_beats_sql_in_operating_window(atoms, sensing_cell, noon_line_hz, sensing_scan_fine):
    found = None
    for b_mt in (34.0, 40.0, 44.0, 48.0):
        rep = fisher_information(sensing_scan_fine, b_mt * 1e-3)
        fields = _at_fisher_fields(b_mt * 1e-3, 0.25e-3)
        t_plus, t_minus, _ = transfer_vs_field(atoms, sensing_cell, noon_line_hz, fields)
        sql = sql_fisher_information(t_plus, t_minus, 0.25e-3)
        if rep.fi_per_photon > sql:
            found = (b_mt, rep.fi_per_photon / sql)
            break
    assert found is not None


_B0 = 40e-3


def _exponential_transfers(t0, kappa, b_t):
    """Circular t+-(b) = t0+- exp(kappa+- (b - B0)) at the fields ``b_t``, one
    row per circular component, for complex kappa: amplitude exponential and
    phase linear in b.  Its central difference keeps Re(t* dt) = 0 wherever
    |t| = 1; a curved phase would not, and the lost class would then make the
    Fisher information unbounded near that input."""
    return t0[:, None] * np.exp(kappa[:, None] * (np.asarray(b_t) - _B0))


@given(
    weight=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    log_slope=st.tuples(st.floats(-200.0, 200.0), st.floats(-200.0, 200.0)),
    phase=st.tuples(st.floats(0.0, 2 * np.pi), st.floats(0.0, 2 * np.pi)),
    phase_slope=st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0)),
)
@settings(max_examples=20)
# one circular component dark, the other a pure phase: the channels that read
# only the search's rounding noise, 1.9e-28 and 9.7e-30 against 8.9e-10
@example(weight=(0.0, 1.0), log_slope=(0.0, 0.0), phase=(0.0, 0.0), phase_slope=(0.0, 1.0))
@example(weight=(1.0, 0.0), log_slope=(0.0, 0.0), phase=(0.0, 0.0), phase_slope=(0.5, 0.0))
def test_sql_closed_form_never_beaten_by_search(weight, log_slope, phase, phase_slope):
    """No input polarization and analyzer basis that the grid + Nelder-Mead
    search finds beats the closed form, on random contractive channels
    t+-(b) = r+-(b) e^{i phi+-(b)} with r+- <= 1 at b* and b* +- h.  Where
    the closed form is 0 (one circular component dark, the other a pure
    phase) the search reads rounding noise: at r = 1 the lost class, 1 - |t|^2
    in part, cancels to a rounding unit eps |t0|^2, and an outcome that small
    whose difference over the step is as large carries eps |t0|^2 / (4 h^2).
    The bound allows that on top of the relative 1e-9."""
    h = 0.25e-3
    a = np.array(log_slope)
    r0 = np.array(weight) * np.exp(-np.abs(a) * h)  # r(b* +- h) <= weight <= 1
    kappa = a + 1j * np.array(phase_slope)
    t0 = r0 * np.exp(1j * np.array(phase))
    closed = sql_fisher_information(*_exponential_transfers(t0, kappa, _at_fisher_fields(_B0, h)), h)

    rounding = np.finfo(float).eps * (np.abs(t0) ** 2).max() / (4 * h**2)

    def channel(b):
        return circular_jones(*_exponential_transfers(t0, kappa, [b])[:, 0])

    assert searched_sql_fisher(channel, _B0, h_t=h) <= closed * (1.0 + 1e-9) + rounding


def test_sql_closed_form_matches_search_on_fig11_cell(atoms, sensing_cell, noon_line_hz):
    def channel(b):
        t_plus, t_minus, _ = transfer_vs_field(atoms, sensing_cell, noon_line_hz, [b])
        return circular_jones(t_plus[0], t_minus[0])

    for b_mt in (34.0, 40.0, 44.0, 48.0):
        fields = _at_fisher_fields(b_mt * 1e-3, 0.25e-3)
        t_plus, t_minus, _ = transfer_vs_field(atoms, sensing_cell, noon_line_hz, fields)
        closed = sql_fisher_information(t_plus, t_minus, 0.25e-3)
        assert closed == pytest.approx(searched_sql_fisher(channel, b_mt * 1e-3), rel=1e-12)


@pytest.mark.parametrize("shape", [(), (2,), (4,), (3, 1)])
def test_fisher_blocks_refuse_other_than_three_fields(shape):
    """The SQL reference and the frozen-loss block read b*, b* + h and b* - h:
    one entry each, no more, no fewer."""
    t = np.full(shape, 0.9 + 0.1j)
    with pytest.raises(ConfigError, match="three entries"):
        sql_fisher_information(t, t, 0.25e-3)
    with pytest.raises(ConfigError, match="three entries"):
        fisher_information_frozen_loss(make_noon_from_pair(), (t, t, np.zeros(shape)), 0.25e-3)


def test_sensing_scan_needs_one_transfer_per_field():
    b_list = np.arange(0.0, 2.001e-3, 0.5e-3)
    t = np.full(b_list.size - 1, 0.9 + 0.1j)
    with pytest.raises(ConfigError, match="one .* entry per field"):
        sensing_scan(make_noon_from_pair(), b_list, (t, t, np.zeros(t.size)))


def test_loss_variation_adds_information(atoms, sensing_cell, noon_line_hz):
    transfer = transfer_vs_field(atoms, sensing_cell, noon_line_hz, _at_fisher_fields(44e-3, 0.25e-3))
    full, frozen = fisher_information_frozen_loss(make_noon_from_pair(), transfer, 0.25e-3)
    assert full > frozen


def test_fisher_per_scattered_uses_expected_loss():
    slope = 50.0
    b_grid = np.arange(15e-3, 25.001e-3, 0.1e-3)
    # 20% per-photon loss, polarization independent
    state = make_noon_from_pair()
    scan = _rotation_scan(slope, b_grid, state, eta=0.8)
    rep = fisher_information(scan, 20e-3)
    lost = scan.probabilities.expected_lost[50]
    assert lost == pytest.approx(0.4, abs=1e-9)
    assert rep.fi_per_scattered == pytest.approx(rep.fi_pair / 0.4, rel=1e-9)


# ----------------------------------------------------------------- guards


def test_state_validation():
    with pytest.raises(ConfigError):
        TwoPhotonPolState(np.eye(3))
    bad = np.eye(4) * 0.3
    bad[0, 1] = 0.4
    with pytest.raises(ConfigError):
        TwoPhotonPolState(bad)
    with pytest.raises(ConfigError):
        TwoPhotonPolState(np.diag([1.0, 0.5, 0.0, 0.0]))
    with pytest.raises(ConfigError, match="finite"):
        TwoPhotonPolState(np.diag([np.nan, 0.0, 0.0, 0.0]))
    with pytest.raises(ConfigError, match="finite"):
        make_noon_from_pair(imbalance=np.nan)


def test_noon_imports_neither_vapor_nor_scipy():
    """The pair algebra is numpy only: importing it in a fresh process loads
    neither the cell model nor scipy."""
    code = "import sys, atompairs.noon; print([m for m in ('atompairs.vapor', 'scipy') if m in sys.modules])"
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_scan_and_frozen_loss_call_the_transfer_once(atoms, sensing_cell, noon_line_hz, monkeypatch):
    """Each takes the transfers it reads as arrays and makes one stacked
    outcome-kernel call."""
    from atompairs import noon

    rates = []
    kernel = noon.measurement_rates

    def counted_rates(state, channel=None, analyzer_hwp_rad=0.0):
        rates.append(np.shape(channel))
        return kernel(state, channel, analyzer_hwp_rad)

    b_list, fields = np.arange(0.0, 5.001e-3, 0.5e-3), _at_fisher_fields(3e-3, 0.25e-3)
    scan_transfer = transfer_vs_field(atoms, sensing_cell, noon_line_hz, b_list)
    fisher_transfer = transfer_vs_field(atoms, sensing_cell, noon_line_hz, fields)
    monkeypatch.setattr(noon, "measurement_rates", counted_rates)
    state = make_noon_from_pair(imbalance=0.15)
    sensing_scan(state, b_list, scan_transfer)
    fisher_information_frozen_loss(state, fisher_transfer, 0.25e-3)
    # one stacked kernel call each: the scan's fields, then live and frozen
    # loss at b* and b* +- h
    assert rates == [(11, 2, 2), (6, 2, 2)]


def test_element_guards():
    with pytest.raises(ConfigError):
        OpticalElement(kind="HWP", jones=np.array([[1.0, 0.0], [0.0, 0.5]]))
    with pytest.raises(ConfigError):
        OpticalElement(kind="cell", jones=np.array([[1.2, 0.0], [0.0, 0.5]]))
    with pytest.raises(ConfigError, match="not finite"):
        OpticalElement(kind="cell", jones=np.array([[np.nan, 0.0], [0.0, 0.5]]))
