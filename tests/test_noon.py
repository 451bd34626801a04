import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atompairs.errors import ConfigError, NumericError
from atompairs.noon import (
    OpticalElement,
    TwoPhotonPolState,
    apply_element,
    circular_amplitudes,
    circular_jones,
    count_oscillations,
    fisher_information,
    fisher_information_frozen_loss,
    hwp_jones,
    make_noon_from_pair,
    measurement_rates,
    noon_fidelity,
    noon_state,
    probe_transfer,
    pure_state,
    qwp_jones,
    rotation_jones,
    sensing_scan,
    sql_fisher_information,
    surrogate_noon_state,
    visibility,
)

from reference import harmonic_order, ideal_noon_fisher_pair, ideal_single_fisher


# ------------------------------------------------------------ state algebra


def test_pair_is_circular_noon():
    amps = circular_amplitudes(make_noon_from_pair())
    assert amps["LL"].real == pytest.approx(0.5, abs=1e-12)
    assert amps["RR"].real == pytest.approx(0.5, abs=1e-12)
    assert abs(amps["LL,RR"]) == pytest.approx(0.5, abs=1e-12)
    # opposite signs of the two amplitudes: coherence is negative real
    assert amps["LL,RR"].real == pytest.approx(-0.5, abs=1e-12)


def test_qwp_maps_pair_to_hv_noon():
    mapped = apply_element(make_noon_from_pair(), OpticalElement.qwp(np.pi / 4))
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
    out = apply_element(hh, OpticalElement.hwp(0.0))
    assert np.allclose(out.rho, hh.rho, atol=1e-12)
    probs = measurement_rates(hh, analyzer_hwp_rad=0.0)
    assert probs.hh == pytest.approx(1.0)
    assert probs.hv == pytest.approx(0.0, abs=1e-12)
    assert probs.vv == pytest.approx(0.0, abs=1e-12)


def test_faraday_zero_field_uniform_attenuation(atoms, sensing_cell, noon_line_hz):
    from atompairs.vapor import VaporPath

    path = VaporPath(atoms, sensing_cell, 0.0, slices=4)
    elem = OpticalElement.faraday_cell(path, noon_line_hz)
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
        OpticalElement.hwp(angle),
        OpticalElement(kind="cell", jones=circular_jones(t_plus, t_minus * np.exp(1j * phase))),
        OpticalElement.qwp(angle / 2),
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
        out = apply_element(apply_element(state, OpticalElement.hwp(theta)), OpticalElement.hwp(theta))
        assert np.abs(out.rho - state.rho).max() < 1e-12


# --------------------------------------------------------------- sensing scan


def test_scan_oscillations_and_visibility(sensing_scan_fine):
    hh = np.array([p.probabilities.hh for p in sensing_scan_fine])
    vv = np.array([p.probabilities.vv for p in sensing_scan_fine])
    sv = np.array([p.probabilities.singles_v for p in sensing_scan_fine])
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
    return [measurement_rates(state, channel=rotation_jones(t)) for t in theta]


def test_harmonic_order_of_lossless_pair_scan(sensing_scan_fine):
    theta = np.array([p.rotation_rad for p in sensing_scan_fine])
    balanced = _lossless_rates(make_noon_from_pair(), theta)
    hh = [p.hh for p in balanced]
    assert harmonic_order(theta, hh) == pytest.approx(2.0, abs=1e-9)
    # against a doubled angle the same fringes read as order 1
    assert harmonic_order(2.0 * theta, hh) == pytest.approx(1.0, abs=1e-9)
    # the |VV> admixture adds a first harmonic to HH but none above one to singles
    imbalanced = _lossless_rates(make_noon_from_pair(imbalance=0.15), theta)
    assert abs(harmonic_order(theta, [p.hh for p in imbalanced]) - 2.0) <= 0.25
    assert harmonic_order(theta, [p.singles_v for p in imbalanced]) == pytest.approx(1.0, abs=1e-9)


def test_harmonic_order_of_product_state(sensing_scan_fine):
    theta = np.array([p.rotation_rad for p in sensing_scan_fine])
    hh = [p.hh for p in _lossless_rates(pure_state([1.0, 0, 0, 0]), theta)]
    # cos^4 = (3 + 4 cos 2t + cos 4t) / 8: powers 1/4 and 1/64
    order = harmonic_order(theta, hh)
    assert order == pytest.approx(18.0 / 17.0, abs=1e-9)
    assert abs(order - 2.0) > 0.25


def test_scan_zero_field_point(sensing_scan_fine):
    p0 = sensing_scan_fine[0]
    assert p0.rotation_rad == pytest.approx(0.0, abs=1e-9)
    # pair photons start as HV: coincidences all in the HV class
    assert p0.probabilities.hv > 10 * (p0.probabilities.hh + p0.probabilities.vv)
    assert 0.8 < p0.eta <= 1.0


def test_scan_monotone_rotation(sensing_scan_fine):
    theta = np.abs([p.rotation_rad for p in sensing_scan_fine])
    assert np.all(np.diff(theta) > -1e-9)
    assert theta[-1] > np.pi / 2  # more than 90 degrees by 50 mT


# ---------------------------------------------------------- Fisher information


def _rotation_scan(slope, b_grid, state=None):
    state = state or make_noon_from_pair()
    pts = []
    from atompairs.noon import SensingScanPoint

    for b in b_grid:
        probs = measurement_rates(state, channel=rotation_jones(slope * b))
        pts.append(
            SensingScanPoint(b_t=float(b), probabilities=probs, eta=1.0, rotation_rad=slope * b)
        )
    return pts


def test_fisher_lossless_noon_closed_form():
    slope = 50.0
    b_grid = np.arange(15e-3, 25.001e-3, 0.1e-3)
    scan = _rotation_scan(slope, b_grid)
    rep = fisher_information(scan, 20e-3)
    assert rep.fi_pair == pytest.approx(ideal_noon_fisher_pair(slope), rel=1e-4)
    sql = sql_fisher_information(lambda b: rotation_jones(slope * b), 20e-3, h_t=0.1e-3)
    assert sql == pytest.approx(ideal_single_fisher(slope), rel=1e-4)
    ratio = rep.fi_per_photon / sql
    assert ratio == pytest.approx(2.0, abs=1e-3)


def test_fisher_zero_sensitivity_point():
    # quadratic rotation has zero slope at B = 0: no information there
    b_grid = np.arange(-0.5e-3, 0.5001e-3, 0.1e-3)
    state = make_noon_from_pair()
    pts = []
    from atompairs.noon import SensingScanPoint

    for b in b_grid:
        theta = 2e4 * b**2
        probs = measurement_rates(state, channel=rotation_jones(theta))
        pts.append(SensingScanPoint(b_t=float(b), probabilities=probs, eta=1.0, rotation_rad=theta))
    rep = fisher_information(pts, 0.0)
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

    bad = scan[:]
    i = 10
    probs = bad[i + 1].probabilities
    bad[i + 1] = dataclasses.replace(
        bad[i + 1],
        probabilities=dataclasses.replace(probs, hv=probs.hv * 0.7, hh=probs.hh + probs.hv * 0.3),
    )
    with pytest.raises(NumericError):
        fisher_information(bad, float(b_grid[i]))


def test_noon_beats_sql_in_operating_window(atoms, sensing_cell, noon_line_hz, sensing_scan_fine):
    from atompairs.vapor import VaporPath

    found = None
    for b_mt in (34.0, 40.0, 44.0, 48.0):
        rep = fisher_information(sensing_scan_fine, b_mt * 1e-3)

        def channel(b):
            path = VaporPath(atoms, sensing_cell, float(b), slices=16)
            t_plus, t_minus = path.transfer_at(np.array([noon_line_hz]))
            return circular_jones(t_plus[0], t_minus[0])

        sql = sql_fisher_information(channel, b_mt * 1e-3)
        if rep.fi_per_photon > sql:
            found = (b_mt, rep.fi_per_photon / sql)
            break
    assert found is not None


def test_loss_variation_adds_information(atoms, sensing_cell, noon_line_hz):
    full, frozen = fisher_information_frozen_loss(
        make_noon_from_pair(), probe_transfer(sensing_cell, atoms, noon_line_hz), 44e-3
    )
    assert full > frozen


def test_fisher_per_scattered_uses_expected_loss():
    slope = 50.0
    b_grid = np.arange(15e-3, 25.001e-3, 0.1e-3)
    # 20% per-photon loss, polarization independent
    state = make_noon_from_pair()
    pts = []
    from atompairs.noon import SensingScanPoint

    t_amp = np.sqrt(0.8)
    for b in b_grid:
        jones = t_amp * rotation_jones(slope * b)
        probs = measurement_rates(state, channel=jones)
        pts.append(SensingScanPoint(b_t=float(b), probabilities=probs, eta=0.8, rotation_rad=slope * b))
    rep = fisher_information(pts, 20e-3)
    lost = pts[50].probabilities.expected_lost
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


def test_element_guards():
    with pytest.raises(ConfigError):
        OpticalElement(kind="HWP", jones=np.array([[1.0, 0.0], [0.0, 0.5]]))
    with pytest.raises(ConfigError):
        OpticalElement(kind="cell", jones=np.array([[1.2, 0.0], [0.0, 0.5]]))
