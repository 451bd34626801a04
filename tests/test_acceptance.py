"""Acceptance suite: one test per headline criterion, at the stated
tolerances, each printing a PASS line with the measured numbers.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict.
"""

import time

import numpy as np
import pytest

from atompairs import biphoton, cavity, coincidences, filters, noon, vapor

from reference import (
    breit_rabi_energies,
    harmonic_order,
    ideal_noon_fisher_pair,
    ideal_single_fisher,
)


def _report(tag, ok, detail):
    print(f"\nACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"{tag}: {detail}"


# 1 ------------------------------------------------------------------------


def test_criterion_1_fadof_metrics(atoms, fadof_grid):
    rows = [
        (4.5e-3, 365.0, dict(t_max=(0.71, 0.08), fwhm=(0.45e9, 0.25), enbw=(1.2e9, 0.25))),
        (18.0e-3, 353.0, dict(t_max=(0.92, 0.05), enbw=(2.1e9, 0.25))),
    ]
    for b, temp, expect in rows:
        cell = vapor.VaporCellConfig(
            length_m=0.10, temperature_k=temp, isotope_fractions=atoms.natural_fractions()
        )
        start = time.perf_counter()
        spec = filters.fadof_spectrum(cell, b, 1.8e-6, fadof_grid, atoms)
        runtime = time.perf_counter() - start
        m = filters.filter_metrics(spec)
        checks = {"runtime": runtime < 30.0}
        detail = [f"runtime {runtime:.1f}s"]
        val, tol = expect["t_max"]
        checks["t_max"] = abs(m.t_max - val) <= tol
        detail.append(f"T_max {m.t_max:.3f} vs {val}+-{tol}")
        if "fwhm" in expect:
            val, tol = expect["fwhm"]
            checks["fwhm"] = abs(m.fwhm_hz - val) <= tol * val
            detail.append(f"B_T {m.fwhm_hz / 1e9:.3f} GHz vs {val / 1e9}+-{tol * 100:.0f}%")
        val, tol = expect["enbw"]
        checks["enbw"] = abs(m.enbw_hz - val) <= tol * val
        detail.append(f"B_N {m.enbw_hz / 1e9:.2f} GHz vs {val / 1e9}+-{tol * 100:.0f}%")
        _report(
            f"#1 table row B={b * 1e3:g} mT/{temp:g} K",
            all(checks.values()),
            "; ".join(detail),
        )


# 2 ------------------------------------------------------------------------


def test_criterion_2_envelope_width():
    env = coincidences.G2Envelope.from_linewidth(8.4e6)
    closed_form = 2.0 * np.log(2.0) / env.gamma_sum
    assert abs(env.fwhm_s - closed_form) < 1e-9 * closed_form
    det = coincidences.DetectionModel(t_bin_s=1e-9, t0_s=37.4e-9, rate1_hz=5e3, rate2_hz=5e3)
    hist = coincidences.simulate_histogram(
        env, det, "single", np.arange(-80, 160), n_pairs=400000, duration_s=5.0, seed=1
    )
    fit = coincidences.fit_envelope(hist)
    ok = abs(fit.fwhm_s - 26e-9) <= 1e-9
    _report(
        "#2 envelope width",
        ok,
        f"fitted FWHM {fit.fwhm_s * 1e9:.2f} ns vs 26 +- 1 ns; closed form "
        f"{closed_form * 1e9:.2f} ns",
    )


# 3 ------------------------------------------------------------------------


def test_criterion_3_comb_period_and_beat():
    env = coincidences.G2Envelope.from_linewidth(8.4e6)
    det = coincidences.DetectionModel(
        t_bin_s=1e-9, t0_s=0.2e-9, round_trip_s=1.0 / 501e6
    )
    delays, weights = coincidences.g2_multi_weights(env, det)
    spacing = np.diff(delays)
    ok_spacing = np.allclose(spacing, 1.0 / 501e6, rtol=1e-12)
    bins = np.arange(-80, 81)
    multi = coincidences.binned_histogram(env, det, "multi", bins).values
    single = coincidences.binned_histogram(env, det, "single", bins).values

    def alternation(values):
        inner = values[1:-1]
        resid = inner - 0.5 * (values[2:] + values[:-2])
        return np.sqrt(np.mean(resid**2)) / values.max()

    beat_present = alternation(multi) > 10 * alternation(single)
    ok = ok_spacing and beat_present
    _report(
        "#3 comb period / sampling beat",
        ok,
        f"tooth spacing {spacing[0] * 1e9:.4f} ns (=1/FSR {1e9 / 501e6:.4f} ns); "
        f"alternation multi {alternation(multi):.3f} vs single {alternation(single):.5f}",
    )


# 4 ------------------------------------------------------------------------


def test_criterion_4_spectral_purity(atoms, fadof_main):
    nu0 = float(fadof_main.grid_hz[np.argmax(fadof_main.transmission)])
    cfg = cavity.CavityConfig(fsr_hz=501e6, linewidth_hz=8.4e6, degenerate_hz=nu0)
    comb = cavity.mode_comb(cfg)
    passed = cavity.filtered_pair_rate(comb, fadof_main)
    hot = vapor.VaporCellConfig(
        length_m=0.10,
        temperature_k=390.0,
        isotope_fractions=atoms.natural_fractions(),
        buffer_fwhm_hz=178e6,
    )
    hot_t = vapor.blocking_cell_transmission(hot, atoms)
    rep = cavity.spectral_purity(passed, 1.8e-6, hot_t)
    ok_share = abs(rep.degenerate_share_in_band - 0.98) <= 0.01
    ok_frac = abs(rep.degenerate_fraction - 0.96) <= 0.015
    _report(
        "#4 spectral purity",
        ok_share and ok_frac,
        f"in-band degenerate share {rep.degenerate_share_in_band:.4f} vs 0.98+-0.01; "
        f"degenerate fraction {rep.degenerate_fraction:.4f} vs 0.96+-0.015; "
        f"P_S {rep.spectral_purity:.4f}",
    )


# 5 ------------------------------------------------------------------------


def test_criterion_5_interference_periodicity():
    tau = biphoton.symmetric_tau_grid(120e-9, 1e-9)
    psi = biphoton.ideal_opo_psi(8.1e6, 0.0, tau)
    alpha = np.sqrt(2.0)
    worst = 0.0
    for phi in np.linspace(0.0, np.pi, 17):
        r1 = biphoton.coincidence_rate(psi, alpha, phi)
        r2 = biphoton.coincidence_rate(psi, alpha, phi + np.pi)
        worst = max(worst, float(np.abs(r1 - r2).max() / r1.max()))
    floor = alpha**4 / 4.0
    i0 = np.argmin(np.abs(tau))
    con = biphoton.coincidence_rate(psi, alpha, 0.0)[i0]
    des = biphoton.coincidence_rate(psi, alpha, np.pi / 2)[i0]
    ok = worst <= 1e-12 and des < floor < con
    _report(
        "#5 two-photon interference",
        ok,
        f"pi-periodicity residual {worst:.2e} <= 1e-12; peak constructive {con:.2f} / "
        f"floor {floor:.2f} / destructive {des:.2f}",
    )


# 6 ------------------------------------------------------------------------


def test_criterion_6_reconstruction():
    tau = biphoton.symmetric_tau_grid(120e-9, 1e-9)
    psi = biphoton.ideal_opo_psi(8.1e6, 0.35, tau)
    phases = np.linspace(0.0, np.pi, 12, endpoint=False)
    exact = biphoton.simulate_records(psi, 1.0, phases, 1.0, noise=False)
    rec = biphoton.reconstruct_wavefunction(exact, 1.0)
    noise_free_err = float(np.abs(rec.wavefunction.psi - psi.psi).max())

    alpha = np.sqrt(2.0)
    noisy = biphoton.simulate_records(psi, alpha, phases, 7.0, noise=True, seed=3)
    rec_n = biphoton.reconstruct_wavefunction(noisy, alpha)
    i0 = np.argmin(np.abs(tau))
    sigma_deg = float(np.degrees(rec_n.phase_sigma_rad[i0]))
    ok = noise_free_err < 1e-10 and 4.0 <= sigma_deg <= 9.0
    _report(
        "#6 reconstruction round trip",
        ok,
        f"noise-free max error {noise_free_err:.2e} < 1e-10; "
        f"sigma_phi(0) {sigma_deg:.1f} deg in [4, 9]",
    )


# 7 ------------------------------------------------------------------------


def test_criterion_7_noon_characterization():
    surrogate = noon.surrogate_noon_state(0.99, 0.20)
    f, phi = noon.noon_fidelity(surrogate)
    qwp_back = noon.OpticalElement(kind="QWP", jones=noon.qwp_jones(np.pi / 4).conj().T)
    source = noon.apply_element(surrogate, qwp_back)
    angles = np.radians(np.arange(0.0, 180.1, 1.0))
    hh = np.array([noon.measurement_rates(source, analyzer_hwp_rad=a).hh for a in angles])
    single = noon.pure_state([1.0, 0, 0, 0])
    s_h = np.array(
        [noon.measurement_rates(single, analyzer_hwp_rad=a).singles_h for a in angles]
    )
    coinc_osc = noon.count_oscillations(hh)
    singles_osc = noon.count_oscillations(s_h)
    vis = noon.visibility(hh)
    ok = (
        abs(f - 0.99) < 5e-3
        and coinc_osc == pytest.approx(4.0)
        and singles_osc == pytest.approx(2.0)
        and vis >= 0.88
    )
    _report(
        "#7 NooN characterization",
        ok,
        f"fidelity {f:.3f} at 2phi={2 * phi:.2f}; coincidence period "
        f"{180 / (coinc_osc or 1):.0f} deg vs singles {180 / (singles_osc or 1):.0f} deg; "
        f"visibility {vis:.3f} >= 0.88",
    )


# 8 ------------------------------------------------------------------------


def test_criterion_8_sensing_scan(sensing_scan_fine):
    # Fringes are counted per half-turn of the computed rotation, not over the
    # 0-50 mT window: the window holds ~119 deg at 70 C, so its crossing count
    # (printed for information) reads 1.5 for a coincidence order of 2.
    theta = sensing_scan_fine.rotation_rad
    hh = sensing_scan_fine.probabilities.hh
    vv = sensing_scan_fine.probabilities.vv
    sv = sensing_scan_fine.probabilities.singles_v
    sweep = np.ptp(theta)
    hh_order = harmonic_order(theta, hh)
    sv_order = harmonic_order(theta, sv)
    hh_vis = noon.visibility(hh)
    vv_vis = noon.visibility(vv)
    ok_sweep = sweep > np.pi / 2  # at least one full coincidence fringe
    ok_vis = hh_vis > 0.33 and vv_vis > 0.33 and hh_vis >= 0.8 and vv_vis >= 0.8
    ok_singles = abs(sv_order - 1.0) <= 0.25
    ok_coinc = abs(hh_order - 2.0) <= 0.25
    _report(
        "#8 sensing scan",
        ok_sweep and ok_vis and ok_singles and ok_coinc,
        f"fringes per half-turn of rotation: singles {sv_order:.3f} vs 1+-0.25, "
        f"coincidences {hh_order:.3f} vs 2+-0.25; visibilities HH {hh_vis:.3f} / "
        f"VV {vv_vis:.3f} (>0.33 classical, >=0.8 target); rotation sweep "
        f"{np.degrees(sweep):.0f} deg (>90 required); 0-50 mT crossing counts, "
        f"not asserted: singles {noon.count_oscillations(sv):.2f}, "
        f"coincidences {noon.count_oscillations(hh):.2f}",
    )


# 9 ------------------------------------------------------------------------


def _at_fisher_fields(b_t, h_t):
    """The fields b*, b* + h and b* - h of the Fisher derivatives."""
    return b_t + np.array([0.0, h_t, -h_t])


def _rotation_transfers(slope, b_t, h_t):
    """Circular transfers exp(+-i slope b) of a lossless rotation at b* and b* +- h."""
    theta = slope * _at_fisher_fields(b_t, h_t)
    return np.exp(1j * theta), np.exp(-1j * theta)


def _lossless_rotation_scan(slope, b_grid):
    """The pair through a lossless rotation by slope * b, in one stacked call."""
    return noon.SensingScan(
        b_t=b_grid,
        eta=np.ones(b_grid.shape),
        rotation_rad=slope * b_grid,
        probabilities=noon.measurement_rates(
            noon.make_noon_from_pair(), channel=noon.rotation_jones(slope * b_grid)
        ),
    )


def test_criterion_9a_lossless_ratio():
    slope = 50.0
    b_grid = np.arange(15e-3, 25.001e-3, 0.1e-3)
    scan = _lossless_rotation_scan(slope, b_grid)
    rep = noon.fisher_information(scan, 20e-3)
    sql = noon.sql_fisher_information(*_rotation_transfers(slope, 20e-3, 0.1e-3), 0.1e-3)
    ratio = rep.fi_per_photon / sql
    ok = abs(ratio - 2.0) <= 1e-3
    _report(
        "#9a lossless NooN/SQL ratio",
        ok,
        f"ratio {ratio:.5f} vs 2.000 +- 1e-3 (FI/pair {rep.fi_pair:.1f}, SQL {sql:.1f})",
    )


def test_criterion_9b_finite_difference_matches_closed_form():
    slope = 50.0
    b_grid = np.arange(15e-3, 25.001e-3, 0.1e-3)
    scan = _lossless_rotation_scan(slope, b_grid)
    rep = noon.fisher_information(scan, 20e-3)
    exact = ideal_noon_fisher_pair(slope)
    err = abs(rep.fi_pair - exact) / exact
    sql = noon.sql_fisher_information(*_rotation_transfers(slope, 20e-3, 0.1e-3), 0.1e-3)
    err_sql = abs(sql - ideal_single_fisher(slope)) / ideal_single_fisher(slope)
    ok = err <= 1e-4 and err_sql <= 1e-4
    _report(
        "#9b finite differences vs closed form",
        ok,
        f"pair FI rel err {err:.2e}, SQL rel err {err_sql:.2e} (<= 1e-4)",
    )


def test_criterion_9c_super_sql_window(atoms, sensing_cell, noon_line_hz, sensing_scan_fine):
    best = None
    for b_mt in (34.0, 40.0, 44.0, 48.0):
        rep = noon.fisher_information(sensing_scan_fine, b_mt * 1e-3)

        fields = _at_fisher_fields(b_mt * 1e-3, 0.25e-3)
        t_plus, t_minus, _ = vapor.transfer_vs_field(atoms, sensing_cell, noon_line_hz, fields)
        sql = noon.sql_fisher_information(t_plus, t_minus, 0.25e-3)
        if rep.fi_per_photon > sql:
            best = (b_mt, rep.fi_per_photon / sql)
            break
    _report(
        "#9c super-SQL window",
        best is not None,
        f"NooN beats SQL at B={best[0] if best else '?'} mT "
        f"(ratio {best[1]:.2f})" if best else "no advantage found in [30, 50] mT",
    )


def test_criterion_9d_loss_variation_bonus(atoms, sensing_cell, noon_line_hz):
    transfer = vapor.transfer_vs_field(atoms, sensing_cell, noon_line_hz, _at_fisher_fields(44e-3, 0.25e-3))
    full, frozen = noon.fisher_information_frozen_loss(noon.make_noon_from_pair(), transfer, 0.25e-3)
    ok = full > frozen
    _report(
        "#9d field-dependent loss adds information",
        ok,
        f"FI/pair live loss {full:.0f} > frozen loss {frozen:.0f} "
        f"(+{(full / frozen - 1) * 100:.1f}%)",
    )


# 10 -----------------------------------------------------------------------


def test_criterion_10_property_suites(atoms, tmp_path):
    from atompairs.atoms import build_hamiltonian, diagonalize

    rng = np.random.default_rng(0)
    # Breit-Rabi spot checks
    worst = 0.0
    for b in rng.uniform(0.0, 60e-3, 10):
        iso = atoms["Rb87"]
        con = iso.manifolds["5S1/2"]
        num = diagonalize(build_hamiltonian(iso, "5S1/2", b)).energies_hz
        exact = breit_rabi_energies(iso.nuclear_spin, con.g_J, iso.g_I, con.A_hfs_hz, b)
        worst = max(worst, np.abs(num - exact).max() / ((iso.nuclear_spin + 0.5) * con.A_hfs_hz))
    ok_br = worst < 1e-9

    # unitarity / hermiticity sample
    ham = build_hamiltonian(atoms["Rb85"], "5P1/2", 33e-3)
    spec = diagonalize(ham)
    ok_herm = np.abs(ham.matrix_hz - ham.matrix_hz.conj().T).max() < 1e-6
    ok_unit = np.abs(
        spec.eigenvectors @ spec.eigenvectors.conj().T - np.eye(ham.dim)
    ).max() < 1e-10

    # bin-overlap conservation, exact
    from atompairs.coincidences import _tooth_bin_weights

    w = _tooth_bin_weights(rng.uniform(-30, 30, 100), np.arange(-50, 51))
    ok_bins = np.abs(w.sum(axis=1) - 1.0).max() < 1e-12

    # passivity of a cell transfer
    cell = vapor.VaporCellConfig(
        length_m=0.075,
        temperature_k=356.0,
        isotope_fractions=atoms.natural_fractions(),
        droop_fraction=0.15,
    )
    path = vapor.VaporPath(atoms, cell, 49e-3, slices=8)
    grid = vapor.make_frequency_grid(atoms.d1_center_hz(), 4e9, 100e6)
    t_plus, t_minus = path.transfer_at(grid)
    ok_passive = max(np.abs(t_plus).max(), np.abs(t_minus).max()) <= 1.0 + 1e-12

    # seeded determinism, byte identical
    import hashlib

    from atompairs.cli import main

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["--out-dir", str(out_a), "--seed", "5", "scenario", "run", "fig4-g2-comb"])
    main(["--out-dir", str(out_b), "--seed", "5", "scenario", "run", "fig4-g2-comb"])

    def digest(d):
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(d.iterdir())
        }

    ok_det = digest(out_a) == digest(out_b)

    ok = ok_br and ok_herm and ok_unit and ok_bins and ok_passive and ok_det
    _report(
        "#10 property suites",
        ok,
        f"Breit-Rabi worst rel {worst:.1e}; hermiticity {ok_herm}; unitarity {ok_unit}; "
        f"bin conservation {ok_bins}; passivity {ok_passive}; determinism {ok_det}",
    )
