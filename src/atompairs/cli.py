"""Command-line front end.

One subcommand per scenario (spectrum, fadof, matching, purity, g2,
interference, reconstruct, superresolution, spectroscopy, noon-scan) plus
``scenario run <preset|path>``.  Each scenario's parameters, with their
defaults, are declared once in ``PARAMS``: the subcommand flags, the checks on
scenario files and the values the runners read all derive from that table.
All outputs are plain CSV/JSON tables; a manifest with SHA-256 hashes
accompanies every run so that seeded runs can be verified byte for byte.

Exit codes: 0 ok, 2 configuration error, 3 numeric error, 4 coverage error.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from atompairs import biphoton, cavity, coincidences, filters, noon, presets, vapor
from atompairs.atoms import AtomLibrary, build_hamiltonian, diagonalize, load_atom_data
from atompairs.errors import ConfigError, CoverageError, FitFailure, NumericError

EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_COVERAGE = 4


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]):
    """One row per index; integer columns as ``%d``, all others as ``%.12g``."""
    columns = [np.asarray(col) for col in columns]
    row = ",".join("%d" if np.issubdtype(col.dtype, np.integer) else "%.12g" for col in columns)
    row += "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % values for values in zip(*(col.tolist() for col in columns)))


def write_json(path: Path, payload):
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


class OutputSink:
    """Collects produced files and writes the manifest at the end."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.files: list[Path] = []

    def path(self, name: str) -> Path:
        p = self.out_dir / name
        self.files.append(p)
        return p

    def manifest(self, meta: dict):
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in self.files}
        write_json(self.out_dir / "manifest.json", {"meta": meta, "files": files})


def rho_to_json(rho: np.ndarray) -> dict:
    return {
        "basis": list(noon.BASIS),
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in rho],
    }


def rho_from_json(payload: dict) -> np.ndarray:
    try:
        rows = payload["matrix"]
        rho = np.array([[complex(re, im) for re, im in row] for row in rows])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad density-matrix payload: {exc}") from exc
    if rho.shape != (4, 4):
        raise ConfigError("density matrix must be 4x4")
    return rho


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def noon_frequency_hz(atoms: AtomLibrary) -> float:
    """Probe line used throughout: the most red-detuned D1 ground-state line
    of the minority isotope (F=2 -> F'=1 of Rb87 at zero field)."""
    iso = atoms["Rb87"]
    g = diagonalize(build_hamiltonian(iso, "5S1/2", 0.0))
    e = diagonalize(build_hamiltonian(iso, "5P1/2", 0.0))
    e_g = g.energies_hz[np.isclose(g.f_labels, 2.0)].mean()
    e_e = e.energies_hz[np.isclose(e.f_labels, 1.0)].mean()
    return float(e_e - e_g)


# ---------------------------------------------------------------- scenarios
#
# Every runner takes ``p``, its scenario's parameters resolved against
# ``PARAMS`` (all keys present, each of its default's type).


def run_spectrum(p, atoms, sink, seed):
    """complex refractive index n+/n- of a cell"""
    cell = vapor.VaporCellConfig(
        length_m=p["length_cm"] / 100.0,
        temperature_k=p["temp_k"],
        isotope_fractions=atoms.natural_fractions(),
        buffer_fwhm_hz=p["buffer_mhz"] * 1e6,
    )
    center = atoms.d1_center_hz(cell.isotope_fractions)
    grid = vapor.make_frequency_grid(center, p["half_span_ghz"] * 1e9, p["spacing_mhz"] * 1e6)
    path = vapor.VaporPath(atoms, cell, p["field_mt"] * 1e-3, slices=1)
    vapor._check_resolution(grid, path.min_feature_width_hz())
    n_plus, n_minus = path.index_at(grid, path.b_center_t)
    if p["format"] == "json":
        write_json(
            sink.path("index.json"),
            {
                "frequency_hz": [float(x) for x in grid],
                "n_plus": [[float(z.real), float(z.imag)] for z in n_plus],
                "n_minus": [[float(z.real), float(z.imag)] for z in n_minus],
            },
        )
    else:
        write_csv(
            sink.path("index.csv"),
            ["frequency_Hz", "re_n_plus", "im_n_plus", "re_n_minus", "im_n_minus"],
            [grid, n_plus.real, n_plus.imag, n_minus.real, n_minus.imag],
        )
    return {"center_hz": center, "points": int(grid.size)}


def _fadof(p, atoms, half_span_hz, spacing_hz):
    """(spectrum, D1 center) of the Faraday filter on a grid about the center."""
    cell = vapor.VaporCellConfig(
        length_m=p["length_cm"] / 100.0,
        temperature_k=p["temp_k"],
        isotope_fractions=atoms.natural_fractions(),
    )
    center = atoms.d1_center_hz(cell.isotope_fractions)
    pol = filters.PolarizerPair(extinction=p["extinction"])
    grid = vapor.make_frequency_grid(center, half_span_hz, spacing_hz)
    spec = filters.fadof_spectrum(cell, p["field_mt"] * 1e-3, pol, grid, atoms)
    return spec, center


def run_fadof(p, atoms, sink, seed):
    """Faraday filter spectrum and metrics"""
    spec, center = _fadof(p, atoms, p["half_span_ghz"] * 1e9, p["spacing_mhz"] * 1e6)
    window = p["window_ghz"] * 1e9
    peak = float(spec.grid_hz[int(np.argmax(spec.transmission))])
    metrics = filters.filter_metrics(spec, (peak - window, peak + window))
    write_csv(
        sink.path("fadof.csv"),
        ["frequency_Hz", "detuning_GHz", "transmission"],
        [spec.grid_hz, (spec.grid_hz - center) / 1e9, spec.transmission],
    )
    report = {
        "t_max": metrics.t_max,
        "fwhm_hz": metrics.fwhm_hz,
        "enbw_hz": metrics.enbw_hz,
        "rejection_db": metrics.rejection_db,
        "peak_offset_hz": metrics.peak_hz - center,
    }
    write_json(sink.path("fadof_metrics.json"), report)
    return report


def _matching_pieces(p, atoms):
    spec, _ = _fadof(p, atoms, 8e9, 0.5e6)
    nu0 = float(spec.grid_hz[int(np.argmax(spec.transmission))])
    cfg = cavity.CavityConfig(
        fsr_hz=p["fsr_mhz"] * 1e6,
        linewidth_hz=p["linewidth_mhz"] * 1e6,
        degenerate_hz=nu0,
        envelope_fwhm_hz=p["envelope_ghz"] * 1e9,
    )
    comb = cavity.mode_comb(cfg)
    passed = cavity.filtered_pair_rate(comb, spec)
    hot = vapor.VaporCellConfig(
        length_m=0.10,
        temperature_k=p["hot_cell_temp_k"],
        isotope_fractions=atoms.natural_fractions(),
        buffer_fwhm_hz=p["hot_cell_buffer_mhz"] * 1e6,
    )
    hot_t = vapor.blocking_cell_transmission(hot, 2e6, atoms)
    return spec, nu0, comb, passed, hot_t


def _write_comb(sink, comb, passed):
    write_csv(
        sink.path("comb.csv"),
        ["mode_index", "frequency_Hz", "weight", "mode_transmission", "pair_weight"],
        [comb.k, comb.frequency_hz, comb.weight, passed.mode_transmission, passed.pair_weight],
    )


def run_matching(p, atoms, sink, seed):
    """filter, mirrored filter and pair comb"""
    spec, nu0, comb, passed, hot_t = _matching_pieces(p, atoms)
    mirror = spec(2 * nu0 - spec.grid_hz)
    write_csv(
        sink.path("matching.csv"),
        ["frequency_Hz", "transmission", "mirror_transmission", "pair_product"],
        [spec.grid_hz, spec.transmission, mirror, spec.transmission * mirror],
    )
    _write_comb(sink, comb, passed)
    report = {"degenerate_hz": nu0, "degenerate_pair_fraction": passed.degenerate_pair_fraction()}
    write_json(sink.path("matching.json"), report)
    return report


def run_purity(p, atoms, sink, seed):
    """filtered-comb spectral purity report"""
    spec, nu0, comb, passed, hot_t = _matching_pieces(p, atoms)
    rep = cavity.spectral_purity(passed, p["leak_fraction"], hot_t)
    _write_comb(sink, comb, passed)
    report = {
        "spectral_purity": rep.spectral_purity,
        "degenerate_fraction": rep.degenerate_fraction,
        "degenerate_share_in_band": rep.degenerate_share_in_band,
        "in_band_modes": rep.in_band_modes,
        "degenerate_hz": nu0,
    }
    per_mode = {
        str(int(k)): [float(w), float(t), float(q)]
        for k, w, t, q in zip(comb.k, comb.weight, passed.mode_transmission, passed.pair_weight)
        if abs(k) <= 20
    }
    write_json(sink.path("purity.json"), {**report, "per_mode_table": per_mode})
    return report


def run_g2(p, atoms, sink, seed):
    """pair correlation histogram and fit"""
    if p["fsr_mhz"] <= 0 or p["bins"] < 1:
        raise ConfigError("params.fsr_mhz must be > 0 and params.bins >= 1")
    env = coincidences.G2Envelope.from_linewidth(p["linewidth_mhz"] * 1e6)
    det = coincidences.DetectionModel(
        t_bin_s=p["tbin_ns"] * 1e-9,
        t0_s=p["t0_ns"] * 1e-9,
        rate1_hz=p["rate1_hz"],
        rate2_hz=p["rate2_hz"],
        round_trip_s=1.0 / (p["fsr_mhz"] * 1e6),
    )
    bins = np.arange(-p["bins"] // 2, p["bins"] // 2 + 1)
    hist = coincidences.binned_histogram(env, det, p["mode"], bins)
    write_csv(
        sink.path("g2.csv"),
        ["bin_index", "delay_ns", "rate"],
        [hist.bin_index, hist.delays_s * 1e9, hist.values],
    )
    report = {"mode": hist.mode, "envelope_fwhm_ns": env.fwhm_s * 1e9}
    try:
        fit = coincidences.fit_envelope(hist)
        report.update(
            fit_gamma_sum=fit.gamma_sum,
            fit_fwhm_ns=fit.fwhm_s * 1e9,
            fit_t0_ns=fit.t0_s * 1e9,
            fit_floor=fit.floor,
        )
    except FitFailure as exc:
        report["fit_error"] = str(exc)
    write_json(sink.path("g2_fit.json"), report)
    return report


def _ideal_psi(p):
    tau = biphoton.symmetric_tau_grid(p["half_span_ns"] * 1e-9, p["step_ns"] * 1e-9)
    return biphoton.ideal_opo_psi(p["bandwidth_mhz"] * 1e6, p["pair_phase_rad"], tau)


def run_interference(p, atoms, sink, seed):
    """two-photon interference against the coherent reference"""
    psi = _ideal_psi(p)
    phases = np.radians(p["phases_deg"])
    records = biphoton.simulate_records(
        psi, p["alpha"], phases, p["exposure"], noise=p["noise"], seed=seed
    )
    write_csv(
        sink.path("interference.csv"),
        ["tau_ns"] + [f"phase_{np.degrees(r.phase_rad):g}deg" for r in records],
        [psi.tau_s * 1e9] + [r.counts for r in records],
    )
    floor = p["alpha"] ** 4 / 4.0 * p["exposure"]
    return {"coherent_floor_counts": floor, "n_phases": len(records)}


def run_reconstruct(p, atoms, sink, seed):
    """biphoton amplitude/phase reconstruction"""
    alpha = p["alpha"]
    if p["records"] is not None:
        payload = _read_json(p["records"])
        try:
            alpha = float(payload["alpha"])
            tau = np.asarray(payload["tau_ns"], dtype=float) * 1e-9
            records = [
                biphoton.InterferenceRecord(
                    phase_rad=float(ph),
                    tau_s=tau,
                    counts=np.asarray(counts, dtype=float),
                    exposure=float(payload["exposure"]),
                )
                for ph, counts in zip(payload["phases_rad"], payload["counts"])
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad records bundle: {exc}") from exc
    else:
        phases = np.linspace(0.0, np.pi, p["n_phases"], endpoint=False)
        records = biphoton.simulate_records(
            _ideal_psi(p), alpha, phases, p["exposure"], noise=p["noise"], seed=seed
        )
    rec = biphoton.reconstruct_wavefunction(records, alpha)
    wf = rec.wavefunction
    write_csv(
        sink.path("reconstruction.csv"),
        ["tau_ns", "amplitude_sq", "phase_rad", "phase_sigma_rad"],
        [wf.tau_s * 1e9, wf.amplitude**2, wf.phase, rec.phase_sigma_rad],
    )
    i0 = int(np.argmin(np.abs(wf.tau_s)))
    return {
        "phase_sigma_deg_at_zero": float(np.degrees(rec.phase_sigma_rad[i0])),
        "clipped_points": rec.clipped_points,
    }


def run_superresolution(p, atoms, sink, seed):
    """analyzer rotation scans: single photon vs pair super-resolution"""
    if p["angle_step_deg"] <= 0:
        raise ConfigError("params.angle_step_deg: must be > 0")
    step = np.radians(p["angle_step_deg"])
    angles = np.arange(0.0, np.pi + step / 2, step)
    surrogate = noon.surrogate_noon_state(p["fidelity"], p["two_phi"])
    # undo the basis-mapping quarter-wave plate to recover the source state
    qwp_back = noon.OpticalElement(kind="QWP", jones=noon.qwp_jones(np.pi / 4).conj().T)
    source_state = noon.apply_element(surrogate, qwp_back)
    single = noon.pure_state([1.0, 0, 0, 0])
    singles, hh, vv, hv = [], [], [], []
    for a in angles:
        probs = noon.measurement_rates(source_state, analyzer_hwp_rad=a)
        hh.append(probs.hh)
        vv.append(probs.vv)
        hv.append(probs.hv)
        singles.append(noon.measurement_rates(single, analyzer_hwp_rad=a).singles_h)
    write_csv(
        sink.path("superresolution.csv"),
        ["hwp_deg", "singles_h", "coinc_hh", "coinc_hv", "coinc_vv"],
        [np.degrees(angles), np.array(singles), np.array(hh), np.array(hv), np.array(vv)],
    )
    f_max, phi = noon.noon_fidelity(surrogate)
    write_json(sink.path("state.json"), rho_to_json(surrogate.rho))
    report = {
        "fidelity_max": f_max,
        "fidelity_two_phi": 2 * phi,
        "coincidence_visibility": noon.visibility(hh),
        "coincidence_oscillations": noon.count_oscillations(hh),
        "singles_oscillations": noon.count_oscillations(singles),
    }
    write_json(sink.path("superresolution.json"), report)
    return report


def _sensing_cell(p, temp_c):
    frac = p["rb85_fraction"]
    return vapor.VaporCellConfig(
        length_m=p["length_mm"] / 1e3,
        temperature_k=temp_c + 273.15,
        isotope_fractions={"Rb85": frac, "Rb87": 1.0 - frac},
        field_profile="quadratic" if p["droop_fraction"] else "uniform",
        droop_fraction=p["droop_fraction"],
    )


def run_spectroscopy(p, atoms, sink, seed):
    """transmission spectroscopy grid of the sensing cell"""
    center = atoms.d1_center_hz()
    grid = vapor.make_frequency_grid(center, p["half_span_ghz"] * 1e9, p["spacing_mhz"] * 1e6)
    header = ["frequency_Hz", "detuning_GHz"]
    cols = [grid, (grid - center) / 1e9]
    widths = {}
    for temp_c in p["temps_c"]:
        for b_mt in p["fields_mt"]:
            path = vapor.VaporPath(atoms, _sensing_cell(p, temp_c), b_mt * 1e-3, slices=p["slices"])
            t_plus, t_minus = path.transfer_at(grid)
            trans = 0.5 * (np.abs(t_plus) ** 2 + np.abs(t_minus) ** 2)
            header.append(f"T_{temp_c:g}C_{b_mt:g}mT")
            cols.append(trans)
            absorb = 1.0 - trans
            if absorb.sum() > 0:
                mu = float((grid * absorb).sum() / absorb.sum())
                widths[f"{temp_c:g}C_{b_mt:g}mT"] = float(
                    np.sqrt(((grid - mu) ** 2 * absorb).sum() / absorb.sum())
                )
    write_csv(sink.path("spectroscopy.csv"), header, cols)
    write_json(sink.path("spectroscopy_widths.json"), widths)
    return {"curves": len(header) - 2}


def run_noon_scan(p, atoms, sink, seed):
    """pair-probe Faraday sensing scan"""
    cell = _sensing_cell(p, p["cell_temp_c"])
    if p["detuning_ghz"] is not None:
        nu = atoms.d1_center_hz() + p["detuning_ghz"] * 1e9
    else:
        nu = noon_frequency_hz(atoms)
    if p["state"] is not None:
        state = noon.TwoPhotonPolState(rho_from_json(_read_json(p["state"])))
    else:
        state = noon.make_noon_from_pair(imbalance=p["imbalance"])
    if p["b_step_mt"] <= 0 or p["b_max_mt"] < 0:
        raise ConfigError("params.b_step_mt must be > 0 and params.b_max_mt >= 0")
    b_list = np.arange(0.0, p["b_max_mt"] * 1e-3 + 1e-9, p["b_step_mt"] * 1e-3)
    scan = noon.sensing_scan(state, cell, atoms, nu, b_list)
    cols = {
        "b_mT": np.array([s.b_t * 1e3 for s in scan]),
        "rotation_rad": np.array([s.rotation_rad for s in scan]),
        "eta": np.array([s.eta for s in scan]),
        "singles_H": np.array([s.probabilities.singles_h for s in scan]),
        "singles_V": np.array([s.probabilities.singles_v for s in scan]),
        "coinc_HH": np.array([s.probabilities.hh for s in scan]),
        "coinc_HV": np.array([s.probabilities.hv for s in scan]),
        "coinc_VV": np.array([s.probabilities.vv for s in scan]),
        "p_one_H": np.array([s.probabilities.one_h for s in scan]),
        "p_one_V": np.array([s.probabilities.one_v for s in scan]),
        "p_none": np.array([s.probabilities.none for s in scan]),
    }
    write_csv(sink.path("scan.csv"), list(cols), list(cols.values()))

    report = {
        "hh_visibility": noon.visibility(cols["coinc_HH"]),
        "vv_visibility": noon.visibility(cols["coinc_VV"]),
        "hh_oscillations": noon.count_oscillations(cols["coinc_HH"]),
        "singles_v_oscillations": noon.count_oscillations(cols["singles_V"]),
        "probe_frequency_hz": nu,
    }
    if p["fisher_at_mt"] is not None:
        b_star = p["fisher_at_mt"] * 1e-3
        fi = noon.fisher_information(scan, b_star)
        transfer = noon.probe_transfer(cell, atoms, nu)
        sql = noon.sql_fisher_information(lambda b: noon.circular_jones(*transfer(b)), b_star)
        full, frozen = noon.fisher_information_frozen_loss(state, transfer, b_star)
        report["fisher"] = {
            "b_mT": p["fisher_at_mt"],
            "fi_per_photon": fi.fi_per_photon,
            "fi_per_scattered": fi.fi_per_scattered,
            "sql_per_photon": sql,
            "sql_ratio": fi.fi_per_photon / sql,
            "fi_pair_live_loss": full,
            "fi_pair_frozen_loss": frozen,
        }
    write_json(sink.path("fisher.json"), report)
    return report


RUNNERS = {
    "spectrum": run_spectrum,
    "fadof": run_fadof,
    "matching": run_matching,
    "purity": run_purity,
    "g2": run_g2,
    "interference": run_interference,
    "reconstruct": run_reconstruct,
    "superresolution": run_superresolution,
    "spectroscopy": run_spectroscopy,
    "noon-scan": run_noon_scan,
}


# --------------------------------------------------------- parameter tables


@dataclass(frozen=True)
class Unset:
    """Default of a key left unset unless given: an optional ``float``, or the
    path of an existing file (``Path``)."""

    kind: type


OPTIONAL_FLOAT = Unset(float)
FILE = Unset(Path)

# One table per scenario: each key maps to its one default, and the default's
# type is the key's type.  A tuple lists a string key's choices, the first
# being the default.
_FADOF_CELL = {"field_mt": 4.5, "temp_k": 365.0, "length_cm": 10.0, "extinction": 1.8e-6}
_MATCHING = {
    **_FADOF_CELL, "fsr_mhz": 501.0, "linewidth_mhz": 8.4, "envelope_ghz": 150.0,
    "leak_fraction": 1.8e-6, "hot_cell_temp_k": 390.0, "hot_cell_buffer_mhz": 178.0,
}
_TAU_GRID = {"half_span_ns": 120.0, "step_ns": 1.0, "bandwidth_mhz": 8.1}
_SENSING_CELL = {"length_mm": 75.0, "rb85_fraction": 0.995, "droop_fraction": 0.15}
PARAMS: dict[str, dict] = {
    "spectrum": {
        "field_mt": 0.0, "temp_k": 300.0, "length_cm": 10.0, "buffer_mhz": 0.0,
        "half_span_ghz": 8.0, "spacing_mhz": 0.5, "format": ("csv", "json"),
    },
    "fadof": {**_FADOF_CELL, "window_ghz": 3.0, "half_span_ghz": 8.0, "spacing_mhz": 0.5},
    "matching": _MATCHING,
    "purity": _MATCHING,
    "g2": {
        "mode": ("multi", "single"), "fsr_mhz": 501.0, "linewidth_mhz": 8.4, "tbin_ns": 1.0,
        "t0_ns": 0.0, "rate1_hz": 0.0, "rate2_hz": 0.0, "bins": 240,
    },
    "interference": {
        **_TAU_GRID, "pair_phase_rad": 0.0, "alpha": 2.0**0.5,
        "phases_deg": [0.0, 45.0, 90.0, 135.0], "exposure": 50.0, "noise": False,
    },
    "reconstruct": {
        **_TAU_GRID, "pair_phase_rad": 0.35, "alpha": 2.0**0.5, "n_phases": 12,
        "exposure": 7.0, "noise": True, "records": FILE,
    },
    "superresolution": {"fidelity": 0.99, "two_phi": 0.20, "angle_step_deg": 2.0},
    "spectroscopy": {
        **_SENSING_CELL, "temps_c": [22.0, 53.0, 83.0],
        "fields_mt": [0.0, 12.0, 24.0, 37.0, 49.0, 58.0],
        "half_span_ghz": 6.0, "spacing_mhz": 0.5, "slices": 8,
    },
    "noon-scan": {
        **_SENSING_CELL, "cell_temp_c": 70.0, "detuning_ghz": OPTIONAL_FLOAT,
        "imbalance": 0.15, "b_max_mt": 50.0, "b_step_mt": 0.5,
        "fisher_at_mt": OPTIONAL_FLOAT, "state": FILE,
    },
}

# key suffix -> the unit as flags spell it (field_mt -> --field-mT)
_UNITS = {"k": "K", "c": "C", "hz": "Hz", "mhz": "MHz", "ghz": "GHz", "mt": "mT"}


def _flag(key: str) -> str:
    *words, last = key.split("_")
    return "--" + "-".join(words + [_UNITS.get(last, last)])


def _default(spec):
    if isinstance(spec, tuple):
        return spec[0]
    return None if isinstance(spec, Unset) else spec


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# type of a default -> (test of a given value, how the value is stored)
_TYPES = {
    float: (_number, float),
    int: (lambda v: _number(v) and isinstance(v, int), int),
    bool: (lambda v: isinstance(v, bool), bool),
    list: (lambda v: isinstance(v, list) and all(map(_number, v)), lambda v: [float(x) for x in v]),
    Path: (lambda v: isinstance(v, str) and Path(v).is_file(), str),
}


def _check(key: str, spec, value):
    """``value`` for ``key`` in the type its default ``spec`` declares."""
    if isinstance(spec, tuple):
        if value in spec:
            return value
        raise ConfigError(f"params.{key}: {value!r} is not one of {', '.join(spec)}")
    if isinstance(spec, Unset) and value is None:
        return None
    kind = spec.kind if isinstance(spec, Unset) else type(spec)
    accepts, store = _TYPES[kind]
    if not accepts(value):
        expected = "an existing file" if kind is Path else kind.__name__
        raise ConfigError(f"params.{key}: expected {expected}, got {value!r}")
    return store(value)


def load_scenario_config(source: str) -> dict:
    """Preset name, or a YAML/JSON file with {scenario, params, ...}."""
    if source in presets.PRESETS:
        return json.loads(json.dumps(presets.PRESETS[source]))  # deep copy
    path = Path(source)
    if not path.exists():
        raise ConfigError(
            f"{source!r} is neither a preset ({', '.join(sorted(presets.PRESETS))}) "
            "nor an existing file"
        )
    try:
        payload = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse scenario file: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("scenario file must hold a mapping")
    return payload


def validate_scenario(cfg: dict) -> tuple[str, dict]:
    """(scenario name, every key of its table: the value given, else the default)."""
    if "scenario" not in cfg:
        raise ConfigError("scenario: field is required")
    name = cfg["scenario"]
    if name not in RUNNERS:
        raise ConfigError(f"scenario.{name}: unknown scenario; have {sorted(RUNNERS)}")
    given = cfg.get("params", {})
    if not isinstance(given, dict):
        raise ConfigError("params: must be a mapping")
    table = PARAMS[name]
    for key in given:
        if key not in table:
            close = difflib.get_close_matches(key, table, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ConfigError(f"params.{key}: unknown key for {name}{hint}")
    resolved = {key: _check(key, spec, given.get(key, _default(spec))) for key, spec in table.items()}
    return name, resolved


def run_scenario(cfg: dict, atoms, out_dir, seed: int) -> dict:
    name, params = validate_scenario(cfg)
    sink = OutputSink(Path(out_dir))
    report = RUNNERS[name](params, atoms, sink, seed)
    sink.manifest({"scenario": name, "seed": seed, "report": report})
    return report


# -------------------------------------------------------------------- main


_GLOBAL_OPTIONS = {
    "--out-dir": {"default": "out", "help": "output directory"},
    "--seed": {"type": int, "default": 0},
    "--atom-data": {"default": None, "help": "override the atom constants file"},
}


def _argument(spec) -> dict:
    """argparse keywords of a flag whose default is ``spec``."""
    if isinstance(spec, tuple):
        return {"choices": spec, "default": spec[0]}
    if isinstance(spec, Unset):
        return {"type": str if spec.kind is Path else spec.kind, "default": None}
    if isinstance(spec, bool):
        return {"action": argparse.BooleanOptionalAction, "default": spec}
    if isinstance(spec, list):
        return {"type": float, "nargs": "+", "default": spec}
    return {"type": type(spec), "default": spec}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="atompairs", description=__doc__)
    for flag, kwargs in _GLOBAL_OPTIONS.items():
        p.add_argument(flag, **kwargs)
    sub = p.add_subparsers(dest="command", required=True)
    for name, table in PARAMS.items():
        sp = sub.add_parser(
            name,
            help=RUNNERS[name].__doc__,
            description="Each flag sets the scenario-file key named in its help.",
            formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        )
        for key, spec in table.items():
            sp.add_argument(_flag(key), dest=key, help=key, **_argument(spec))

    sc = sub.add_parser("scenario", help="run a named preset or scenario file")
    sc_sub = sc.add_subparsers(dest="scenario_command", required=True)
    sc_run = sc_sub.add_parser("run")
    sc_run.add_argument("source", help="preset name or YAML/JSON scenario file")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse would read the value of an unknown option ahead of the command
    # as the command ("--format json fadof" -> invalid choice 'json')
    for token in argv:
        if token in RUNNERS or token == "scenario":
            break
        if token.startswith("--") and token.split("=")[0] not in (*_GLOBAL_OPTIONS, "--help"):
            parser.error(f"{token}: not a global option; command options follow the command")
    args = parser.parse_args(argv)
    try:
        atoms = load_atom_data(args.atom_data)
        if args.command == "scenario":
            cfg = load_scenario_config(args.source)
        else:
            params = {key: getattr(args, key) for key in PARAMS[args.command]}
            cfg = {"scenario": args.command, "params": params}
        report = run_scenario(cfg, atoms, args.out_dir, args.seed)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, FitFailure) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except CoverageError as exc:
        print(f"coverage error: {exc}", file=sys.stderr)
        return EXIT_COVERAGE


if __name__ == "__main__":
    sys.exit(main())
