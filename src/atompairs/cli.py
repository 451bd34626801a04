"""Command-line front end.

One subcommand per scenario (spectrum, fadof, matching, purity, g2,
interference, reconstruct, superresolution, spectroscopy, noon-scan) plus
``scenario run SOURCE [SOURCE ...]`` of presets and scenario files.  Each
scenario's parameters, with their defaults, are declared once in ``PARAMS``:
the subcommand flags, the checks on scenario files and the values the runners
read all derive from that table, and a preset in ``PRESETS`` sets only the
keys its figure changes.  All
outputs are plain CSV/JSON tables; a manifest with SHA-256 hashes accompanies
every run so that seeded runs can be verified byte for byte.

Exit codes: 0 ok, 2 configuration error, 3 numeric error, 4 coverage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import shutil
import sys
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from atompairs import biphoton, cavity, coincidences, filters, noon, vapor
from atompairs.atoms import AtomLibrary, build_hamiltonian, diagonalize, load_atom_data
from atompairs.errors import ConfigError, CoverageError, FitFailure, NumericError, check_points
from atompairs.parallel import fork_join

EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_COVERAGE = 4


# cells (rows x columns) formatted per block: one block's Python floats, the
# tuple of them and its formatted text stay near 0.3 MB however wide the
# table; 2^15 cells wrote no faster and held 2.1 MB
CSV_BLOCK_CELLS = 1 << 12
# cells from which a table is formatted in two processes: on a 2-core host
# the fork broke even at about 24k cells of 4 columns and saved a quarter
# of the time at 2^16
PARALLEL_CELLS = 1 << 16


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]):
    """One row per index; integer columns as ``%d``, all others as ``%.12g``.
    NumericError, before the file is opened, if a cell is a NaN or infinite.
    A table of ``PARALLEL_CELLS`` cells or more is formatted in two processes
    where a child can be forked (see ``_write_split``)."""
    columns = [np.asarray(col) for col in columns]
    if bad := [name for name, col in zip(header, columns) if not np.isfinite(col).all()]:
        raise NumericError(f"{Path(path).name}: non-finite values in column(s) {', '.join(bad)}")
    row = ",".join("%d" if np.issubdtype(col.dtype, np.integer) else "%.12g" for col in columns)
    row += "\n"
    blocks = range(0, min(map(len, columns)), max(1, CSV_BLOCK_CELLS // len(columns)))
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if blocks.stop * len(columns) >= PARALLEL_CELLS:
            _write_split(fh, row, columns, blocks)
        else:
            _write_rows(fh, row, columns, blocks)


def _write_rows(fh, row: str, columns: list, blocks: range):
    """The rows of ``blocks``, one ``%`` per block over the row template
    repeated, with the block's cells in row order."""
    for a in blocks:
        block = [col[a : a + blocks.step].tolist() for col in columns]
        fh.write(row * len(block[0]) % tuple(chain.from_iterable(zip(*block))))


def _write_split(fh, row: str, columns: list, blocks: range):
    """The rows of ``blocks``, the ones from the block boundary nearest the
    middle formatted by a forked child (``parallel.fork_join``) into an
    unnamed file while this process formats the head, then appended; all in
    this process if no child can be forked.  OSError, after the child is
    reaped, if it failed; the child writes the cause to stderr."""
    half = round(blocks.stop / 2 / blocks.step)
    head, rest = blocks[:half], blocks[half:]
    name = Path(fh.name).name
    with tempfile.TemporaryFile(dir=Path(fh.name).parent) as tail:

        def child():
            with open(tail.fileno(), "w", newline="\n", closefd=False) as out:
                _write_rows(out, row, columns, rest)

        status = fork_join(child, lambda: _write_rows(fh, row, columns, head), f"{name}: rows {rest.start} to {blocks.stop}")
        if status is None:
            return _write_rows(fh, row, columns, blocks)
        if status:
            raise OSError(f"{name}: the process formatting rows {rest.start} to {blocks.stop} exited with {status}")
        fh.flush()
        tail.seek(0)
        shutil.copyfileobj(tail, fh.buffer, 1 << 16)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def write_json(path: Path, payload):
    """``payload`` as indented JSON; NumericError, before the file is opened,
    if it holds a NaN or an infinity, which JSON cannot state."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"{Path(path).name}: {exc}") from None
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def _arange(stop: float, step: float, what: str) -> np.ndarray:
    """``np.arange(0, stop, step)`` for a finite step > 0, refused by the
    point cap before it is allocated."""
    with np.errstate(divide="ignore", over="ignore"):
        check_points(np.ceil(np.float64(stop) / step), what)
    return np.arange(0.0, stop, step)


class OutputSink:
    """Collects produced files in a staging directory beside ``out_dir`` and
    writes the manifest there; ``commit`` moves them into ``out_dir``, so a
    run refused before then leaves ``out_dir`` as it found it.  An ``out_dir``
    that is, or lies under, a file is refused before anything is staged."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        if file := next((p for p in [self.out_dir, *self.out_dir.parents] if p.exists() and not p.is_dir()), None):
            raise ConfigError(f"--out-dir {self.out_dir}: {file} is a file, not a directory")
        self.out_dir.parent.mkdir(parents=True, exist_ok=True)
        self.staging = Path(tempfile.mkdtemp(prefix=f".{self.out_dir.name}.", dir=self.out_dir.parent))
        self.files: list[Path] = []

    def path(self, name: str) -> Path:
        p = self.staging / name
        self.files.append(p)
        return p

    def manifest(self, meta: dict):
        files = {p.name: _sha256(p) for p in self.files}
        write_json(self.staging / "manifest.json", {"meta": meta, "files": files})

    def commit(self):
        """Move the files into ``out_dir``, the manifest last."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for p in [*self.files, self.staging / "manifest.json"]:
            shutil.move(p, self.out_dir / p.name)


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


@contextmanager
def _naming(**keys):
    """Re-raise a library ConfigError under the ``params.`` key of its first word."""
    try:
        yield
    except ConfigError as exc:
        if (key := keys.get(str(exc).split()[0])) is None:
            raise
        raise ConfigError(f"params.{key}: {exc}") from None


# a frequency grid's refusals ("frequency grid would ...", "grid spacing must ...") name both its keys
_FREQUENCY_GRID = dict.fromkeys(["frequency", "grid"], "spacing_mhz and params.half_span_ghz")


def run_spectrum(p, atoms, sink, seed):
    """complex refractive index n+/n- of a cell"""
    with _naming(cell="length_cm", buffer="buffer_mhz"):
        cell = vapor.VaporCellConfig(
            length_m=p["length_cm"] / 100.0,
            temperature_k=p["temp_k"],
            isotope_fractions=atoms.natural_fractions(),
            buffer_fwhm_hz=p["buffer_mhz"] * 1e6,
        )
    center = atoms.d1_center_hz(cell.isotope_fractions)
    with _naming(**_FREQUENCY_GRID):
        grid = vapor.make_frequency_grid(center, p["half_span_ghz"] * 1e9, p["spacing_mhz"] * 1e6)
    vapor.check_spacing(cell, atoms, p["spacing_mhz"] * 1e6)
    with _naming(field="field_mt"):
        path = vapor.VaporPath(atoms, cell, p["field_mt"] * 1e-3, slices=1)
    n_plus, n_minus = path.index_at(grid, path.b_center_t)
    write_csv(
        sink.path("index.csv"),
        ["frequency_Hz", "re_n_plus", "im_n_plus", "re_n_minus", "im_n_minus"],
        [grid, n_plus.real, n_plus.imag, n_minus.real, n_minus.imag],
    )
    return {"center_hz": center, "points": int(grid.size)}


def _fadof(p, atoms, half_span_hz, spacing_hz):
    """(spectrum, D1 center) of the Faraday filter on a grid about the center."""
    with _naming(cell="length_cm"):
        cell = vapor.VaporCellConfig(
            length_m=p["length_cm"] / 100.0,
            temperature_k=p["temp_k"],
            isotope_fractions=atoms.natural_fractions(),
        )
    center = atoms.d1_center_hz(cell.isotope_fractions)
    grid = vapor.make_frequency_grid(center, half_span_hz, spacing_hz)
    vapor.check_spacing(cell, atoms, spacing_hz)
    with _naming(field="field_mt"):
        spec = filters.fadof_spectrum(cell, p["field_mt"] * 1e-3, p["extinction"], grid, atoms)
    return spec, center


def run_fadof(p, atoms, sink, seed):
    """Faraday filter spectrum and metrics"""
    if p["half_span_ghz"] <= p["window_ghz"] / 2:  # holds the grid wherever the peak falls
        raise CoverageError("passband window holds the whole grid; no stopband to reject")
    with _naming(**_FREQUENCY_GRID):
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
    with _naming(cavity="fsr_mhz and params.linewidth_mhz"):
        cfg = cavity.CavityConfig(
            fsr_hz=p["fsr_mhz"] * 1e6,
            linewidth_hz=p["linewidth_mhz"] * 1e6,
            degenerate_hz=nu0,
            envelope_fwhm_hz=p["envelope_ghz"] * 1e9,
        )
    comb = cavity.mode_comb(cfg)
    passed = cavity.filtered_pair_rate(comb, spec)
    return spec, nu0, comb, passed


def _write_comb(sink, comb, passed):
    write_csv(
        sink.path("comb.csv"),
        ["mode_index", "frequency_Hz", "weight", "mode_transmission", "pair_weight"],
        [comb.k, comb.frequency_hz, comb.weight, passed.mode_transmission, passed.pair_weight],
    )


def run_matching(p, atoms, sink, seed):
    """filter, mirrored filter and pair comb"""
    spec, nu0, comb, passed = _matching_pieces(p, atoms)
    mirror = filters.mirrored_transmission(spec, nu0)
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
    spec, nu0, comb, passed = _matching_pieces(p, atoms)
    with _naming(buffer="hot_cell_buffer_mhz"):
        hot = vapor.VaporCellConfig(
            length_m=0.10,
            temperature_k=p["hot_cell_temp_k"],
            isotope_fractions=atoms.natural_fractions(),
            buffer_fwhm_hz=p["hot_cell_buffer_mhz"] * 1e6,
        )
    hot_t = vapor.blocking_cell_transmission(hot, atoms)
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
    # each refusal begins with the field it refuses: t0 past 2^53 bins, or a
    # value in its domain whose unit conversion leaves the float range
    with _naming(gamma1="linewidth_mhz", t_bin_s="tbin_ns", t0_s="t0_ns", round_trip_s="fsr_mhz"):
        env = coincidences.G2Envelope.from_linewidth(p["linewidth_mhz"] * 1e6)
        det = coincidences.DetectionModel(
            t_bin_s=p["tbin_ns"] * 1e-9,
            t0_s=p["t0_ns"] * 1e-9,
            rate1_hz=p["rate1_hz"],
            rate2_hz=p["rate2_hz"],
            round_trip_s=1.0 / (p["fsr_mhz"] * 1e6),
        )
    lo, hi = -p["bins"] // 2, p["bins"] // 2 + 1
    check_points(hi - lo, "params.bins")
    bins = np.arange(lo, hi)
    with _naming(comb="linewidth_mhz and params.fsr_mhz"):  # comb teeth past the point cap
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
    with _naming(tau="step_ns and params.half_span_ns", bandwidth="bandwidth_mhz"):
        tau = biphoton.symmetric_tau_grid(p["half_span_ns"] * 1e-9, p["step_ns"] * 1e-9)
        return biphoton.ideal_opo_psi(p["bandwidth_mhz"] * 1e6, p["pair_phase_rad"], tau)


def run_interference(p, atoms, sink, seed):
    """two-photon interference against the coherent reference"""
    psi = _ideal_psi(p)
    phases = np.radians(p["phases_deg"])
    records = biphoton.simulate_records(psi, p["alpha"], phases, p["exposure"], noise=p["noise"], seed=seed)
    write_csv(
        sink.path("interference.csv"),
        ["tau_ns"] + [f"phase_{np.degrees(ph):g}deg" for ph in records.phases_rad],
        [psi.tau_s * 1e9, *records.counts],
    )
    floor = p["alpha"] ** 4 / 4.0 * p["exposure"]
    return {"coherent_floor_counts": floor, "n_phases": len(records.phases_rad)}


def run_reconstruct(p, atoms, sink, seed):
    """biphoton amplitude/phase reconstruction"""
    alpha = p["alpha"]
    if p["records"] is not None:
        payload = _read_json(p["records"])
        try:
            alpha = float(payload["alpha"])
            records = biphoton.InterferenceRecords(
                phases_rad=np.asarray(payload["phases_rad"], dtype=float),
                tau_s=np.asarray(payload["tau_ns"], dtype=float) * 1e-9,
                counts=np.asarray(payload["counts"], dtype=float),
                exposure=float(payload["exposure"]),
            )
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise ConfigError(f"params.records: bad records bundle: {exc}") from exc
        if not (np.isfinite(records.exposure) and records.exposure > 0):
            raise ConfigError("params.records: the bundle's exposure must be finite and > 0")
    else:
        phases = np.linspace(0.0, np.pi, p["n_phases"], endpoint=False)
        records = biphoton.simulate_records(_ideal_psi(p), alpha, phases, p["exposure"], noise=p["noise"], seed=seed)
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
    step = np.radians(p["angle_step_deg"])
    angles = _arange(np.pi + step / 2, step, "params.angle_step_deg: the analyzer scan")
    surrogate = noon.surrogate_noon_state(p["fidelity"], p["two_phi"])
    # undo the basis-mapping quarter-wave plate to recover the source state
    qwp_back = noon.OpticalElement(kind="QWP", jones=noon.qwp_jones(np.pi / 4).conj().T)
    source_state = noon.apply_element(surrogate, qwp_back)
    single = noon.pure_state([1.0, 0, 0, 0])
    singles = noon.measurement_rates(single, analyzer_hwp_rad=angles).singles_h
    pair = noon.measurement_rates(source_state, analyzer_hwp_rad=angles)
    write_csv(
        sink.path("superresolution.csv"),
        ["hwp_deg", "singles_h", "coinc_hh", "coinc_hv", "coinc_vv"],
        [np.degrees(angles), singles, pair.hh, pair.hv, pair.vv],
    )
    f_max, phi = noon.noon_fidelity(surrogate)
    write_json(sink.path("state.json"), rho_to_json(surrogate.rho))
    report = {
        "fidelity_max": f_max,
        "fidelity_two_phi": 2 * phi,
        "coincidence_visibility": noon.visibility(pair.hh),
        "coincidence_oscillations": noon.count_oscillations(pair.hh),
        "singles_oscillations": noon.count_oscillations(singles),
    }
    write_json(sink.path("superresolution.json"), report)
    return report


def _sensing_cell(p, temp_c):
    frac = p["rb85_fraction"]
    with _naming(cell="length_mm"):
        return vapor.VaporCellConfig(
            length_m=p["length_mm"] / 1e3,
            temperature_k=temp_c + 273.15,
            isotope_fractions={"Rb85": frac, "Rb87": 1.0 - frac},
            droop_fraction=p["droop_fraction"],
        )


def run_spectroscopy(p, atoms, sink, seed):
    """transmission spectroscopy grid of the sensing cell"""
    center = atoms.d1_center_hz()
    with _naming(**_FREQUENCY_GRID):
        grid = vapor.make_frequency_grid(center, p["half_span_ghz"] * 1e9, p["spacing_mhz"] * 1e6)
    header = ["frequency_Hz", "detuning_GHz"]
    cols = [grid, (grid - center) / 1e9]
    widths = {}
    for temp_c in p["temps_c"]:
        cell = _sensing_cell(p, temp_c)
        vapor.check_spacing(cell, atoms, p["spacing_mhz"] * 1e6)
        with _naming(field="fields_mt"):
            path = vapor.VaporPath(atoms, cell, np.array(p["fields_mt"]) * 1e-3, slices=p["slices"])
        # one row per field; the (2, fields, grid) transmissions are not kept
        trans = np.add(*path.transmission_at(grid))
        trans *= 0.5
        for b_mt, row in zip(p["fields_mt"], trans):
            header.append(f"T_{temp_c:g}C_{b_mt:g}mT")
            cols.append(row)
            absorb = 1.0 - row
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
    b_list = _arange(p["b_max_mt"] * 1e-3 + 1e-9, p["b_step_mt"] * 1e-3, "params.b_step_mt: the field scan")
    # one pass over the scan's fields, then b* and b* +- h of the Fisher block
    h_t, n = FISHER_STEP_MT * 1e-3, b_list.size
    b_star = None if p["fisher_at_mt"] is None else p["fisher_at_mt"] * 1e-3
    if b_star is not None:
        try:
            noon.fisher_scan_index(b_list, b_star)
        except ConfigError as exc:
            raise ConfigError(f"params.fisher_at_mt: {exc}") from None
    if n < 2:  # a single field has no fringe to count or to read a visibility from
        raise CoverageError(f"params.b_max_mt and params.b_step_mt: the field scan holds {n} field; it needs at least 2")
    fisher_fields = [] if b_star is None else b_star + np.array([0.0, h_t, -h_t])
    with _naming(probe="detuning_ghz"):
        transfer = vapor.transfer_vs_field(atoms, cell, nu, np.concatenate([b_list, fisher_fields]))
    scan = noon.sensing_scan(state, b_list, [t[:n] for t in transfer])
    probs = scan.probabilities
    cols = {
        "b_mT": scan.b_t * 1e3,
        "rotation_rad": scan.rotation_rad,
        "eta": scan.eta,
        "singles_H": probs.singles_h,
        "singles_V": probs.singles_v,
        "coinc_HH": probs.hh,
        "coinc_HV": probs.hv,
        "coinc_VV": probs.vv,
        "p_one_H": probs.one_h,
        "p_one_V": probs.one_v,
        "p_none": probs.none,
    }
    write_csv(sink.path("scan.csv"), list(cols), list(cols.values()))

    # an opaque cell or a probe on the line leaves no rate to read
    keys = f"params.detuning_ghz = {p['detuning_ghz']!r}, params.length_mm = {p['length_mm']!r}"
    try:
        visibilities = noon.visibility(cols["coinc_HH"]), noon.visibility(cols["coinc_VV"])
    except NumericError as exc:
        raise NumericError(f"{exc} at the probe frequency {nu!r} Hz ({keys})") from None
    report = {
        "hh_visibility": visibilities[0],
        "vv_visibility": visibilities[1],
        "hh_oscillations": noon.count_oscillations(cols["coinc_HH"]),
        "singles_v_oscillations": noon.count_oscillations(cols["singles_V"]),
        "probe_frequency_hz": nu,
    }
    if b_star is not None:
        at_fisher = [t[n:] for t in transfer]
        fi = noon.fisher_information(scan, b_star)
        sql = noon.sql_fisher_information(*at_fisher[:2], h_t)
        if sql == 0:  # the probe does not sense the field: sql_ratio would be 0/0 or infinite
            raise NumericError(f"sql_ratio: the SQL Fisher information is 0 at the probe frequency {nu!r} Hz ({keys})")
        full, frozen = noon.fisher_information_frozen_loss(state, at_fisher, h_t)
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


# One table per scenario: each key maps to its one default, and the default's
# type is the key's type.  A tuple lists a string key's choices, the first
# being the default.  A type is the default of a key left unset unless given:
# ``float`` an optional number, ``Path`` the path of an existing file.
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
        "half_span_ghz": 8.0, "spacing_mhz": 0.5,
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
        "exposure": 7.0, "noise": True, "records": Path,
    },
    "superresolution": {"fidelity": 0.99, "two_phi": 0.20, "angle_step_deg": 2.0},
    "spectroscopy": {
        **_SENSING_CELL, "temps_c": [22.0, 53.0, 83.0],
        "fields_mt": [0.0, 12.0, 24.0, 37.0, 49.0, 58.0],
        "half_span_ghz": 6.0, "spacing_mhz": 0.5, "slices": 8,
    },
    "noon-scan": {
        **_SENSING_CELL, "cell_temp_c": 70.0, "detuning_ghz": float,
        "imbalance": 0.15, "b_max_mt": 50.0, "b_step_mt": 0.5,
        "fisher_at_mt": float, "state": Path,
    },
}

@dataclass(frozen=True)
class Domain:
    """A numeric key's values: finite, from ``lo`` to ``hi``, each end closed
    ("[", "]") or open as ``ends`` says; a list holds at least ``least`` such."""

    lo: float
    hi: float
    ends: str = "()"
    least: int = 0

    def __str__(self):
        return f"{self.ends[0]}{self.lo}, {self.hi}{self.ends[1]}" + (f", at least {self.least}" if self.least else "")

    def __contains__(self, x):
        above = self.lo <= x if self.ends[0] == "[" else self.lo < x
        return above and (x <= self.hi if self.ends[1] == "]" else x < self.hi)

    def edges(self, integer: bool = False) -> tuple[list, list]:
        """The numbers just outside: nan, +-inf and each finite end, itself where
        open, else the next number beyond it (the next int if ``integer``); and
        the numbers just inside each finite end."""
        outside, within = [math.nan, math.inf, -math.inf], []
        for end, closed, away in [(self.lo, self.ends[0] == "[", -1), (self.hi, self.ends[1] == "]", 1)]:
            if math.isfinite(end):
                near = [end + d if integer else math.nextafter(end, d * math.inf) for d in (away, -away)]
                outside.append(near[0] if closed else end)
                within.append(end if closed else near[1])
        return outside, within


# One domain per key name, shared by every scenario.  Temperatures: number_density's
# (250, 450) K, in deg C from the least whose sum with 273.15 exceeds 250; analyzer
# step: below half the 45 deg two-photon fringe; alpha: alpha^4 a float; phases (rad
# or deg): within 1e6, where floats are 1.2e-10 apart; Fisher point: its field step.
FISHER_STEP_MT = 0.25  # noon-scan's Fisher block reads the scan at b* and b* +- this
_ANY, _POSITIVE, _NON_NEGATIVE = Domain(-math.inf, math.inf), Domain(0, math.inf), Domain(0, math.inf, "[)")
_KELVIN, _CELSIUS = Domain(250, 450), Domain(-23.14999999999996, 176.85, "[)")
_PHASE, _FRACTION, _COUNT = Domain(-(10**6), 10**6, "[]"), Domain(0, 1, "[)"), Domain(1, math.inf, "[)")
DOMAINS = {
    **dict.fromkeys(["t0_ns", "detuning_ghz", "imbalance"], _ANY),
    **dict.fromkeys(["length_cm", "length_mm", "spacing_mhz", "window_ghz", "fsr_mhz", "linewidth_mhz",
                     "envelope_ghz", "tbin_ns", "half_span_ns", "step_ns", "bandwidth_mhz", "b_step_mt"], _POSITIVE),
    **dict.fromkeys(["field_mt", "buffer_mhz", "hot_cell_buffer_mhz", "half_span_ghz", "rate1_hz", "rate2_hz",
                     "exposure", "b_max_mt"], _NON_NEGATIVE),
    "temp_k": _KELVIN, "hot_cell_temp_k": _KELVIN, "temps_c": _CELSIUS, "cell_temp_c": _CELSIUS,
    "pair_phase_rad": _PHASE, "two_phi": _PHASE, "phases_deg": Domain(-(10**6), 10**6, "[]", least=3),
    "extinction": _FRACTION, "leak_fraction": _FRACTION, "rb85_fraction": Domain(0, 1, "[]"),
    "droop_fraction": Domain(0, 0.5, "[)"), "fidelity": Domain(0.25, 1, "[]"), "angle_step_deg": Domain(0, 22.5),
    "fields_mt": Domain(0, math.inf, "[)", least=1), "slices": _COUNT, "bins": _COUNT,
    "n_phases": Domain(3, math.inf, "[)"), "alpha": Domain(0, biphoton.ALPHA_MAX, "[)"),
    "fisher_at_mt": Domain(FISHER_STEP_MT, math.inf, "[)"),
}

# The paper's figures: each names its scenario and only the keys it sets away
# from that scenario's defaults in PARAMS.  A dump of one is a scenario file.
PRESETS: dict[str, dict] = {
    "fig2-fadof": {"scenario": "fadof", "params": {}},
    "fig3-matching": {"scenario": "matching", "params": {}},
    "fig4-g2-comb": {"scenario": "g2", "params": {"t0_ns": 37.4}},
    "fig5-interference": {"scenario": "interference", "params": {}},
    "fig6-reconstruction": {"scenario": "reconstruct", "params": {}},
    "fig7-superresolution": {"scenario": "superresolution", "params": {}},
    "fig10-spectroscopy": {"scenario": "spectroscopy", "params": {"spacing_mhz": 1.0, "slices": 2}},
    "fig11-sensing": {"scenario": "noon-scan", "params": {"fisher_at_mt": 44.0}},
}

# key suffix -> the unit as flags spell it (field_mt -> --field-mT)
_UNITS = {"k": "K", "c": "C", "hz": "Hz", "mhz": "MHz", "ghz": "GHz", "mt": "mT"}


def flag_of(key: str) -> str:
    """The command-line flag that sets parameter ``key``."""
    *words, last = key.split("_")
    return "--" + "-".join(words + [_UNITS.get(last, last)])


def _default(spec):
    if isinstance(spec, tuple):
        return spec[0]
    return None if isinstance(spec, type) else spec


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
    """``value`` for ``key``, of the type its default ``spec`` declares and in the key's domain."""
    if isinstance(spec, tuple):
        if value in spec:
            return value
        raise ConfigError(f"params.{key}: {value!r} is not one of {', '.join(spec)}")
    if isinstance(spec, type) and value is None:
        return None
    kind = spec if isinstance(spec, type) else type(spec)
    accepts, store = _TYPES[kind]
    if not accepts(value):
        expected = "an existing file" if kind is Path else kind.__name__
        raise ConfigError(f"params.{key}: expected {expected}, got {value!r}")
    value = store(value)
    if domain := DOMAINS.get(key):
        entries = value if isinstance(value, list) else [value]
        if len(entries) < domain.least:
            raise ConfigError(f"params.{key}: needs at least {domain.least} entries, got {len(entries)}")
        if bad := [x for x in entries if x not in domain]:
            raise ConfigError(f"params.{key}: {bad[0]!r} is not in {domain}")
    return value


def load_scenario_config(source: str) -> dict:
    """Preset name, or a YAML/JSON file with {scenario, params, ...}."""
    if source in PRESETS:
        return json.loads(json.dumps(PRESETS[source]))  # deep copy
    path = Path(source)
    if not path.exists():
        raise ConfigError(
            f"{source!r} is neither a preset ({', '.join(sorted(PRESETS))}) "
            "nor an existing file"
        )
    import yaml  # only a scenario file needs it, so start-up does not pay its import
    try:
        payload = yaml.safe_load(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file: {exc}") from exc
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
            import difflib  # only this refusal needs it
            close = difflib.get_close_matches(key, table, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ConfigError(f"params.{key}: unknown key for {name}{hint}")
    resolved = {key: _check(key, spec, given.get(key, _default(spec))) for key, spec in table.items()}
    return name, resolved


def run_scenario(cfg: dict, atoms, out_dir, seed: int) -> dict:
    """Run one scenario; its files and manifest reach ``out_dir`` only if it
    completes.  A numpy overflow, division by zero or invalid operation in the
    runner is a NumericError naming the scenario; underflow stays silent, so
    that deep absorption reads 0."""
    name, params = validate_scenario(cfg)
    sink = OutputSink(Path(out_dir))
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            report = RUNNERS[name](params, atoms, sink, seed)
        sink.manifest({"scenario": name, "seed": seed, "report": report})
        sink.commit()
    except FloatingPointError as exc:
        raise NumericError(f"{name}: {exc}") from None
    finally:
        shutil.rmtree(sink.staging, ignore_errors=True)
    return report


def _scenario_runs(sources: list[str], out_dir: str):
    """(config, output directory) of each source, loaded when its turn comes:
    one source writes into ``out_dir``, several each into ``out_dir/<preset
    name or file stem>``, and two of one name are refused before any run."""
    names = [s if s in PRESETS else Path(s).stem for s in sources]
    if twice := sorted({n for n in names if names.count(n) > 1}):
        raise ConfigError(f"scenario run: two sources named {twice[0]!r} would write into one directory")
    for source, name in zip(sources, names):
        yield load_scenario_config(source), out_dir if len(sources) == 1 else Path(out_dir, name)


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
    if isinstance(spec, type):
        return {"type": str if spec is Path else spec, "default": None}
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
            sp.add_argument(flag_of(key), dest=key, help=f"{key} in {DOMAINS[key]}" if key in DOMAINS else key, **_argument(spec))

    sc = sub.add_parser("scenario", help="run named presets or scenario files")
    sc_sub = sc.add_subparsers(dest="scenario_command", required=True)
    sc_run = sc_sub.add_parser("run")
    sc_run.add_argument("source", nargs="+", help="preset name or YAML/JSON scenario file; several run in turn, "
                        "each into --out-dir/<preset name or file stem>, up to the first refusal")
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
            runs = _scenario_runs(args.source, args.out_dir)
        else:
            params = {key: getattr(args, key) for key in PARAMS[args.command]}
            runs = [({"scenario": args.command, "params": params}, args.out_dir)]
        for cfg, out_dir in runs:
            with warnings.catch_warnings():  # each run shows its warnings, as its own process would
                report = run_scenario(cfg, atoms, out_dir, args.seed)
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
