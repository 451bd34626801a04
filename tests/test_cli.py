import errno
import hashlib
import json
import os
import re
import runpy
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from atompairs.atoms import load_atom_data
from atompairs.cli import (
    CSV_BLOCK_CELLS,
    DOMAINS,
    PARALLEL_CELLS,
    PARAMS,
    PRESETS,
    RUNNERS,
    _sensing_cell,
    build_parser,
    main,
    rho_from_json,
    rho_to_json,
    run_scenario,
    validate_scenario,
    write_csv,
    write_json,
)
from atompairs.errors import MAX_POINTS, ConfigError, NumericError
from atompairs.vapor import VaporCellConfig, check_spacing

from reference import one_shot_csv
from test_resolution import limit_hz

ROOT = Path(__file__).resolve().parents[1]


def _limit_mhz(cell) -> float:
    return limit_hz(cell, load_atom_data()) / 1e6


def _natural_cell(temp_k) -> VaporCellConfig:
    return VaporCellConfig(
        length_m=0.10, temperature_k=temp_k, isotope_fractions=load_atom_data().natural_fractions()
    )


def _hash_dir(path: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


def test_g2_subcommand_writes_tables(tmp_path):
    out = tmp_path / "g2"
    rc = main(
        [
            "--out-dir",
            str(out),
            "g2",
            "--mode",
            "multi",
            "--t0-ns",
            "37.4",
            "--bins",
            "200",
        ]
    )
    assert rc == 0
    header = (out / "g2.csv").read_text().splitlines()[0]
    assert header == "bin_index,delay_ns,rate"
    fit = json.loads((out / "g2_fit.json").read_text())
    assert fit["envelope_fwhm_ns"] == pytest.approx(26.3, rel=5e-3)
    manifest = json.loads((out / "manifest.json").read_text())
    produced = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert set(manifest["files"]) == produced


def test_seeded_runs_are_byte_identical(tmp_path):
    args = ["scenario", "run", "fig6-reconstruction"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--out-dir", str(out_a), "--seed", "7"] + args) == 0
    assert main(["--out-dir", str(out_b), "--seed", "7"] + args) == 0
    assert _hash_dir(out_a) == _hash_dir(out_b)
    out_c = tmp_path / "c"
    assert main(["--out-dir", str(out_c), "--seed", "8"] + args) == 0
    assert _hash_dir(out_a) != _hash_dir(out_c)


def test_empty_config_exit_code(tmp_path):
    cfg = tmp_path / "empty.yaml"
    cfg.write_text("{}\n")
    rc = main(["--out-dir", str(tmp_path / "out"), "scenario", "run", str(cfg)])
    assert rc == 2


def test_unknown_scenario_exit_code(tmp_path):
    rc = main(["--out-dir", str(tmp_path), "scenario", "run", "not-a-preset"])
    assert rc == 2


def test_bad_field_reports_path(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump({"scenario": "wrong-name", "params": {}}))
    rc = main(["--out-dir", str(tmp_path / "out"), "scenario", "run", str(cfg)])
    assert rc == 2
    assert "scenario.wrong-name" in capsys.readouterr().err


def test_resolution_error_exit_code(tmp_path):
    rc = main(
        [
            "--out-dir",
            str(tmp_path / "out"),
            "spectrum",
            "--spacing-MHz",
            str(2 * _limit_mhz(_natural_cell(300.0))),
            "--half-span-GHz",
            "1.0",
        ]
    )
    assert rc == 4


# each command's default cell, as its runner builds it: the spectroscopy grid
# must resolve the coldest (22 C) of its temperatures
_GRID_CELLS = {
    "spectrum": lambda: _natural_cell(PARAMS["spectrum"]["temp_k"]),
    "fadof": lambda: _natural_cell(PARAMS["fadof"]["temp_k"]),
    "spectroscopy": lambda: _sensing_cell(PARAMS["spectroscopy"], 22.0),
}


@pytest.mark.parametrize(
    "command, factor, code",
    [("spectrum", 2.0, 4), ("fadof", 2.0, 4), ("spectroscopy", 2.0, 4), ("spectrum", 0.99, 0)],
)
def test_every_exported_grid_is_checked_at_the_limit(tmp_path, command, factor, code):
    out = tmp_path / "out"
    spacing = factor * _limit_mhz(_GRID_CELLS[command]())
    assert main(["--out-dir", str(out), command, "--spacing-MHz", str(spacing)]) == code
    tables = sorted(p.name for p in out.glob("*.csv"))
    assert tables == (["index.csv"] if code == 0 else [])


def test_records_bundle_exposure_must_be_positive(tmp_path, capsys):
    bundle = {
        "alpha": 1.0,
        "tau_ns": [-1.0, 0.0, 1.0],
        "phases_rad": [0.0, 0.6, 1.2],
        "counts": [[1, 2, 1], [1, 2, 1], [1, 2, 1]],
    }
    path = tmp_path / "records.json"
    for exposure in (0.0, float("inf")):  # json writes inf as Infinity
        path.write_text(json.dumps({**bundle, "exposure": exposure}))
        assert main(["--out-dir", str(tmp_path / "out"), "reconstruct", "--records", str(path)]) == 2
        assert "params.records" in capsys.readouterr().err


def test_records_bundle_lengths_must_agree(tmp_path, capsys):
    """``counts`` holds one row per phase and one column per tau point: a
    missing row, rows shorter or longer than ``tau_ns`` and ragged rows are
    each refused before anything is written."""
    bundle = {
        "alpha": 1.0,
        "exposure": 1.0,
        "tau_ns": [-1.0, 0.0, 1.0],
        "phases_rad": [0.0, 0.6, 1.2, 1.8],
    }
    path = tmp_path / "records.json"
    out = tmp_path / "out"
    for counts in (
        [[1, 2, 1]] * 3,
        [[1, 2]] * 4,
        [[1, 2, 1, 2]] * 4,
        [[1, 2, 1], [1, 2], [1, 2, 1], [1, 2, 1]],
    ):
        path.write_text(json.dumps({**bundle, "counts": counts}))
        assert main(["--out-dir", str(out), "reconstruct", "--records", str(path)]) == 2
        err = capsys.readouterr().err
        assert "params.records" in err and "Traceback" not in err
        assert not out.exists()


def test_fadof_window_holding_the_grid_refused_up_front(tmp_path, capsys):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        rc = main(["--out-dir", str(out), "fadof", "--window-GHz", "100"])
    assert rc == 4
    assert "holds the whole grid" in capsys.readouterr().err
    assert not (out / "fadof.csv").exists()


def test_numeric_error_exit_code(tmp_path):
    bundle = {
        "alpha": 1.0,
        "exposure": 1.0,
        "tau_ns": [-1.0, 0.0, 1.0],
        "phases_rad": [0.1, 0.1 + np.pi, 0.1 + 2 * np.pi],
        "counts": [[1, 2, 1], [1, 2, 1], [1, 2, 1]],
    }
    path = tmp_path / "records.json"
    path.write_text(json.dumps(bundle))
    rc = main(["--out-dir", str(tmp_path / "out"), "reconstruct", "--records", str(path)])
    assert rc == 3


def _tree(path: Path) -> dict:
    """Each file under ``path``: its bytes, inode and modification time."""
    return {p: (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns) for p in path.rglob("*") if p.is_file()}


def test_a_refused_run_leaves_its_output_directory_as_it_found_it(tmp_path, capsys):
    """Far off resonance every Fisher value is 0 and ``sql_ratio`` is 0/0, so
    the run exits 3, before the division, after ``scan.csv`` is written: no
    file of the output directory is added or replaced, and no staging
    directory is left."""
    argv = ["noon-scan", "--detuning-GHz", "1e6", "--fisher-at-mT", "44"]
    out = tmp_path / "out"
    out.mkdir()
    (out / "scan.csv").write_text("an earlier run's table\n")
    (out / "notes.txt").write_text("kept\n")
    before = _tree(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--out-dir", str(out)] + argv) == 3
        assert main(["--out-dir", str(tmp_path / "new")] + argv) == 3
    err = capsys.readouterr().err
    nu = load_atom_data().d1_center_hz() + 1e15
    assert (
        f"numeric error: sql_ratio: the SQL Fisher information is 0 at the probe frequency {nu!r} Hz "
        "(params.detuning_ghz = 1000000.0, params.length_mm = 75.0)"
    ) in err
    assert _tree(tmp_path) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def test_records_roundtrip_through_cli(tmp_path):
    from atompairs.biphoton import ideal_opo_psi, simulate_records, symmetric_tau_grid

    tau = symmetric_tau_grid(60e-9, 2e-9)
    psi = ideal_opo_psi(8.1e6, 0.2, tau)
    recs = simulate_records(psi, 1.0, [0.0, 0.6, 1.2, 1.8], 100.0, noise=False)
    bundle = {
        "alpha": 1.0,
        "exposure": 100.0,
        "tau_ns": (tau * 1e9).tolist(),
        "phases_rad": recs.phases_rad.tolist(),
        "counts": recs.counts.tolist(),
    }
    path = tmp_path / "records.json"
    path.write_text(json.dumps(bundle))
    out = tmp_path / "out"
    rc = main(["--out-dir", str(out), "reconstruct", "--records", str(path)])
    assert rc == 0
    rows = (out / "reconstruction.csv").read_text().splitlines()
    assert rows[0] == "tau_ns,amplitude_sq,phase_rad,phase_sigma_rad"
    mid = rows[1 + len(tau) // 2].split(",")
    assert float(mid[1]) == pytest.approx(1.0, abs=1e-6)
    assert float(mid[2]) == pytest.approx(0.2, abs=1e-6)


def _shipped_atom_data() -> dict:
    from importlib import resources

    return json.loads(resources.files("atompairs.data").joinpath("rb_d1.json").read_text())


def test_atom_data_override_flag(tmp_path):
    payload = _shipped_atom_data()
    payload["isotopes"]["Rb85"]["abundance"] = 0.6
    payload["isotopes"]["Rb87"]["abundance"] = 0.4
    alt = tmp_path / "atoms.yaml"
    alt.write_text(yaml.safe_dump(payload))
    out = tmp_path / "out"
    rc = main(
        [
            "--out-dir",
            str(out),
            "--atom-data",
            str(alt),
            "g2",
            "--mode",
            "single",
        ]
    )
    assert rc == 0


def _atom_data_argv(tmp_path, payload) -> list[str]:
    path = tmp_path / "atoms.yaml"
    path.write_text(yaml.safe_dump(payload))
    return ["--atom-data", str(path), "g2"]


def _isotopes_not_a_mapping(tmp_path):
    payload = _shipped_atom_data()
    payload["isotopes"] = 3
    return _atom_data_argv(tmp_path, payload)


def _mass_not_a_number(tmp_path):
    payload = _shipped_atom_data()
    payload["isotopes"]["Rb85"]["mass_kg"] = "heavy"
    return _atom_data_argv(tmp_path, payload)


def _malformed_atom_yaml(tmp_path):
    path = tmp_path / "atoms.yaml"
    path.write_text("isotopes: {Rb85: [\n")
    return ["--atom-data", str(path), "g2"]


@pytest.mark.parametrize(
    "argv_for, message",
    [
        (lambda tmp: ["--atom-data", str(tmp / "missing.yaml"), "g2"], "cannot read atom data"),
        (_isotopes_not_a_mapping, "wrongly typed field"),
        (_mass_not_a_number, "wrongly typed field"),
        (lambda tmp: _atom_data_argv(tmp, [1, 2]), "atom data must hold a mapping"),
        (lambda tmp: ["scenario", "run", str(tmp)], "cannot read scenario file"),
        (_malformed_atom_yaml, "cannot parse atom data"),
    ],
    ids=["missing-atom-file", "isotopes-3", "mass-heavy", "top-level-list", "scenario-directory", "malformed-atom-yaml"],
)
def test_bad_input_files_exit_2(tmp_path, capsys, argv_for, message):
    rc = main(["--out-dir", str(tmp_path / "out")] + argv_for(tmp_path))
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and message in err


def test_noon_scan_reads_the_probe_in_one_pass_per_call(tmp_path, monkeypatch):
    """The scan's 11 fields and the Fisher block's b* and b* +- h in one pass,
    which builds a VaporPath per block of at most six centers; no other is
    built."""
    from atompairs import vapor

    builds, centers = [], []
    init = vapor.VaporPath.__init__
    transfer_vs_field = vapor.transfer_vs_field

    def counted_init(self, atoms, cell, b_center_t, *args, **kwargs):
        builds.append(np.size(b_center_t))
        init(self, atoms, cell, b_center_t, *args, **kwargs)

    def counted(atoms, cell, nu_hz, b_centers_t, *args, **kwargs):
        centers.append(len(b_centers_t))
        return transfer_vs_field(atoms, cell, nu_hz, b_centers_t, *args, **kwargs)

    monkeypatch.setattr(vapor.VaporPath, "__init__", counted_init)
    monkeypatch.setattr(vapor, "transfer_vs_field", counted)
    argv = ["noon-scan", "--b-max-mT", "5", "--b-step-mT", "0.5", "--fisher-at-mT", "3"]
    assert main(["--out-dir", str(tmp_path)] + argv) == 0
    assert sorted(builds) == [2, 6, 6]
    assert centers == [14]


def test_spectroscopy_builds_lines_once_per_temperature(tmp_path, monkeypatch):
    """fig10's six fields at each of three temperatures are one VaporPath and
    one line-kernel pass per temperature."""
    from atompairs import vapor

    calls = []
    lines_at_fields = vapor.lines_at_fields

    def counted(atoms, fractions, fields_t):
        calls.append(len(fields_t))
        return lines_at_fields(atoms, fractions, fields_t)

    monkeypatch.setattr(vapor, "lines_at_fields", counted)
    assert main(["--out-dir", str(tmp_path), "scenario", "run", "fig10-spectroscopy"]) == 0
    # two slices droop to two distinct node fields per center, one at 0 mT
    assert calls == [11, 11, 11]


def test_spectroscopy_peak_memory_is_its_table_and_one_propagation(tmp_path, atoms):
    """A reduced fig10 (three temperatures, six fields, 4,001 points) peaks
    at no more than its table's columns plus the largest peak of one
    temperature's propagation: each temperature's (2, fields, grid)
    transmissions are freed before the next walk."""
    from atompairs import vapor

    cfg = {"scenario": "spectroscopy", "params": {"spacing_mhz": 1.0, "slices": 2, "half_span_ghz": 2.0}}
    _, p = validate_scenario(cfg)
    grid = vapor.make_frequency_grid(atoms.d1_center_hz(), 2e9, 1e6)
    run_scenario(cfg, atoms, tmp_path / "warm", 0)  # warm the caches
    peaks = []
    for temp_c in [None] + p["temps_c"]:
        tracemalloc.start()
        try:
            if temp_c is None:
                run_scenario(cfg, atoms, tmp_path / "out", 0)
            else:
                path = vapor.VaporPath(atoms, _sensing_cell(p, temp_c), np.array(p["fields_mt"]) * 1e-3, slices=2)
                path.transmission_at(grid)
                del path
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    table = (2 + len(p["temps_c"]) * len(p["fields_mt"])) * grid.size * 8
    assert peaks[0] <= table + max(peaks[1:])


def test_spectrum_builds_its_lines_once(tmp_path, monkeypatch):
    """``spectrum`` reads n+- off a one-slice path at its own field: one
    line-kernel call, made by ``index_at``; the path, which never
    propagates, builds none."""
    from atompairs import vapor

    calls = []
    lines_at_fields = vapor.lines_at_fields

    def counted(atoms, fractions, fields_t):
        calls.append(len(fields_t))
        return lines_at_fields(atoms, fractions, fields_t)

    monkeypatch.setattr(vapor, "lines_at_fields", counted)
    argv = ["spectrum", "--field-mT", "5", "--half-span-GHz", "0.5"]
    assert main(["--out-dir", str(tmp_path)] + argv) == 0
    assert calls == [1]


@pytest.mark.parametrize(
    "preset, shapes",
    [
        # one call per state over the 91 analyzer angles
        ("fig7-superresolution", [(91,), (91,)]),
        # the 101-field scan, then live and frozen loss at b* and b* +- h
        ("fig11-sensing", [(101, 2, 2), (6, 2, 2)]),
    ],
)
def test_presets_call_the_outcome_kernel_twice(tmp_path, monkeypatch, preset, shapes):
    from atompairs import noon

    calls = []
    kernel = noon.measurement_rates

    def counted(state, channel=None, analyzer_hwp_rad=0.0):
        calls.append(np.shape(analyzer_hwp_rad) if channel is None else np.shape(channel))
        return kernel(state, channel, analyzer_hwp_rad)

    monkeypatch.setattr(noon, "measurement_rates", counted)
    assert main(["--out-dir", str(tmp_path), "scenario", "run", preset]) == 0
    assert calls == shapes


def test_matching_evaluates_only_the_mirror_off_the_grid(tmp_path, monkeypatch):
    from atompairs import vapor

    points = []
    transfer_at = vapor.VaporPath.transfer_at

    def counted(self, nu_hz):
        points.append(np.size(nu_hz))
        return transfer_at(self, nu_hz)

    monkeypatch.setattr(vapor.VaporPath, "transfer_at", counted)
    assert main(["--out-dir", str(tmp_path), "scenario", "run", "fig3-matching"]) == 0
    # the grid, the comb's Lorentzian nodes, then the mirror's off-grid tail
    assert points == [32_001, 12_023, 11_262]


@pytest.mark.parametrize(
    "argv",
    [
        ["--length-mm", "nan"],
        ["--rb85-fraction", "nan"],
        ["--detuning-GHz", "nan"],
        ["--imbalance", "nan"],
        ["--b-max-mT", "inf"],
        ["--b-max-mT", "nan"],
        ["--b-step-mT", "nan"],
        ["--fisher-at-mT", "nan"],
        ["--imbalance", "inf"],
    ],
)
def test_non_finite_sensing_inputs_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "noon-scan", "--b-max-mT", "1"] + argv) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and "Traceback" not in err
    assert not (out / "scan.csv").exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--fisher-at-mT", "60"], "2 steps either side"),
        (["--fisher-at-mT", "49.5"], "2 steps either side"),
        (["--b-step-mT", "1", "--fisher-at-mT", "20"], "steps <= 0.5 mT"),
        (["--b-max-mT", "1.5", "--fisher-at-mT", "1"], "at least 5 points"),
    ],
)
def test_fisher_point_the_scan_cannot_serve_is_refused_before_the_cell_pass(tmp_path, capsys, monkeypatch, argv, named):
    """A Fisher field without 2 scan steps either side, or a scan too coarse or
    too short for the derivative, exits 2 naming the key, before any
    propagation, and writes nothing."""
    from atompairs import vapor

    def no_pass(*args, **kwargs):
        raise AssertionError("the cell pass ran")

    monkeypatch.setattr(vapor, "transfer_vs_field", no_pass)
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "noon-scan"] + argv) == 2
    err = capsys.readouterr().err
    assert "configuration error: params.fisher_at_mt:" in err and named in err
    assert not out.exists() or not any(out.iterdir())


def test_matching_ignores_the_hot_cell_that_only_purity_reads(tmp_path):
    default, unbuffered = tmp_path / "default", tmp_path / "unbuffered"
    assert main(["--out-dir", str(default), "matching"]) == 0
    assert main(["--out-dir", str(unbuffered), "matching", "--hot-cell-buffer-MHz", "0"]) == 0
    for name in ("matching.csv", "comb.csv"):
        assert (unbuffered / name).read_bytes() == (default / name).read_bytes()
    # matching.csv (2.2 MB) is hashed over several 1 MiB reads
    hashes = _hash_dir(default)
    del hashes["manifest.json"]
    assert json.loads((default / "manifest.json").read_text())["files"] == hashes
    # purity reads the hot cell pointwise, so no spacing check refuses the
    # unbuffered one, and the buffer does move the report
    assert main(["--out-dir", str(tmp_path / "purity"), "purity"]) == 0
    purity = ["--out-dir", str(tmp_path / "bare"), "purity", "--hot-cell-buffer-MHz", "0"]
    assert main(purity) == 0
    report = (tmp_path / "purity" / "purity.json").read_bytes()
    assert (tmp_path / "bare" / "purity.json").read_bytes() != report


def test_write_csv_blocks_match_one_shot(tmp_path, monkeypatch):
    # a block holds CSV_BLOCK_CELLS // 3 rows of these three columns
    block = CSV_BLOCK_CELLS // 3
    rows = 2 * block + 1
    index = np.arange(rows) - 3
    values = np.linspace(-2.5, 7.0, rows) ** 3 * 1e-9
    edges = [0, 1, 2, 3, block - 1, block, 2 * block]
    values[edges] = [5e-324, -1.5e8, 1e-300, -0.0, 0.0, -0.0, 1.7e8]
    header = ["index", "value", "scaled"]
    columns = [index, values, values * 1e300]
    write_csv(tmp_path / "blocked.csv", header, columns)
    one_shot_csv(tmp_path / "one_shot.csv", header, columns)
    blocked = (tmp_path / "blocked.csv").read_bytes()
    assert blocked == (tmp_path / "one_shot.csv").read_bytes()
    assert blocked.count(b"\n") == rows + 1
    # a NaN or an infinity in any block is refused before the file is opened
    for bad in (np.nan, np.inf, -np.inf):
        values[2 * block] = bad
        with pytest.raises(NumericError, match="value, scaled"):
            write_csv(tmp_path / "refused.csv", header, columns[:1] + [values, values * 1e300])
    assert not (tmp_path / "refused.csv").exists()

    # from PARALLEL_CELLS cells a forked child formats the rows from the block
    # boundary nearest the middle: at the threshold, with that boundary 1 row
    # either side of the middle, and below it, the bytes are those of the
    # one-process loop and of the reference
    from atompairs import cli

    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    middle = 9 * (CSV_BLOCK_CELLS // 3)  # the split of 2 * middle rows of 3 columns
    cases = [
        (1, PARALLEL_CELLS), (1, PARALLEL_CELLS - 1), (1, 1),
        (3, -(-PARALLEL_CELLS // 3)), (3, 2 * middle - 1), (3, 2 * middle), (3, 2 * middle + 1),
        (20, -(-PARALLEL_CELLS // 20)), (20, PARALLEL_CELLS // 20), (20, 1),
    ]
    for width, rows in cases:
        header, columns = _csv_table(width, rows)
        forks.clear()
        write_csv(tmp_path / "split.csv", header, columns)
        assert forks == ([os.getpid()] if width * rows >= PARALLEL_CELLS else [])
        with monkeypatch.context() as one_process:
            one_process.setattr(cli, "PARALLEL_CELLS", np.inf)
            write_csv(tmp_path / "one_process.csv", header, columns)
        one_shot_csv(tmp_path / "one_shot.csv", header, columns)
        split = (tmp_path / "split.csv").read_bytes()
        assert split == (tmp_path / "one_process.csv").read_bytes() == (tmp_path / "one_shot.csv").read_bytes()
        assert split.count(b"\n") == rows + 1
    # with a second live thread nothing is forked; a fork that fails leaves
    # this process to format every row; the bytes are the same
    header, columns = _csv_table(3, 2 * middle + 1)
    one_shot_csv(tmp_path / "one_shot.csv", header, columns)
    done = threading.Event()
    waiter = threading.Thread(target=done.wait)
    waiter.start()
    try:
        forks.clear()
        write_csv(tmp_path / "threaded.csv", header, columns)
        assert forks == []
    finally:
        done.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    # a fork that warns, as Python 3.12 does beside a BLAS pool's native
    # threads, still splits where warnings are errors
    def warning_fork():
        warnings.warn("This process is multi-threaded, use of fork() may lead to deadlocks", DeprecationWarning)
        return counted_fork()

    def no_fork():
        forks.append(os.getpid())
        raise BlockingIOError(errno.EAGAIN, "no process")

    counted_fork = os.fork
    monkeypatch.setattr(os, "fork", warning_fork)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_csv(tmp_path / "warned.csv", header, columns)
    assert forks == [os.getpid()]
    monkeypatch.setattr(os, "fork", no_fork)
    write_csv(tmp_path / "unforked.csv", header, columns)
    assert forks == [os.getpid()] * 2
    for name in ("threaded.csv", "warned.csv", "unforked.csv"):
        assert (tmp_path / name).read_bytes() == (tmp_path / "one_shot.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "blocked.csv", "one_process.csv", "one_shot.csv", "split.csv", "threaded.csv", "unforked.csv", "warned.csv"
    ]


def _csv_table(width: int, rows: int) -> tuple[list[str], list[np.ndarray]]:
    """``width`` columns of ``rows`` rows, float and integer by turns, the
    floats with signed zeros, a subnormal and huge values among them."""
    columns = []
    for k in range(width):
        if k % 2 == 0:
            values = np.linspace(-2.5, 7.0, rows) ** 3 * 10.0 ** (8 * k - 80)
            values[k % rows :: 997] = [5e-324, -0.0, 0.0, 1.7e308][k // 2 % 4]
            columns.append(values)
        else:
            columns.append(np.arange(rows) * (k + 1) - 3 * rows)
    return [f"c{k}" for k in range(width)], columns


def test_a_failed_split_writer_raises_and_leaves_no_file_or_process(tmp_path, monkeypatch, capfd):
    """A forked child that fails writes its cause to stderr and is reaped,
    and ``write_csv`` raises in the parent; no temporary file is left, and
    ``run_scenario`` stages nothing."""
    from atompairs import cli

    parent, write_rows = os.getpid(), cli._write_rows

    def fails_in_the_child(*args):
        if os.getpid() != parent:
            raise OSError(errno.ENOSPC, "No space left on device")
        write_rows(*args)

    monkeypatch.setattr(cli, "_write_rows", fails_in_the_child)
    header, columns = _csv_table(1, PARALLEL_CELLS)
    with pytest.raises(OSError, match=f"split.csv: the process formatting rows {PARALLEL_CELLS // 2} to {PARALLEL_CELLS} exited with 1"):
        write_csv(tmp_path / "split.csv", header, columns)
    cause = f"split.csv: rows {PARALLEL_CELLS // 2} to {PARALLEL_CELLS}: OSError: [Errno 28] No space left on device\n"
    assert capfd.readouterr().err == cause
    assert [p.name for p in tmp_path.iterdir()] == ["split.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    fig2 = pytest.warns(UserWarning, match="ENBW may be truncated")
    with fig2, pytest.raises(OSError, match="fadof.csv: the process formatting rows"):
        run_scenario(PRESETS["fig2-fadof"], load_atom_data(), tmp_path / "fig2", 0)
    assert [p.name for p in tmp_path.iterdir()] == ["split.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_scenario_file_equivalent_to_preset(tmp_path):
    """A YAML and a JSON scenario file of a preset's dict write its outputs."""
    out_a = tmp_path / "a"
    assert main(["--out-dir", str(out_a), "scenario", "run", "fig4-g2-comb"]) == 0
    for suffix, dump in (("yaml", yaml.safe_dump), ("json", json.dumps)):
        cfg = tmp_path / f"scenario.{suffix}"
        cfg.write_text(dump(PRESETS["fig4-g2-comb"]))
        out_b = tmp_path / suffix
        assert main(["--out-dir", str(out_b), "scenario", "run", str(cfg)]) == 0
        assert _hash_dir(out_a) == _hash_dir(out_b)


def test_one_source_writes_into_the_out_dir_and_prints_its_report(tmp_path, capsys):
    atoms = load_atom_data()
    report = run_scenario(PRESETS["fig4-g2-comb"], atoms, tmp_path / "direct", 0)
    assert main(["--out-dir", str(tmp_path / "out"), "scenario", "run", "fig4-g2-comb"]) == 0
    assert capsys.readouterr().out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert _hash_dir(tmp_path / "out") == _hash_dir(tmp_path / "direct")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["direct", "out"]


def test_several_sources_each_write_what_a_single_run_writes(tmp_path, capsys):
    """Each source into ``--out-dir/<preset name or file stem>``, the reports
    in the order of the sources."""
    cfg = tmp_path / "g2-single.yaml"
    cfg.write_text(yaml.safe_dump({"scenario": "g2", "params": {"mode": "single"}}))
    sources = ["fig7-superresolution", str(cfg), "fig4-g2-comb"]
    singles = []
    for source in sources:
        assert main(["--out-dir", str(tmp_path / "single" / Path(source).stem), "scenario", "run", source]) == 0
        singles.append(capsys.readouterr().out)
    assert main(["--out-dir", str(tmp_path / "one"), "scenario", "run", *sources]) == 0
    assert capsys.readouterr().out == "".join(singles)
    names = ["fig7-superresolution", "g2-single", "fig4-g2-comb"]
    assert sorted(p.name for p in (tmp_path / "one").iterdir()) == sorted(names)
    for name in names:
        assert _hash_dir(tmp_path / "one" / name) == _hash_dir(tmp_path / "single" / name)


def test_each_of_several_sources_shows_its_own_warnings(tmp_path):
    """Two runs that raise the same warning each show it, as two processes
    would, although the default filter shows a warning once per location."""
    same = tmp_path / "same.yaml"
    same.write_text(yaml.safe_dump({"scenario": "fadof", "params": {}}))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("default")
        assert main(["--out-dir", str(tmp_path / "out"), "scenario", "run", "fig2-fadof", str(same)]) == 0
    assert len([w for w in seen if "ENBW may be truncated" in str(w.message)]) == 2


def test_several_sources_stop_at_the_first_refusal(tmp_path, capsys):
    """The runs before the refusal stay committed, the refused run and those
    after it leave no directory, and the exit code is the refusal's."""
    coarse = tmp_path / "coarse.yaml"
    coarse.write_text(yaml.safe_dump({"scenario": "fadof", "params": {"spacing_mhz": 20.0}}))
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "scenario", "run", "fig4-g2-comb", str(coarse), "fig7-superresolution"]) == 4
    assert "coverage error" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["fig4-g2-comb"]
    assert sorted(p.name for p in (out / "fig4-g2-comb").iterdir()) == ["g2.csv", "g2_fit.json", "manifest.json"]


def test_two_sources_of_one_name_exit_2_before_any_run(tmp_path, capsys):
    twin = tmp_path / "fig4-g2-comb.json"
    twin.write_text(json.dumps(PRESETS["fig4-g2-comb"]))
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "scenario", "run", "fig7-superresolution", "fig4-g2-comb", str(twin)]) == 2
    assert "two sources named 'fig4-g2-comb'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sources", [["fig7-superresolution"], ["fig7-superresolution", "fig4-g2-comb"]])
@pytest.mark.parametrize("under", ["", "out"], ids=["is-a-file", "under-a-file"])
def test_an_out_dir_that_is_or_lies_under_a_file_exits_2_naming_it(tmp_path, capsys, under, sources):
    """Refused before the runner starts, with no traceback, and no staging
    directory left beside the file."""
    file = tmp_path / "taken"
    file.write_text("kept\n")
    assert main(["--out-dir", str(file / under), "scenario", "run", *sources]) == 2
    err = capsys.readouterr().err
    assert f"{file} is a file, not a directory" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [file] and file.read_text() == "kept\n"


def test_fadof_preset_matches_reported_metrics(tmp_path):
    out = tmp_path / "fadof"
    assert main(["--out-dir", str(out), "scenario", "run", "fig2-fadof"]) == 0
    metrics = json.loads((out / "fadof_metrics.json").read_text())
    assert metrics["t_max"] == pytest.approx(0.71, abs=0.08)
    assert metrics["fwhm_hz"] == pytest.approx(0.45e9, rel=0.25)
    assert metrics["enbw_hz"] == pytest.approx(1.2e9, rel=0.25)
    assert (out / "fadof.csv").exists()


def test_g2_comb_preset_shows_beating(tmp_path):
    out = tmp_path / "g2"
    assert main(["--out-dir", str(out), "scenario", "run", "fig4-g2-comb"]) == 0
    rows = (out / "g2.csv").read_text().splitlines()[1:]
    values = np.array([float(r.split(",")[2]) for r in rows])
    inner = values[1:-1]
    resid = inner - 0.5 * (values[2:] + values[:-2])
    assert np.sqrt(np.mean(resid**2)) / values.max() > 0.05


def test_density_matrix_json_roundtrip():
    from atompairs.noon import surrogate_noon_state

    rho = surrogate_noon_state().rho
    back = rho_from_json(json.loads(json.dumps(rho_to_json(rho))))
    assert np.allclose(back, rho, atol=1e-12)


def test_spectrum_csv_columns(tmp_path):
    out = tmp_path / "spec"
    rc = main(
        [
            "--out-dir",
            str(out),
            "spectrum",
            "--temp-K",
            "300",
            "--half-span-GHz",
            "0.2",
            "--spacing-MHz",
            "0.5",
        ]
    )
    assert rc == 0
    header = (out / "index.csv").read_text().splitlines()[0]
    assert header == "frequency_Hz,re_n_plus,im_n_plus,re_n_minus,im_n_minus"


# ------------------------------------------------------------ parameter schema


def test_every_preset_resolves_against_its_table():
    for name, cfg in PRESETS.items():
        scenario, resolved = validate_scenario(cfg)
        assert set(resolved) == set(PARAMS[scenario]), name
        for key, value in cfg["params"].items():
            assert resolved[key] == value, (name, key)


def _frozen_figures() -> dict:
    """The benchmark's frozen scenario of each figure, read from its source."""
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["WORKLOADS"]
    return {name: cfg for figures in workloads.values() for name, cfg in figures.items()}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_resolves_to_its_frozen_figure(name):
    """An edit to PARAMS must not silently move a paper figure."""
    assert validate_scenario(PRESETS[name]) == validate_scenario(_frozen_figures()[name])


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_sets_only_keys_away_from_the_defaults(name):
    scenario = PRESETS[name]["scenario"]
    _, defaults = validate_scenario({"scenario": scenario})
    for key, value in PRESETS[name]["params"].items():
        assert value != defaults[key], (name, key)


_NUMERIC = [
    (name, key)
    for name, table in PARAMS.items()
    for key, spec in table.items()
    if spec is float or type(spec) in (int, float, list)
]


@pytest.mark.parametrize("scenario, key", _NUMERIC)
def test_values_just_outside_a_keys_domain_are_refused_naming_it(scenario, key, atoms):
    """nan, +-inf and each finite end of the key's interval (the end itself
    where it is open, else the next number beyond it) are refused under the
    key, and the number just inside each end resolves, a deg C one also to
    a kelvin temperature that the cell accepts; so do the scenario's defaults
    and presets.  A list key is tried with its first default entry replaced,
    and with one entry fewer than it needs."""
    default, domain = PARAMS[scenario][key], DOMAINS[key]
    outside, inside = domain.edges(integer=type(default) is int)

    def params(x):
        return {key: [x, *default[1:]] if isinstance(default, list) else x}

    for x in outside:
        with pytest.raises(ConfigError, match=rf"^params\.{key}: "):
            validate_scenario({"scenario": scenario, "params": params(x)})
    for x in inside:
        _, resolved = validate_scenario({"scenario": scenario, "params": params(x)})
        if key in ("temps_c", "cell_temp_c"):  # the runner adds 273.15, which rounds
            check_spacing(_sensing_cell(resolved, x), atoms, 1.0)
    if domain.least:
        with pytest.raises(ConfigError, match=rf"^params\.{key}: needs at least {domain.least} entries"):
            validate_scenario({"scenario": scenario, "params": {key: default[: domain.least - 1]}})
    for cfg in [{"scenario": scenario}, *(p for p in PRESETS.values() if p["scenario"] == scenario)]:
        validate_scenario(cfg)


@pytest.mark.parametrize(
    "scenario, params, named",
    [
        ("fadof", {"feild_mt": 40}, ["params.feild_mt", "'field_mt'"]),
        ("fadof", {"field_mt": "4.5"}, ["params.field_mt"]),
        ("spectroscopy", {"cell_temp_c": 70.0}, ["params.cell_temp_c"]),
        ("g2", {"mode": "dual"}, ["params.mode"]),
        ("g2", {"bins": 240.5}, ["params.bins"]),
        ("reconstruct", {"noise": 1}, ["params.noise"]),
        ("noon-scan", {"state": "no-such-state.json"}, ["params.state"]),
        # b* - h < 0 below the 0.25 mT Fisher step
        ("noon-scan", {"fisher_at_mt": 0.0}, ["params.fisher_at_mt"]),
        ("noon-scan", {"fisher_at_mt": 0.2}, ["params.fisher_at_mt"]),
        ("fadof", {"temp_kk": 300}, ["params.temp_kk: unknown key for fadof; did you mean 'temp_k'?"]),
    ],
)
def test_bad_scenario_params_exit_2_naming_the_key(tmp_path, capsys, scenario, params, named):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump({"scenario": scenario, "params": params}))
    rc = main(["--out-dir", str(tmp_path / "out"), "scenario", "run", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 2
    for text in named:
        assert text in err


def test_format_is_not_a_global_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--out-dir", str(tmp_path), "--format", "json", "fadof"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_spectrum_has_no_format_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--out-dir", str(tmp_path), "spectrum", "--format", "json"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--spacing-MHz", "0"],
        ["spectrum", "--half-span-GHz", "-1"],
        ["noon-scan", "--b-step-mT", "0"],
        ["noon-scan", "--b-max-mT", "-1"],
        ["reconstruct", "--step-ns", "0"],
        ["interference", "--step-ns", "-1"],
        ["superresolution", "--angle-step-deg", "0"],
        ["g2", "--fsr-MHz", "0"],
        ["g2", "--bins", "-5"],
        ["interference", "--exposure", "-1"],
        ["reconstruct", "--exposure", "0"],
        ["fadof", "--window-GHz", "-1"],
        ["superresolution", "--angle-step-deg", "nan"],
        ["superresolution", "--angle-step-deg", "22.5"],
        ["superresolution", "--angle-step-deg", "30"],
        ["superresolution", "--angle-step-deg", "45"],
        ["superresolution", "--angle-step-deg", "1000"],
        ["spectrum", "--half-span-GHz", "nan"],
        ["spectrum", "--spacing-MHz", "nan"],
        ["spectroscopy", "--half-span-GHz", "nan"],
        ["interference", "--step-ns", "nan"],
        ["interference", "--half-span-ns", "inf"],
        ["reconstruct", "--half-span-ns", "nan"],
        ["reconstruct", "--n-phases", "-1"],
        ["reconstruct", "--n-phases", "0"],
        ["matching", "--envelope-GHz", "nan"],
        ["matching", "--envelope-GHz", "1e6"],
        ["g2", "--fsr-MHz", "nan"],
        ["g2", "--linewidth-MHz", "nan"],
        ["g2", "--tbin-ns", "nan"],
        ["g2", "--t0-ns", "inf"],
        ["g2", "--rate1-Hz", "nan"],
        ["reconstruct", "--bandwidth-MHz", "nan"],
        ["reconstruct", "--alpha", "inf"],
        ["interference", "--bandwidth-MHz", "nan"],
    ],
)
def test_non_positive_grid_step_exit_2(tmp_path, capsys, argv):
    assert main(["--out-dir", str(tmp_path / "out")] + argv) == 2
    if argv[0] == "superresolution":
        assert "params.angle_step_deg" in capsys.readouterr().err
    if argv[1] == "--n-phases":
        assert "configuration error: params.n_phases:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, key",
    [
        pytest.param(["--linewidth-MHz=1e303"], "linewidth_mhz", id="argv9-linewidth_mhz"),
        pytest.param(["--fsr-MHz=1e-320"], "fsr_mhz", id="argv10-fsr_mhz"),
        pytest.param(["--tbin-ns=1e-320"], "tbin_ns", id="argv11-tbin_ns"),
    ],
)
def test_g2_refusals_name_the_key_set(tmp_path, capsys, argv, key):
    """A linewidth, FSR or bin width in its key's domain that leaves the
    float range on its way to Hz or seconds is refused by ``G2Envelope`` or
    ``DetectionModel``, which name their own fields; the runner names the
    key the user set.  Values outside a domain are the domain sweep's."""
    assert main(["--out-dir", str(tmp_path / "out"), "g2"] + argv) == 2
    assert f"configuration error: params.{key}:" in capsys.readouterr().err


# refusals whose message must also state the cause
REFUSAL_CAUSES = {
    ("interference", "--half-span-ns", "5e-324"): ": tau grid needs at least 3 points (got 1)\n",
    ("interference", "--step-ns", "1e303"): ": tau grid needs at least 3 points (got 1)\n",
}


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["spectroscopy", "--slices", "0"], ["slices"]),
        (["spectroscopy", "--fields-mT", "-1"], ["fields_mt"]),
        (["spectroscopy", "--fields-mT", "0", "1e300"], ["fields_mt"]),
        (["spectrum", "--field-mT", "1e300"], ["field_mt"]),
        (["fadof", "--field-mT", "1e300"], ["field_mt"]),
        (["matching", "--field-mT", "1e300"], ["field_mt"]),
        (["purity", "--field-mT", "1e300"], ["field_mt"]),
        (["purity", "--leak-fraction", "1"], ["leak_fraction"]),
        (["matching", "--fsr-MHz", "1"], ["fsr_mhz", "linewidth_mhz"]),
        (["superresolution", "--fidelity", "2"], ["fidelity"]),
        (["superresolution", "--two-phi", "nan"], ["two_phi"]),
        (["reconstruct", "--n-phases", "1"], ["n_phases"]),
        (["fadof", "--extinction", "1"], ["extinction"]),
        (["interference", "--phases-deg", "0", "45"], ["phases_deg"]),
        (["superresolution", "--two-phi", "inf"], ["two_phi"]),
        # in the key's domain, but 0 m or an infinite width once converted
        *[([command, "--length-cm", "5e-324"], ["length_cm"]) for command in ("fadof", "spectrum", "matching", "purity")],
        *[([command, "--length-mm", "5e-324"], ["length_mm"]) for command in ("spectroscopy", "noon-scan")],
        (["spectrum", "--buffer-MHz", "1e303"], ["buffer_mhz"]),
        (["purity", "--hot-cell-buffer-MHz", "1e303"], ["hot_cell_buffer_mhz"]),
        # in the key's domain, but a grid, tau grid, bandwidth or probe out of range once converted
        *[([command, "--spacing-MHz", "5e-324"], ["spacing_mhz", "half_span_ghz"]) for command in ("spectrum", "fadof", "spectroscopy")],
        (["spectrum", "--half-span-GHz", "1e300"], ["spacing_mhz", "half_span_ghz"]),
        (["fadof", "--spacing-MHz", "1e303"], ["spacing_mhz", "half_span_ghz"]),
        (["interference", "--half-span-ns", "5e-324"], ["step_ns", "half_span_ns"]),
        (["interference", "--half-span-ns", "1e300"], ["step_ns", "half_span_ns"]),
        (["reconstruct", "--step-ns", "5e-324"], ["step_ns", "half_span_ns"]),
        (["interference", "--step-ns", "1e303"], ["step_ns", "half_span_ns"]),
        (["interference", "--bandwidth-MHz", "1e303"], ["bandwidth_mhz"]),
        (["noon-scan", "--detuning-GHz", "1e300"], ["detuning_ghz"]),
    ],
)
def test_library_refusals_name_the_key_set(tmp_path, capsys, argv, keys):
    """A refusal raised by a library check, which names its own field, exits
    2 under the ``params.`` key(s) the user set, before numpy warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--out-dir", str(tmp_path / "out")] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: params.{keys[0]}") and "Traceback" not in err
    assert all(f"params.{key}" in err for key in keys)
    assert REFUSAL_CAUSES.get(tuple(argv), "") in err


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--spacing-MHz", "1e-300"],
        ["fadof", "--spacing-MHz", "1e-300"],
        ["interference", "--step-ns", "1e-300"],
        ["reconstruct", "--step-ns", "1e-300"],
        ["superresolution", "--angle-step-deg", "1e-300"],
        ["noon-scan", "--b-step-mT", "1e-300"],
        ["g2", "--bins", "2000000000"],
    ],
)
def test_grids_past_the_point_cap_exit_2_before_allocating(tmp_path, capsys, argv):
    assert main(["--out-dir", str(tmp_path / "out")] + argv) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and f"at most {MAX_POINTS}" in err
    assert "Traceback" not in err


def test_point_cap_admits_the_largest_shipped_grid():
    from atompairs.vapor import make_frequency_grid

    # README's 400,001-point fadof run: +-10 GHz at 0.05 MHz
    assert make_frequency_grid(0.0, 10e9, 0.05e6).size == 400_001 < MAX_POINTS


def test_non_finite_report_value_exits_3_and_writes_no_json(tmp_path, capsys):
    """At a probe 1e7 GHz off the line, or through a cell 1e-300 mm long, the
    cell is transparent, so the SQL Fisher information is 0 and ``sql_ratio``
    would be 0/0: the run refuses it before the division, names the probe
    frequency and both keys, and writes no report."""
    for i, argv in enumerate([["--detuning-GHz", "1e7"], ["--length-mm", "1e-300"]]):
        out = tmp_path / f"out{i}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["--out-dir", str(out), "noon-scan", *argv, "--fisher-at-mT", "44"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numeric error: sql_ratio:" in err and "at the probe frequency" in err and "Traceback" not in err
        assert "params.detuning_ghz" in err and "params.length_mm" in err
        assert not (out / "fisher.json").exists() and not (out / "manifest.json").exists()


def test_write_json_refuses_non_finite_values_before_opening_the_file(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(NumericError, match="report.json: Out of range float values are not JSON compliant"):
        write_json(path, {"ratio": float("nan")})
    assert not path.exists()


def test_non_finite_csv_cell_exits_3_and_writes_no_table(tmp_path, capsys):
    """A records bundle holding a NaN count (json reads NaN) reconstructs a
    NaN at that tau point: the table is refused before it is opened."""
    bundle = {
        "alpha": 1.0,
        "exposure": 1.0,
        "tau_ns": [-1.0, 0.0, 1.0],
        "phases_rad": [0.0, 0.6, 1.2],
        "counts": [[1, 2, 1], [1, float("nan"), 1], [1, 3, 1]],
    }
    path = tmp_path / "records.json"
    path.write_text(json.dumps(bundle))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(["--out-dir", str(out), "reconstruct", "--records", str(path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numeric error:" in err and "reconstruction.csv" in err and "Traceback" not in err
    assert not (out / "reconstruction.csv").exists() and not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "argv, rc, message",
    [
        (["spectrum", "--buffer-MHz", "1e300"], 2, "overflows the Voigt line width"),
        (["fadof", "--length-cm", "1e300"], 3, "spectrum has no transmission"),
    ],
    ids=["spectrum-buffer", "fadof-length"],
)
def test_overflowing_cells_exit_with_a_message(argv, rc, message, tmp_path, capsys):
    """A buffer width whose square overflows, and a cell so long that the
    filter passes nothing, are refused by their library checks; they died
    with an OverflowError and a bare ValueError (exit 1)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["--out-dir", str(tmp_path / "out"), *argv]) == rc
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, rc, message",
    [
        (["g2", "--tbin-ns", "1e-300"], 3, "decay-rate bound overflows"),
        (["g2", "--t0-ns", "1e300"], 2, "params.t0_ns"),
        (["interference", "--alpha", "1e300"], 2, "params.alpha"),
        (["reconstruct", "--alpha", "1e300"], 2, "params.alpha"),
        (["reconstruct", "--exposure", "1e300"], 2, "params.exposure"),
        (["reconstruct", "--exposure", "0.5"], 3, "params.exposure: 1 of 241 tau points hold no interference"),
        (["reconstruct", "--exposure", "1e-300"], 3, "params.exposure: 241 of 241 tau points hold no interference"),
        (["reconstruct", "--alpha", "1e-300"], 3, "phase design matrix ill-conditioned (cond=inf)"),
        (["reconstruct", "--no-noise", "--exposure", "1e-160"], 3, "params.exposure: at exposure 1e-160 the rate variance"),
        (["reconstruct", "--no-noise", "--exposure", "1e-200"], 3, "params.exposure: at exposure 1e-200 the rate variance"),
        (["matching", "--fsr-MHz", "1e300"], 0, ""),
        (["matching", "--envelope-GHz", "1e-300"], 0, ""),
        (["matching", "--length-cm", "1e300"], 3, "degenerate_pair_fraction: no pair passes the filter"),
        (["matching", "--temp-K", "1e300"], 2, "params.temp_k: 1e+300 is not in (250, 450)"),
        (["spectroscopy", "--temps-C", "1e300"], 2, "params.temps_c: 1e+300 is not in [-23.14999999999996, 176.85)"),
        (["noon-scan", "--imbalance", "1e300"], 2, "state vector must be finite and nonzero"),
        (["noon-scan", "--length-mm", "1e300"], 3, "params.length_mm = 1e+300"),
        (["g2", "--linewidth-MHz", "5e-324"], 2, "configuration error: params.linewidth_mhz and params.fsr_mhz: comb teeth"),
        *[([c, "--alpha", "1.1579208923731618e+77"], 2, "configuration error: params.alpha and params.exposure:")
          for c in ("interference", "reconstruct")],
    ],
    ids=[
        "g2-tbin", "g2-t0", "interference-alpha", "reconstruct-alpha", "reconstruct-exposure",
        "reconstruct-exposure-0.5", "reconstruct-exposure-1e-300", "reconstruct-alpha-1e-300",
        "reconstruct-no-noise-exposure-1e-160", "reconstruct-no-noise-exposure-1e-200",
        "matching-fsr", "matching-envelope", "matching-length", "matching-temp", "spectroscopy-temps",
        "noon-scan-imbalance", "noon-scan-length", "g2-linewidth-underflow", "interference-alpha-max",
        "reconstruct-alpha-max",
    ],
)
def test_extreme_finite_inputs_exit_with_a_message(argv, rc, message, tmp_path, capsys):
    """A bin width whose fit bound overflows, a channel delay past 2^53 bins,
    a reference amplitude whose alpha^4 overflows and a mean count past the
    Poisson sampler's limit: each died with a traceback (exit 1).  A comb
    whose mode offsets overflow the envelope's square is its degenerate mode;
    a cell that passes no pair has no degenerate fraction; a temperature
    outside number_density's validated range is refused under its key
    before the grid check computes a line width; an exposure at which some tau points record no pair at any
    phase is refused by their count before a 0/0, one whose square leaves
    the float range by the rate variance that it would overflow, and a
    reference too faint for the phase design by its condition number.  A
    state vector whose norm overflows is refused, and so is the visibility
    of a scan through an opaque cell.  A linewidth whose decay rate times
    the round trip underflows is refused by its comb teeth (exit 3 before),
    and a reference amplitude just below the alpha^4 limit by its expected
    counts (their product with the exposure overflowed: exit 3).  None of
    them warns on the way: pytest records warnings rather than printing
    them, so they are raised here as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--out-dir", str(tmp_path / "out"), *argv]) == rc
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


PRESETS_IMPORT = """
import sys, tempfile
import atompairs.cli as cli
from atompairs.atoms import load_atom_data
atoms = load_atom_data()
loaded = set(sys.modules)
with tempfile.TemporaryDirectory() as out:
    for name in cli.PRESETS:
        cli.run_scenario(cli.load_scenario_config(name), atoms, f"{out}/{name}", 0)
print(sorted(set(sys.modules) - loaded))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(sorted(m for m in sys.modules if m.split(".")[0] in ("yaml", "difflib")))
"""


def test_presets_import_nothing_after_start_up_and_no_scipy():
    """In a fresh process, start-up (the front end and the atom data) loads
    every module that the eight presets use, so no preset pays an import
    inside its run, and none of it is scipy: the runtime needs numpy only.
    PyYAML is only for a user's scenario or atom-data file, and difflib only
    for the unknown-key refusal, so neither start-up nor a preset loads them."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", PRESETS_IMPORT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", "[]"]


def test_floating_point_errors_in_a_run_exit_3_naming_the_scenario(tmp_path, capsys, monkeypatch):
    """A runner that overflows is a numeric error (exit 3) naming its
    scenario, with no traceback and no output directory; one whose result
    underflows to 0 runs on."""
    monkeypatch.setitem(RUNNERS, "spectrum", lambda params, atoms, sink, seed: {"x": float(np.exp(np.array(1e3)))})
    assert main(["--out-dir", str(tmp_path / "out"), "spectrum"]) == 3
    err = capsys.readouterr().err
    assert "numeric error: spectrum: overflow encountered in exp" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    monkeypatch.setitem(RUNNERS, "spectrum", lambda params, atoms, sink, seed: {"x": float(np.exp(np.array(-1e3)))})
    assert main(["--out-dir", str(tmp_path / "out"), "spectrum"]) == 0
    assert json.loads(capsys.readouterr().out) == {"x": 0.0}


@pytest.mark.parametrize("command", sorted(RUNNERS))
def test_every_scenario_has_a_subcommand_with_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "(default:" in out
    for key in PARAMS[command].keys() & DOMAINS.keys():
        assert f"{key} in {DOMAINS[key]} (default:" in out


def test_readme_examples_parse():
    lines = [
        line.strip()
        for line in (ROOT / "README.md").read_text().splitlines()
        if line.startswith("atompairs ") and not any(c in line for c in "[<")
    ]
    assert len(lines) >= 5
    for line in lines:
        build_parser().parse_args(line.split()[1:])


def test_scenario_file_state_matches_state_flag(tmp_path):
    from atompairs.noon import pure_state

    state = tmp_path / "hh.json"
    state.write_text(json.dumps(rho_to_json(pure_state([1.0, 0, 0, 0]).rho)))
    grid = {"b_max_mt": 2.0, "b_step_mt": 0.5}
    cfg = tmp_path / "scan.yaml"
    params = {**grid, "state": str(state)}
    cfg.write_text(yaml.safe_dump({"scenario": "noon-scan", "params": params}))
    flags = ["noon-scan", "--b-max-mT", "2", "--b-step-mT", "0.5"]
    out_file, out_flag, out_default = tmp_path / "file", tmp_path / "flag", tmp_path / "default"
    assert main(["--out-dir", str(out_file), "scenario", "run", str(cfg)]) == 0
    assert main(["--out-dir", str(out_flag)] + flags + ["--state", str(state)]) == 0
    assert main(["--out-dir", str(out_default)] + flags) == 0
    scan = (out_file / "scan.csv").read_bytes()
    assert scan == (out_flag / "scan.csv").read_bytes()
    assert scan != (out_default / "scan.csv").read_bytes()


def test_interference_default_alpha_is_fig5s(tmp_path):
    cfg = tmp_path / "int.yaml"
    cfg.write_text(yaml.safe_dump({"scenario": "interference", "params": {}}))
    out_file, out_flag = tmp_path / "file", tmp_path / "flag"
    assert main(["--out-dir", str(out_file), "scenario", "run", str(cfg)]) == 0
    assert main(["--out-dir", str(out_flag), "interference", "--alpha", "1.4142135623730951"]) == 0
    assert _hash_dir(out_file) == _hash_dir(out_flag)


@pytest.mark.parametrize("command, alpha, rc", [("interference", "-1", 2), ("interference", "0", 0), ("reconstruct", "0", 2)])
def test_alpha_is_a_non_negative_amplitude(tmp_path, capsys, command, alpha, rc):
    """A negative reference amplitude is refused under its key, where
    ``interference`` once wrote the table of |alpha|; 0, the pair light
    alone, runs, and ``reconstruct`` refuses it with its own message."""
    assert main(["--out-dir", str(tmp_path), command, f"--alpha={alpha}"]) == rc
    err = capsys.readouterr().err
    assert (err == "") if rc == 0 else err.startswith("configuration error: params.alpha: ")


def test_reconstruct_defaults_agree_between_flags_and_file(tmp_path):
    cfg = tmp_path / "rec.yaml"
    cfg.write_text(yaml.safe_dump({"scenario": "reconstruct", "params": {}}))
    out_file, out_flag = tmp_path / "file", tmp_path / "flag"
    assert main(["--out-dir", str(out_file), "scenario", "run", str(cfg)]) == 0
    assert main(["--out-dir", str(out_flag), "reconstruct"]) == 0
    assert _hash_dir(out_file) == _hash_dir(out_flag)


def _readme_tables() -> dict[str, list[list[str]]]:
    """README's tables keyed by their first header cell; body rows as cells."""
    tables, rows = {}, None
    for line in (ROOT / "README.md").read_text().splitlines():
        if not line.startswith("|"):
            rows = None
            continue
        cells = [cell.strip().strip("`") for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
        if rows is None:
            rows = tables.setdefault(cells[0], [])
        elif not set(cells[0]) <= set("-:"):
            rows.append(cells)
    return tables


def test_readme_tables_list_every_command_and_preset():
    tables = _readme_tables()
    commands = {row[0].split(" <")[0] for row in tables["command"]}
    assert commands == set(RUNNERS) | {"scenario run"}
    presets = {
        name: {"scenario": scenario, "params": yaml.safe_load(params)}
        for name, scenario, params in tables["preset"]
    }
    assert presets == PRESETS
