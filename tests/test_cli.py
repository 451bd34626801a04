import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from atompairs.cli import (
    PARAMS,
    RUNNERS,
    build_parser,
    main,
    rho_from_json,
    rho_to_json,
    validate_scenario,
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
            "5.0",
            "--half-span-GHz",
            "1.0",
        ]
    )
    assert rc == 4


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


def test_records_roundtrip_through_cli(tmp_path):
    from atompairs.biphoton import ideal_opo_psi, simulate_records, symmetric_tau_grid

    tau = symmetric_tau_grid(60e-9, 2e-9)
    psi = ideal_opo_psi(8.1e6, 0.2, tau)
    recs = simulate_records(psi, 1.0, [0.0, 0.6, 1.2, 1.8], 100.0, noise=False)
    bundle = {
        "alpha": 1.0,
        "exposure": 100.0,
        "tau_ns": (tau * 1e9).tolist(),
        "phases_rad": [r.phase_rad for r in recs],
        "counts": [r.counts.tolist() for r in recs],
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


def test_atom_data_override_flag(tmp_path):
    from importlib import resources

    payload = yaml.safe_load(
        resources.files("atompairs.data").joinpath("rb_d1.yaml").read_text()
    )
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


def test_scenario_file_equivalent_to_preset(tmp_path):
    from atompairs.presets import PRESETS

    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(yaml.safe_dump(PRESETS["fig4-g2-comb"]))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--out-dir", str(out_a), "scenario", "run", "fig4-g2-comb"]) == 0
    assert main(["--out-dir", str(out_b), "scenario", "run", str(cfg)]) == 0
    assert _hash_dir(out_a) == _hash_dir(out_b)


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
    from atompairs.presets import PRESETS

    for name, cfg in PRESETS.items():
        scenario, resolved = validate_scenario(cfg)
        assert set(resolved) == set(PARAMS[scenario]), name
        for key, value in cfg["params"].items():
            assert resolved[key] == value, (name, key)


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


def test_spectrum_format_json(tmp_path):
    out = tmp_path / "spec"
    argv = ["spectrum", "--format", "json", "--half-span-GHz", "0.2"]
    assert main(["--out-dir", str(out)] + argv) == 0
    assert set(json.loads((out / "index.json").read_text())) == {
        "frequency_hz",
        "n_plus",
        "n_minus",
    }
    assert not (out / "index.csv").exists()


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
    ],
)
def test_non_positive_grid_step_exit_2(tmp_path, argv):
    assert main(["--out-dir", str(tmp_path / "out")] + argv) == 2


@pytest.mark.parametrize("command", sorted(RUNNERS))
def test_every_scenario_has_a_subcommand_with_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "(default:" in capsys.readouterr().out


def test_readme_examples_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [
        line.strip()
        for line in readme.read_text().splitlines()
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


def test_reconstruct_defaults_agree_between_flags_and_file(tmp_path):
    cfg = tmp_path / "rec.yaml"
    cfg.write_text(yaml.safe_dump({"scenario": "reconstruct", "params": {}}))
    out_file, out_flag = tmp_path / "file", tmp_path / "flag"
    assert main(["--out-dir", str(out_file), "scenario", "run", str(cfg)]) == 0
    assert main(["--out-dir", str(out_flag), "reconstruct"]) == 0
    assert _hash_dir(out_file) == _hash_dir(out_flag)
