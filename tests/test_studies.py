"""The studies in studies/: scenario files that each run one more row of a
paper table beside its figure's preset, all of a table in one command."""

import json
from pathlib import Path

import pytest
import yaml

from atompairs.cli import main, validate_scenario

STUDIES = Path(__file__).resolve().parents[1] / "studies"

FADOF = ["fadof-2mT-345K.yaml", "fig2-fadof", "fadof-5.9mT-378K.yaml", "fadof-18mT-353K.yaml"]
SENSING = ["sensing-34mT.yaml", "sensing-40mT.yaml", "fig11-sensing", "sensing-48mT.yaml"]


def _run(sources, out, capsys) -> list[dict]:
    """The reports of one ``scenario run`` of ``sources``, in the order printed."""
    argv = [source if source.startswith("fig") else str(STUDIES / source) for source in sources]
    assert main(["--out-dir", str(out), "scenario", "run", *argv]) == 0
    out, decoder, reports, at = capsys.readouterr().out, json.JSONDecoder(), [], 0
    while at < len(out):
        report, at = decoder.raw_decode(out, at)
        reports.append(report)
        at += 1  # the newline after each report
    return reports


def test_fadof_study_prints_the_filter_table(tmp_path, capsys, recwarn):
    """(T_max, FWHM GHz, ENBW GHz, peak GHz) of the four (B, T) rows 2 mT /
    345 K, 4.5 mT / 365 K, 5.9 mT / 378 K and 18 mT / 353 K, to the table's
    digits.  Every row leaves 1.2-13.7 % of the ENBW integral outside
    the +-8 GHz grid, and each of the four warnings reaches the caller."""
    reports = _run(FADOF, tmp_path, capsys)
    table = [
        (f"{r['t_max']:.3f}", f"{r['fwhm_hz'] / 1e9:.3f}", f"{r['enbw_hz'] / 1e9:.2f}", f"{r['peak_offset_hz'] / 1e9:+.2f}")
        for r in reports
    ]
    assert table == [
        ("0.042", "0.324", "0.89", "+2.57"),
        ("0.714", "0.436", "1.35", "+2.82"),
        ("0.907", "1.177", "2.63", "-4.30"),
        ("0.914", "0.458", "2.19", "+3.02"),
    ]
    truncated = [w for w in recwarn if "ENBW may be truncated" in str(w.message)]
    assert len(truncated) == 4 and all(issubclass(w.category, UserWarning) for w in truncated)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(Path(s).stem for s in FADOF)


def test_sensing_study_prints_the_fisher_table(tmp_path, capsys):
    """FI per photon and the SQL reference at 34, 40, 44 and 48 mT, and the
    loss-variation bonus at 44 mT, to the table's digits."""
    fisher = [r["fisher"] for r in _run(SENSING, tmp_path, capsys)]
    assert [f["b_mT"] for f in fisher] == [34.0, 40.0, 44.0, 48.0]
    assert [round(f["fi_per_photon"]) for f in fisher] == [13803, 18189, 25122, 33710]
    assert [round(f["sql_per_photon"]) for f in fisher] == [7458, 10878, 15032, 21598]
    assert [f"{f['sql_ratio']:.2f}" for f in fisher] == ["1.85", "1.67", "1.67", "1.56"]
    assert (round(fisher[2]["fi_pair_live_loss"]), round(fisher[2]["fi_pair_frozen_loss"])) == (50203, 47286)


@pytest.mark.parametrize("study", sorted(p.name for p in STUDIES.glob("*.yaml")))
def test_each_study_states_only_keys_away_from_the_defaults(study):
    """A study file names its scenario and sets each key it states to a value
    other than that key's default, as a preset does."""
    import yaml

    from atompairs.cli import validate_scenario

    cfg = yaml.safe_load((STUDIES / study).read_text())
    _, defaults = validate_scenario({"scenario": cfg["scenario"]})
    assert cfg["params"] and all(defaults[key] != value for key, value in cfg["params"].items())
