"""scripts/compare_outputs.py: the output comparison of two checkouts."""

import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMPARE = runpy.run_path(str(ROOT / "scripts" / "compare_outputs.py"))


def test_the_working_tree_matches_itself_on_two_presets(capsys):
    argv = [str(ROOT), str(ROOT), "--only", "fig4-g2-comb", "fig7-superresolution"]
    assert COMPARE["main"](argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "fig4-g2-comb: exit 0"
    assert out[1] == "  byte-identical: stdout, g2.csv, g2_fit.json, manifest.json"
    assert out[-1] == "2 runs, 7 files, 7 byte-identical; 0 difference(s) beyond --max-abs 0 / --max-rel 0"


def test_csv_report_per_column():
    """The largest |delta| and relative delta of each column, each with its
    row; equal columns report none, and a changed label is a mismatch that
    no bound covers."""
    parent = "x,T,label\n1,100,a\n2,0.5,b\n3,1e-3,c\n"
    change = "x,T,label\n1,101,a\n2,0.5,b\n3,2e-3,c\n"
    report = COMPARE["compare_csv"](parent, change)
    assert report.worst["x"] == (0.0, "", 0.0, "")
    assert report.worst["T"] == (1.0, " (row 1)", 1.0, " (row 3)")
    assert report.lines() == ["T: max |delta| 1 (row 1), max rel 1 (row 3)"]
    assert report.within(1.0, 0.0) and report.within(0.0, 1.0)
    assert not report.within(0.5, 0.5)

    relabelled = COMPARE["compare_csv"](parent, change.replace(",c\n", ",d\n"))
    assert relabelled.mismatches == ["label (row 3): 'c' -> 'd'"]
    assert not relabelled.within(1.0, 1.0)
    assert COMPARE["compare_csv"](parent, parent.replace("T", "t")).mismatches
    assert COMPARE["compare_bytes"]("a.csv", b"x\n1\n", b"x\n1.0\n").mismatches == ["bytes differ, every value is equal"]


def test_each_study_file_is_a_run():
    runs = COMPARE["runs_of"](ROOT)
    studies = sorted(ROOT.glob("studies/*.yaml"))
    assert studies and all(runs[f"studies/{f.name}"] == ["scenario", "run", str(f)] for f in studies)
    assert runs["fadof --help"] == ["fadof", "--help"]
