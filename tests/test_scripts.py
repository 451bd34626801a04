"""The studies in scripts/ run end to end and print their tables."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, header",
    [
        ("fadof_table.py", "B [mT] T [K] T_max B_T [GHz] B_N [GHz] peak [GHz]"),
        ("sensing_overview.py", "B [mT] FI/photon SQL ratio"),
    ],
)
def test_script_prints_its_table(script, header, capsys):
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    lines = [" ".join(line.split()) for line in capsys.readouterr().out.splitlines()]
    assert header in lines
