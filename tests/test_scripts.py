"""The studies in scripts/ run end to end and print their tables."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# every shipped fadof_table row leaves 1.2-13.7 % of the ENBW integral outside
# the +-8 GHz grid, and the script must let each warning through
ENBW_WARNINGS = {"fadof_table.py": 4, "sensing_overview.py": 0}


@pytest.mark.parametrize(
    "script, header",
    [
        ("fadof_table.py", "B [mT] T [K] T_max B_T [GHz] B_N [GHz] peak [GHz]"),
        ("sensing_overview.py", "B [mT] FI/photon SQL ratio"),
    ],
)
def test_script_prints_its_table(script, header, capsys, recwarn):
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    lines = [" ".join(line.split()) for line in capsys.readouterr().out.splitlines()]
    assert header in lines
    truncated = [w for w in recwarn if "ENBW may be truncated" in str(w.message)]
    assert len(truncated) == ENBW_WARNINGS[script]
    assert all(issubclass(w.category, UserWarning) for w in truncated)
