"""scripts/fuzz_params.py: how the sweep classifies one run."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _fuzz_result(code, stderr="", **fields):
    """A result of ``fuzz_params.run``, as it reads a run's exit code and
    stderr, with no outputs unless ``fields`` say so."""
    fuzz = runpy.run_path(str(SCRIPTS / "fuzz_params.py"))
    warning = fuzz["RUNTIME_WARNING"].search(stderr)
    result = {
        "run": "spectrum --field-mT=1e300",
        "code": code,
        "wall_s": 1.0,
        "outside": False,
        "traceback": "Traceback" in stderr,
        "warning": warning.group(0) if warning else "",
        "non_finite": [],
        "partial": [],
        "last_line": stderr.strip().splitlines()[-1:] or [""],
    }
    return fuzz["problems"], {**result, **fields}


WARNED = (
    "/src/atompairs/vapor.py:122: RuntimeWarning: overflow encountered in multiply\n"
    "  return nu0_hz * u / C_LIGHT\n"
)


@pytest.mark.parametrize(
    "code, stderr, fields, found",
    [
        (0, "", {}, []),
        (2, "configuration error: params.field_mt: field 1e+297 T is not below 13471.7 T\n", {}, []),
        (0, WARNED, {}, ["exit 0 after vapor.py:122: RuntimeWarning: overflow encountered in multiply"]),
        (4, WARNED + "coverage error: tallest peak sits on the grid edge\n", {}, []),
        (0, "/src/x.py:3: UserWarning: ENBW may be truncated\n", {}, []),
        (1, "Traceback (most recent call last):\nValueError: x\n", {}, ["exit 1", "traceback"]),
        (None, "", {}, ["past 40 s"]),
        (0, "", {"non_finite": ["index.csv"]}, ["NaN/Infinity in index.csv"]),
        (3, "", {"partial": ["scan.csv"]}, ["exit 3 leaves scan.csv"]),
        (0, "", {"outside": True}, ["exit 0 outside the domain"]),
    ],
)
def test_fuzz_reports_each_faulty_run(code, stderr, fields, found):
    """The sweep's classification of one run: an exit 0 that numpy warned on
    is a finding, as are an exit 0 at a value outside the key's domain, exit
    1, a time-out, a traceback, a non-finite output and a refused run's
    leftovers; a refusal, warned or not, or a UserWarning, is not."""
    problems, result = _fuzz_result(code, stderr, **fields)
    assert problems(result, 40.0) == found
