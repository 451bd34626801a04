"""The benchmark's tracer (``perfbench/tracer.py``) looks up library names with
``getattr`` and wraps them.  A refactor that deletes or renames one of those
names must fail here, in the library's own suite, and not only when a traced
benchmark run dies at install."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import atompairs, tracer
t = tracer.Tracer()
tracer.install(t)
print(atompairs.__file__)
print(len(t.wrapped))
"""


def test_benchmark_tracer_installs_on_the_library():
    # a fresh process, so the wrappers never reach this one
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    package, wrapped = proc.stdout.split()
    assert Path(package).resolve().is_relative_to((ROOT / "src").resolve())
    assert int(wrapped) > 0
