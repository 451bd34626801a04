"""One fresh benchmark process: set-up, then at most one pass over a workload.

    python3 perfbench/child.py setup
    python3 perfbench/child.py pass <workload> <seed> <out-dir> [<spans-file>]

Set-up is what every CLI invocation pays: importing ``atompairs.cli`` and
loading the atom data.  A pass runs each preset of the workload through
``atompairs.cli.run_scenario`` into ``<out-dir>/<preset>``.  With a spans
file the layers are traced and the spans are written there after the pass.
Set-up and pass are timed by ``pace.Pacer``: each is reported as wall time
and as wall time rescaled to the reference host speed.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import copy
import json
import resource
import sys
import traceback

import pace


def main(argv: list[str]) -> dict:
    pacer = pace.Pacer()
    pacer.start()
    try:
        return _run(argv, pacer)
    finally:
        pacer.stop()


def _run(argv: list[str], pacer: pace.Pacer) -> dict:
    mark = pacer.begin()
    import atompairs.cli as cli
    from atompairs.atoms import load_atom_data

    atoms = load_atom_data()
    setup = pacer.end(mark)
    out = {"setup_s": setup["scaled_s"], "setup_wall_s": setup["wall_s"], "atompairs": cli.__file__}
    if argv[0] == "setup":
        return {**out, **_versions()}

    from workloads import WORKLOADS

    workload, seed, out_dir = argv[1], int(argv[2]), argv[3]
    tracer = None
    if len(argv) > 4:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    jobs = [(name, copy.deepcopy(cfg)) for name, cfg in WORKLOADS[workload].items()]

    errors = {}
    mark = pacer.begin()
    for name, cfg in jobs:
        try:
            cli.run_scenario(cfg, atoms, f"{out_dir}/{name}", seed)
        except Exception:  # a failed preset is counted by the caller, not fatal
            errors[name] = traceback.format_exc()
    run = pacer.end(mark)
    out["run_s"] = run["scaled_s"]
    out["run_wall_s"] = run["wall_s"]
    out["speed"] = run["speed"]
    out["probe_s"] = run["probe_s"]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = (peak_kb * 1024 - pace.PROBE_BYTES) / 2**20
    out["errors"] = errors
    if tracer is not None:
        out["layers"] = _rescale(tracer.metrics(out["run_s"]), run["speed"])
        tracer.write_spans(argv[4])
    return out


def _rescale(layers: dict, speed: float) -> dict:
    """Span times at the reference host speed, like ``run_s``; they include probe time."""
    from tracer import METRICS

    units = {name: unit for name, unit, _ in METRICS}
    factor = {"s": speed, "1/s": 1.0 / speed}
    return {
        name: value if name == "trace.run_s" else value * factor.get(units[name], 1.0)
        for name, value in layers.items()
    }


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
