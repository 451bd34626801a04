"""Spans and counters recorded around the public functions of each layer.

``install`` wraps the functions from outside the library: a module that did
``from atompairs.x import f`` holds its own binding of ``f``, so every module
attribute bound to the same function object is replaced by the one wrapper.
Methods are wrapped on their class.  Each call records a span (name, parent,
start, end) in memory; ``write_spans`` writes them out after the pass.

A span's self time is its duration minus the time its direct child spans
cover.  ``s`` metrics sum only the outermost span of a name, so a recursive
or re-entrant call is not counted twice.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (metric, unit, better); the order is the order of BENCHMARK.json per_layer
METRICS = [
    ("atoms.all_lines_for_cell.calls", "count", "lower"),
    ("atoms.all_lines_for_cell.s", "s", "lower"),
    ("atoms.all_lines_for_cell.self_s", "s", "lower"),
    ("atoms.all_lines_for_cell.distinct", "count", "lower"),
    ("atoms.all_lines_for_cell.repeat_ratio", "ratio", "lower"),
    ("atoms.lines_emitted", "count", "lower"),
    ("atoms.build_hamiltonian.calls", "count", "lower"),
    ("atoms.build_hamiltonian.self_s", "s", "lower"),
    ("atoms.diagonalize.calls", "count", "lower"),
    ("atoms.diagonalize.self_s", "s", "lower"),
    ("atoms.transition_lines.calls", "count", "lower"),
    ("atoms.transition_lines.self_s", "s", "lower"),
    ("wigner.wigner_3j.calls", "count", "lower"),
    ("wigner.wigner_3j.self_s", "s", "lower"),
    ("wigner.wigner_3j.distinct", "count", "lower"),
    ("atoms.self_s", "s", "lower"),
    ("faddeeva.faddeeva.calls", "count", "lower"),
    ("faddeeva.faddeeva.points", "count", "lower"),
    ("faddeeva.faddeeva.self_s", "s", "lower"),
    ("faddeeva.voigt_profile_complex.calls", "count", "lower"),
    ("faddeeva.voigt_profile_complex.self_s", "s", "lower"),
    ("faddeeva.points_per_s", "1/s", "higher"),
    ("faddeeva.bytes_computed", "B", "lower"),
    ("faddeeva.self_s", "s", "lower"),
    ("vapor.VaporPath.builds", "count", "lower"),
    ("vapor.transfer_at.calls", "count", "lower"),
    ("vapor.transfer_at.s", "s", "lower"),
    ("vapor.transfer_at.self_s", "s", "lower"),
    ("vapor.rotation_angle_at.calls", "count", "lower"),
    ("vapor.rotation_angle_at.s", "s", "lower"),
    ("vapor.index_at.calls", "count", "lower"),
    ("vapor.index_at.self_s", "s", "lower"),
    ("vapor.index_at.points", "count", "lower"),
    ("vapor.index_at.distinct_points", "count", "lower"),
    ("vapor.index_at.repeat_ratio", "ratio", "lower"),
    ("vapor.blocking_cell_transmission.s", "s", "lower"),
    ("vapor.number_density.calls", "count", "lower"),
    ("filters.fadof_spectrum.calls", "count", "lower"),
    ("filters.fadof_spectrum.s", "s", "lower"),
    ("filters.filter_metrics.calls", "count", "lower"),
    ("filters.filter_metrics.s", "s", "lower"),
    ("filters.FilterSpectrum.__call__.calls", "count", "lower"),
    ("filters.FilterSpectrum.__call__.points", "count", "lower"),
    ("cavity.mode_comb.s", "s", "lower"),
    ("cavity.filtered_pair_rate.calls", "count", "lower"),
    ("cavity.filtered_pair_rate.s", "s", "lower"),
    ("coincidences.binned_histogram.s", "s", "lower"),
    ("coincidences.fit_envelope.s", "s", "lower"),
    ("biphoton.simulate_records.s", "s", "lower"),
    ("biphoton.reconstruct_wavefunction.s", "s", "lower"),
    ("noon.sensing_scan.s", "s", "lower"),
    ("noon.measurement_rates.calls", "count", "lower"),
    ("noon.measurement_rates.self_s", "s", "lower"),
    ("noon.fisher_information.s", "s", "lower"),
    ("noon.fisher_information_frozen_loss.s", "s", "lower"),
    ("noon.sql_fisher_information.s", "s", "lower"),
    ("cli.write_csv.calls", "count", "lower"),
    ("cli.write_csv.s", "s", "lower"),
    ("cli.write_csv.cells", "count", "lower"),
    ("cli.write_csv.bytes", "B", "lower"),
    ("cli.write_json.calls", "count", "lower"),
    ("cli.write_json.s", "s", "lower"),
    ("cli.OutputSink.manifest.s", "s", "lower"),
    ("cli.OutputSink.manifest.bytes_hashed", "B", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# units whose values are counts of work; they must repeat exactly across runs
EXACT_UNITS = {"count", "B"}

ATOMS_SPANS = (
    "atoms.all_lines_for_cell",
    "atoms.build_hamiltonian",
    "atoms.diagonalize",
    "atoms.transition_lines",
    "wigner.wigner_3j",
)
FADDEEVA_SPANS = ("faddeeva.faddeeva", "faddeeva.voigt_profile_complex")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.counts: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)
        self.freq_by_field: dict[tuple, list[np.ndarray]] = defaultdict(list)
        self.wrapped: list[str] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, count=None):
        """Return ``fn`` recording a span per call, then ``count(self, args, kwargs, result)``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        self.wrapped.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def span_totals(self):
        """Per span name: (calls, outermost duration, self time)."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, parent, start, end) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][1]
            if parent < 0:
                total[name] += end - start
        return calls, total, self_s

    def metrics(self, run_s: float) -> dict[str, float]:
        """Every METRICS value except ``trace.overhead_s``, which needs an untraced pass."""
        calls, total, self_s = self.span_totals()
        c = self.counts
        distinct_points = sum(
            np.unique(np.concatenate(arrays)).size for arrays in self.freq_by_field.values()
        )
        out = {}
        for span in self.wrapped:
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.s"] = total[span]
            out[f"{span}.self_s"] = self_s[span]
        out["atoms.all_lines_for_cell.distinct"] = len(self.keys["atoms.all_lines_for_cell"])
        out["atoms.all_lines_for_cell.repeat_ratio"] = _ratio(
            calls["atoms.all_lines_for_cell"], out["atoms.all_lines_for_cell.distinct"]
        )
        out["atoms.lines_emitted"] = c["atoms.lines_emitted"]
        out["wigner.wigner_3j.distinct"] = len(self.keys["wigner.wigner_3j"])
        out["atoms.self_s"] = sum(self_s[s] for s in ATOMS_SPANS)
        out["faddeeva.faddeeva.points"] = c["faddeeva.points"]
        out["faddeeva.points_per_s"] = _ratio(c["faddeeva.points"], self_s["faddeeva.faddeeva"])
        out["faddeeva.bytes_computed"] = c["faddeeva.bytes"]
        out["faddeeva.self_s"] = sum(self_s[s] for s in FADDEEVA_SPANS)
        out["vapor.VaporPath.builds"] = calls["vapor.VaporPath.__init__"]
        out["vapor.index_at.points"] = c["vapor.index_at.points"]
        out["vapor.index_at.distinct_points"] = distinct_points
        out["vapor.index_at.repeat_ratio"] = _ratio(c["vapor.index_at.points"], distinct_points)
        out["vapor.number_density.calls"] = calls["vapor.number_density"]
        out["filters.FilterSpectrum.__call__.points"] = c["filters.FilterSpectrum.points"]
        out["cli.write_csv.cells"] = c["cli.write_csv.cells"]
        out["cli.write_csv.bytes"] = c["cli.write_csv.bytes"]
        out["cli.OutputSink.manifest.bytes_hashed"] = c["cli.manifest.bytes_hashed"]
        out["trace.run_s"] = run_s
        return {name: out[name] for name, _, _ in METRICS if name != "trace.overhead_s"}

    def write_spans(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], p, round(a, 9), round(b, 9)] for n, p, a, b in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start_s", "end_s"], "names": names,
                       "spans": rows}, fh, separators=(",", ":"))


def _ratio(num, den):
    return num / den if den else 0.0


# ------------------------------------------------------------------ counters


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_lines_key(tr, args, kwargs, result):
    fractions = _arg(args, kwargs, 1, "fractions")
    field = _arg(args, kwargs, 2, "b_field_t")
    rest = tuple(args[3:]) + tuple(sorted(kwargs.items()))
    tr.keys["atoms.all_lines_for_cell"].add((tuple(sorted(fractions.items())), float(field), rest))


def _count_lines_emitted(tr, args, kwargs, result):
    tr.counts["atoms.lines_emitted"] += len(result)


def _count_wigner(tr, args, kwargs, result):
    tr.keys["wigner.wigner_3j"].add(args + tuple(sorted(kwargs.items())))


def _count_faddeeva(tr, args, kwargs, result):
    n = np.size(_arg(args, kwargs, 0, "z"))
    tr.counts["faddeeva.points"] += n
    # complex128 in and out; computed from array sizes, not measured traffic
    tr.counts["faddeeva.bytes"] += 16 * n + result.nbytes


def _count_index_at(tr, args, kwargs, result):
    cell = args[0].cell
    nu = np.atleast_1d(np.asarray(_arg(args, kwargs, 1, "nu_hz"), dtype=float))
    field = round(float(_arg(args, kwargs, 2, "b_t")), 15)
    key = (
        cell.length_m, cell.temperature_k, tuple(sorted(cell.isotope_fractions.items())),
        cell.buffer_fwhm_hz, cell.field_profile, cell.droop_fraction, field,
    )
    tr.counts["vapor.index_at.points"] += nu.size
    tr.freq_by_field[key].append(nu)


def _count_filter_points(tr, args, kwargs, result):
    tr.counts["filters.FilterSpectrum.points"] += np.size(_arg(args, kwargs, 1, "nu_hz"))


def _count_csv(tr, args, kwargs, result):
    columns = _arg(args, kwargs, 2, "columns")
    tr.counts["cli.write_csv.cells"] += sum(np.size(col) for col in columns)
    tr.counts["cli.write_csv.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_manifest(tr, args, kwargs, result):
    tr.counts["cli.manifest.bytes_hashed"] += sum(os.path.getsize(p) for p in args[0].files)


def install(tracer: Tracer):
    """Wrap the layer functions of the imported atompairs package."""
    from atompairs import atoms, biphoton, cavity, cli, coincidences, faddeeva, filters, noon
    from atompairs import vapor, wigner

    modules = [m for n, m in list(sys.modules.items()) if n == "atompairs" or n.startswith("atompairs.")]

    def function(owner, attr, name, count=None):
        fn = getattr(owner, attr)
        traced = tracer.wrap(fn, name, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, traced)

    def method(cls, attr, name, count=None):
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), name, count))

    function(atoms, "all_lines_for_cell", "atoms.all_lines_for_cell", _count_lines_key)
    function(atoms, "build_hamiltonian", "atoms.build_hamiltonian")
    function(atoms, "diagonalize", "atoms.diagonalize")
    function(atoms, "transition_lines", "atoms.transition_lines", _count_lines_emitted)
    function(wigner, "wigner_3j", "wigner.wigner_3j", _count_wigner)
    function(faddeeva, "faddeeva", "faddeeva.faddeeva", _count_faddeeva)
    function(faddeeva, "voigt_profile_complex", "faddeeva.voigt_profile_complex")
    method(vapor.VaporPath, "__init__", "vapor.VaporPath.__init__")
    method(vapor.VaporPath, "transfer_at", "vapor.transfer_at")
    method(vapor.VaporPath, "rotation_angle_at", "vapor.rotation_angle_at")
    method(vapor.VaporPath, "index_at", "vapor.index_at", _count_index_at)
    function(vapor, "blocking_cell_transmission", "vapor.blocking_cell_transmission")
    function(vapor, "number_density", "vapor.number_density")
    function(filters, "fadof_spectrum", "filters.fadof_spectrum")
    function(filters, "filter_metrics", "filters.filter_metrics")
    method(filters.FilterSpectrum, "__call__", "filters.FilterSpectrum.__call__", _count_filter_points)
    function(cavity, "mode_comb", "cavity.mode_comb")
    function(cavity, "filtered_pair_rate", "cavity.filtered_pair_rate")
    function(coincidences, "binned_histogram", "coincidences.binned_histogram")
    function(coincidences, "fit_envelope", "coincidences.fit_envelope")
    function(biphoton, "simulate_records", "biphoton.simulate_records")
    function(biphoton, "reconstruct_wavefunction", "biphoton.reconstruct_wavefunction")
    function(noon, "sensing_scan", "noon.sensing_scan")
    function(noon, "measurement_rates", "noon.measurement_rates")
    function(noon, "fisher_information", "noon.fisher_information")
    function(noon, "fisher_information_frozen_loss", "noon.fisher_information_frozen_loss")
    function(noon, "sql_fisher_information", "noon.sql_fisher_information")
    function(cli, "write_csv", "cli.write_csv", _count_csv)
    function(cli, "write_json", "cli.write_json")
    method(cli.OutputSink, "manifest", "cli.OutputSink.manifest", _count_manifest)
