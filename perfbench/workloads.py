"""The three workloads and the metrics they report.

Each workload sets up, then repeats a timed pass until `seconds` have gone
by (and at least MIN_PASSES passes have run), then checks every output.

Each time is the fastest of its repetitions in the run: the pass time
over all passes, and each item's latency (a sweep point, keyed by its
one-photon detuning, or a refit file) before the p50/p90 across items are
taken.  The work is deterministic, so interference only adds time; on a
shared host other tenants slow it by up to 1.7x, in episodes from under a
second to minutes, and the share of a run spent in them decides its median
but rarely its fastest repetition.  The medians are printed as well.

ne_30torr_sweep / vacuum_sweep: a pass is one `run_scan` of the preset as
shipped, into a fresh directory.  refit: a pass loads and fits every file
of the set written during set-up.

With trace off, only `scan.scan_point` is timed inside the package (for
the per-point latency); with trace on, every layer boundary listed in
`_traced_calls` records a span and the per-layer metrics are reported.
"""

from __future__ import annotations

import inspect
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

import checks
import refit_inputs
from lambda_spectra import csvio, fitting, propagation, scan
from tracing import (Tracer, descendants, percentile, pool_busy_frac,
                     samples_beyond, self_times)

SWEEPS = {"ne_30torr_sweep": "ne_30torr", "vacuum_sweep": "vacuum"}

MIN_PASSES = 2
SETUP_REPEATS = 3
FIT_ITERATION_CAP = 200  # fitting's iteration cap at the seed commit
OVERHEAD_CALLS = 20000
OVERHEAD_REPEATS = 5

END_TO_END = ("setup_s", "pass_s", "item_ms_p50", "item_ms_p90",
              "peak_rss_mb", "fit_converged_frac")
PER_LAYER = (
    "propagation.transmit.ms", "propagation.transmit.self_ms",
    "propagation.slabs", "propagation.kernel_evals", "propagation.ns_per_eval",
    "propagation.reference_transmission.ms", "propagation.normalize.ms",
    "model.drive_only_populations.calls", "model.drive_only_populations.ms",
    "doppler.velocity_nodes",
    "fitting.fit_lineshape.ms_p50", "fitting.fit_lineshape.ms_max",
    "fitting.iterations", "fitting.at_cap", "fitting.nonconverged",
    "fitting.initial_guess.ms",
    "scan.scan_point.ms_p50", "scan.scan_point.ms_max", "scan.pool_busy_frac",
    "scan.auto_delta_grid.ms", "scan.grid_points", "scan.self_ms",
    "scan.leaked_warning_filters",
    "csvio.export_csv.ms", "csvio.bytes_written",
    "csvio.load_spectrum_csv.ms", "csvio.bytes_read",
    "trace.overhead_frac",
)


class Report:
    """Metrics of one run: name -> (value, unit), plus lines for people."""

    def __init__(self):
        self.metrics: dict = {}
        self.notes: list = []
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def add(self, name, value, unit, note=""):
        self.metrics[name] = (float(value), unit)
        if note:
            self.notes.append(f"{name}: {note}")

    def fail(self, n_items: int, why: str):
        self.failed += n_items
        self.problems.append(why)


def _ms(seconds):
    return 1e3 * seconds


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_passes(do_pass, seconds, min_passes):
    """Call do_pass(k) until `seconds` are up and min_passes have run;
    do_pass returns the time of the part it timed."""
    walls = []
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < seconds:
        walls.append(do_pass(len(walls)))
    return walls


def _bound_args(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _file_size(path) -> int:
    return os.stat(path).st_size


def _traced_calls():
    """(module, attribute, span name, counts from (args, kwargs, result))."""
    transmit = propagation.transmit
    scan_point = scan.scan_point

    def point_key(a, kw, _res):
        # not a count: names the sweep point, to group its repetitions
        return {"big_delta": _bound_args(scan_point, a, kw)["big_delta"]}

    def transmit_counts(a, kw, _res):
        b = _bound_args(transmit, a, kw)
        slabs = b["slabs"].slab_count
        return {"slabs": slabs, "kernel_evals":
                slabs * len(b["delta_grid"]) * b["quad"].node_count}

    def fit_counts(_a, _kw, res):
        # at_cap: unconverged after FIT_ITERATION_CAP iterations, the seed's
        # cap; nonconverged counts every unconverged fit, whatever the cap
        return {"iterations": res.iterations,
                "at_cap": int(not res.converged
                              and res.iterations >= FIT_ITERATION_CAP),
                "nonconverged": int(not res.converged)}

    return [
        (scan, "scan_point", "scan.scan_point", point_key),
        (scan, "auto_delta_grid", "scan.auto_delta_grid",
         lambda a, kw, res: {"grid_points": len(res)}),
        (scan, "transmit", "propagation.transmit", transmit_counts),
        (scan, "normalize", "propagation.normalize", None),
        (propagation, "reference_transmission",
         "propagation.reference_transmission", None),
        (propagation, "drive_only_populations", "model.drive_only_populations", None),
        (scan, "drive_only_populations", "model.drive_only_populations", None),
        (propagation, "velocity_nodes", "doppler.velocity_nodes",
         lambda a, kw, res: {"nodes": len(res[1])}),
        (scan, "fit_lineshape", "fitting.fit_lineshape", fit_counts),
        (fitting, "fit_lineshape", "fitting.fit_lineshape", fit_counts),
        (fitting, "initial_guess", "fitting.initial_guess", None),
        (scan, "export_csv", "csvio.export_csv",
         lambda a, kw, res: {"bytes": _file_size(a[1])}),
        (csvio, "load_spectrum_csv", "csvio.load_spectrum_csv",
         lambda a, kw, res: {"bytes": _file_size(a[0])}),
    ]


def _span_overhead_s() -> float:
    """Cost of one traced call over a plain one: median of OVERHEAD_REPEATS
    timings of OVERHEAD_CALLS calls each way."""
    class Box:
        @staticmethod
        def f(x):
            return x

    def time_calls():
        t = time.perf_counter()
        for i in range(OVERHEAD_CALLS):
            Box.f(i)
        return time.perf_counter() - t

    costs = []
    for _ in range(OVERHEAD_REPEATS):
        plain = time_calls()
        tracer = Tracer()
        tracer.wrap(Box, "f", "probe", lambda a, kw, r: {"n": 1})
        traced = time_calls()
        tracer.restore()
        costs.append(max(traced - plain, 0.0) / OVERHEAD_CALLS)
    return statistics.median(costs)


# ----------------------------------------------------------------------
# per-layer metrics from the spans of each pass


def _layer_metrics(report: Report, tracer: Tracer, pass_ids: list,
                   pass_walls: list, workers: int):
    spans = tracer.spans
    selfs = self_times(spans)
    if any(v < 0 for v in selfs.values()):
        report.fail(0, "a span has negative self time")
    by_id = {s.id: s for s in spans}

    per_pass = []
    for pid, wall in zip(pass_ids, pass_walls):
        sub = descendants(spans, pid)
        agg: dict = {}
        for s in sub + [by_id[pid]]:
            a = agg.setdefault(s.name, {"n": 0, "s": 0.0, "self": 0.0})
            a["n"] += 1
            a["s"] += s.duration
            a["self"] += selfs[s.id]
            for k, v in s.counts.items():
                a[k] = a.get(k, 0) + v
        agg["_spans"] = len(sub)
        agg["_wall"] = wall
        points = [s.duration for s in sub if s.name == "scan.scan_point"]
        agg["_busy"] = pool_busy_frac(points, workers, wall) if points else 0.0
        per_pass.append(agg)

    def med(fn):
        return statistics.median(fn(a) for a in per_pass)

    def get(a, name, key="s"):
        return a.get(name, {}).get(key, 0)

    def durations(name):
        return [_ms(s.duration) for s in spans if s.name == name] or [0.0]

    t = "propagation.transmit"
    report.add(f"{t}.ms", med(lambda a: _ms(get(a, t))), "ms")
    report.add(f"{t}.self_ms", med(lambda a: _ms(get(a, t, "self"))), "ms")
    report.add("propagation.slabs", med(lambda a: get(a, t, "slabs")), "count")
    report.add("propagation.kernel_evals",
               med(lambda a: get(a, t, "kernel_evals")), "count")
    report.add("propagation.ns_per_eval", med(
        lambda a: 1e9 * get(a, t) / get(a, t, "kernel_evals")
        if get(a, t, "kernel_evals") else 0.0), "ns")
    for name in ("propagation.reference_transmission", "propagation.normalize",
                 "model.drive_only_populations", "scan.auto_delta_grid",
                 "csvio.export_csv", "csvio.load_spectrum_csv",
                 "fitting.initial_guess"):
        report.add(f"{name}.ms", med(lambda a: _ms(get(a, name))), "ms")
    report.add("model.drive_only_populations.calls",
               med(lambda a: get(a, "model.drive_only_populations", "n")), "count")
    v = "doppler.velocity_nodes"
    report.add(v, med(lambda a: get(a, v, "nodes") / get(a, v, "n")
                      if get(a, v, "n") else 0.0), "count")

    f = "fitting.fit_lineshape"
    fits = durations(f)
    report.add(f"{f}.ms_p50", percentile(fits, 50), "ms")
    report.add(f"{f}.ms_max", max(fits), "ms")
    report.add("fitting.iterations", med(lambda a: get(a, f, "iterations")), "count")
    report.add("fitting.at_cap", med(lambda a: get(a, f, "at_cap")), "count")
    report.add("fitting.nonconverged", med(lambda a: get(a, f, "nonconverged")),
               "count")

    p = "scan.scan_point"
    points = durations(p)
    report.add(f"{p}.ms_p50", percentile(points, 50), "ms")
    report.add(f"{p}.ms_max", max(points), "ms")
    report.add("scan.pool_busy_frac", med(lambda a: a["_busy"]), "ratio")
    report.add("scan.grid_points",
               med(lambda a: get(a, "scan.auto_delta_grid", "grid_points")), "count")
    report.add("scan.self_ms", med(lambda a: _ms(get(a, "scan.run_scan", "self")
                                                + get(a, p, "self"))), "ms")
    report.add("csvio.bytes_written",
               med(lambda a: get(a, "csvio.export_csv", "bytes")), "bytes")
    report.add("csvio.bytes_read",
               med(lambda a: get(a, "csvio.load_spectrum_csv", "bytes")), "bytes")

    per_span = _span_overhead_s()
    report.add("trace.overhead_frac",
               med(lambda a: a["_spans"] * per_span / a["_wall"]), "ratio",
               f"{per_span * 1e6:.2f} us per span, median "
               f"{med(lambda a: a['_spans']):.0f} spans per pass")


# ----------------------------------------------------------------------


def _setup(import_s, prepare):
    """Set-up time: the process's start-up and imports, plus the median of
    SETUP_REPEATS runs of the workload's preparation; returns it with the
    last preparation's result."""
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        prepared = prepare()
        times.append(time.perf_counter() - t)
    return import_s + statistics.median(times), prepared


def run_sweep(workload, seconds, trace, work, import_s, workers):
    preset = SWEEPS[workload]
    report = Report()

    def prepare():
        return scan.preset_config(preset), checks.load_reference(preset)

    setup_s, (cfg, reference) = _setup(import_s, prepare)
    n_rows = len(reference)

    tracer = Tracer()
    # untraced runs time only scan.scan_point, for the per-point latency
    calls = _traced_calls() if trace else _traced_calls()[:1]
    for module, attr, name, count in calls:
        tracer.wrap(module, attr, name, count)

    texts, leaked, converged, pass_ids = [], 0, 0, []

    def do_pass(k):
        nonlocal leaked, converged
        out = work / f"pass_{k:03d}"
        span = tracer.begin("scan.run_scan")
        tracer.root = span.id
        pass_ids.append(span.id)
        curve = None
        with warnings.catch_warnings():
            before = list(warnings.filters)
            try:
                curve = scan.run_scan(cfg, out)
            except Exception:
                traceback.print_exc(file=sys.stderr)
            finally:
                tracer.root = None
                tracer.end(span)
                leaked += warnings.filters != before
        if curve is None:
            texts.append(None)
        else:
            converged += sum(r.converged for r in curve.rows)
            texts.append((out / "descriptors.csv").read_text(encoding="utf-8"))
        shutil.rmtree(out, ignore_errors=True)
        return span.duration

    walls = _timed_passes(do_pass, seconds, MIN_PASSES)
    rss = _peak_rss_mb()
    tracer.restore()

    report.attempted = n_rows * len(walls)
    for k, text in enumerate(texts):
        if text is None:
            report.fail(n_rows, f"pass {k} raised")
            continue
        bad = checks.descriptor_failures(text, reference)
        if bad:
            report.fail(bad, f"pass {k}: {bad} row(s) off the reference")
        first = next(t for t in texts if t is not None)
        if text != first:
            diff = sum(a != b for a, b in zip(text.splitlines(), first.splitlines()))
            report.fail(max(diff, 1), f"pass {k}: descriptors.csv differs from pass 0")

    points: dict = {}
    for s in tracer.spans:
        if s.name == "scan.scan_point" and "big_delta" in s.counts:
            points.setdefault(s.counts["big_delta"], []).append(_ms(s.duration))
    _end_to_end(report, setup_s, walls, points, rss, converged, report.attempted)
    report.add("scan.leaked_warning_filters", leaked, "count",
               f"{leaked} of {len(walls)} passes left warnings.filters changed")
    if trace:
        _layer_metrics(report, tracer, pass_ids, walls, workers)
    return report, tracer


def run_refit(seed, seconds, trace, work, import_s, workers):
    report = Report()
    inputs = work / "inputs"
    setup_s, items = _setup(
        import_s, lambda: refit_inputs.write_refit_set(seed, inputs))
    paths = [inputs / it.file for it in items]

    tracer = Tracer()
    if trace:
        for module, attr, name, count in _traced_calls():
            tracer.wrap(module, attr, name, count)

    latencies, results, pass_ids = {}, [], []

    def do_pass(_k):
        span = tracer.begin("bench.pass")
        pass_ids.append(span.id)
        out = []
        for path in paths:
            t = time.perf_counter()
            try:
                fit = fitting.fit_lineshape(csvio.load_spectrum_csv(path))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                fit = None
            latencies.setdefault(path.name, []).append(_ms(time.perf_counter() - t))
            out.append(fit)
        tracer.end(span)
        results.append(out)
        return span.duration

    walls = _timed_passes(do_pass, seconds, MIN_PASSES)
    rss = _peak_rss_mb()
    tracer.restore()

    # oracles, outside the timed part
    spectra = [csvio.load_spectrum_csv(p) for p in paths]
    oracle = [checks.lm_oracle_sse(s) if it.kind == "thick" else None
              for it, s in zip(items, spectra)]
    report.attempted = len(items) * len(walls)
    converged = 0
    for k, out in enumerate(results):
        for it, spec, ref_sse, fit in zip(items, spectra, oracle, out):
            if fit is None:
                report.fail(1, f"pass {k}: {it.file} raised")
                continue
            converged += fit.converged
            ok = (checks.thick_ok(fit, spec, ref_sse) if it.kind == "thick"
                  else checks.synthetic_ok(fit, spec, it.truth, it.noise))
            if not ok:
                report.fail(1, f"pass {k}: {it.file} failed its check")

    _end_to_end(report, setup_s, walls, latencies, rss, converged,
                report.attempted)
    report.add("scan.leaked_warning_filters", 0, "count")
    if trace:
        _layer_metrics(report, tracer, pass_ids, walls, workers)
    return report, tracer


def _end_to_end(report, setup_s, walls, items_ms, rss, converged, fits):
    """`items_ms` maps each item to its latencies in the run; `fits` counts
    every fit attempted, and one that raised is not converged."""
    report.add("setup_s", setup_s, "s",
               f"imports plus the median of {SETUP_REPEATS} preparations")
    report.add("pass_s", min(walls), "s", f"fastest of {len(walls)} passes")
    report.add("pass_s_median", statistics.median(walls), "s")
    if not items_ms:
        report.fail(0, "no item was timed")
        items_ms = {None: [0.0]}
    per_item = [min(v) for v in items_ms.values()]
    n = len(per_item)
    reps = min(len(v) for v in items_ms.values())
    report.add("item_ms_p50", percentile(per_item, 50), "ms",
               f"{n} items, each the fastest of >= {reps} repetitions")
    report.add("item_ms_p90", percentile(per_item, 90), "ms",
               f"{n} items, {samples_beyond(per_item, 90)} beyond")
    report.add("item_ms_median_p50",
               percentile([x for v in items_ms.values() for x in v], 50), "ms")
    report.add("peak_rss_mb", rss, "MB")
    nonconverged = fits - converged
    report.add("fit_converged_frac", converged / fits, "ratio",
               f"nonconverged_frac = {nonconverged}/{fits} = "
               f"{nonconverged / fits:.4f}")


def run(workload, seed, seconds, trace, work: Path, import_s, workers):
    if workload in SWEEPS:
        return run_sweep(workload, seconds, trace, work, import_s, workers)
    return run_refit(seed, seconds, trace, work, import_s, workers)
