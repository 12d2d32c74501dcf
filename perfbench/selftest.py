"""Tests of the benchmark's own arithmetic and a smoke run on tiny inputs.

Run from the repository root with

    python3 -m pytest -q perfbench/selftest.py

The file name does not match pytest's test-file pattern, so the
repository's own test run does not collect it.
"""

import csv
import math
from collections import namedtuple
import os
import shutil
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import refit_inputs  # noqa: E402
import workloads  # noqa: E402
from lambda_spectra import scan  # noqa: E402
from tracing import (Span, Tracer, covered_length, percentile,  # noqa: E402
                     pool_busy_frac, samples_beyond, self_times)


@pytest.fixture
def work():
    path = HERE.parent / ".perfbench_work" / f"selftest-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


# -- percentiles ---------------------------------------------------------


def test_percentile_matches_linear_interpolation_and_counts_tail():
    values = list(range(1, 101))
    assert percentile(values, 50) == pytest.approx(50.5)
    assert percentile(values, 90) == pytest.approx(90.1)
    assert samples_beyond(values, 90) == 10
    assert samples_beyond(values[:99], 90) == 10
    assert samples_beyond(values[:90], 90) == 9


def test_percentile_edges():
    assert percentile([7.0], 90) == 7.0
    assert percentile([3.0, 1.0, 2.0], 0) == 1.0
    assert percentile([3.0, 1.0, 2.0], 100) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_end_to_end_times_are_the_fastest_repetition_per_item():
    report = workloads.Report()
    walls = [1.0 + k / 10 for k in range(11)][::-1]  # fastest 1.0, median 1.5
    # item i runs 11 times, once fast (i ms) and ten times slow
    items = {i: [100.0 * i] * 5 + [float(i)] + [100.0 * i] * 5 for i in range(1, 12)}
    workloads._end_to_end(report, 0.5, walls, items, 90.0, 9, 10)
    m = {k: v for k, (v, _unit) in report.metrics.items()}
    assert m["pass_s"] == pytest.approx(1.0)
    assert m["pass_s_median"] == pytest.approx(1.5)
    assert m["item_ms_p50"] == pytest.approx(6.0)
    assert m["item_ms_p90"] == pytest.approx(10.0)
    assert m["fit_converged_frac"] == pytest.approx(0.9)


# -- self time -------------------------------------------------------------


def test_covered_length_merges_overlap_and_clips():
    assert covered_length([(1, 4), (2, 8), (5, 6)], 0, 10) == 7
    assert covered_length([(-2, 3), (9, 12)], 0, 10) == 4
    assert covered_length([], 0, 10) == 0


def test_self_time_under_children_on_two_pool_threads():
    # parent [0, 10]; thread A runs [1, 4] and [5, 6], thread B runs [2, 8]
    # with its own child [3, 5]: the union of children is [1, 8]
    spans = [Span(0, None, "pass", 1, 0.0, 10.0),
             Span(1, 0, "point", 2, 1.0, 4.0),
             Span(2, 0, "point", 2, 5.0, 6.0),
             Span(3, 0, "point", 3, 2.0, 8.0),
             Span(4, 3, "kernel", 3, 3.0, 5.0)]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(2.0)
    assert all(v >= 0 for v in selfs.values())


def test_tracer_parents_pool_threads_on_the_root():
    class Mod:
        @staticmethod
        def work(x):
            time.sleep(0.01)
            return x

    tracer = Tracer()
    tracer.wrap(Mod, "work", "mod.work", lambda a, kw, r: {"x": r})
    root = tracer.begin("pass")
    tracer.root = root.id
    threads = [threading.Thread(target=Mod.work, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    tracer.root = None
    tracer.end(root)
    tracer.restore()

    kids = [s for s in tracer.spans if s.name == "mod.work"]
    assert sorted(s.counts["x"] for s in kids) == [0, 1]
    assert {s.parent for s in kids} == {root.id}
    assert len({s.thread for s in kids}) == 2
    selfs = self_times(tracer.spans)
    union = covered_length([(s.start, s.end) for s in kids], root.start, root.end)
    assert selfs[root.id] == pytest.approx(root.duration - union)
    assert all(v >= 0 for v in selfs.values())
    assert Mod.work.__name__ == "work" and not hasattr(Mod.work, "__wrapped__")


def test_fit_counts_at_cap_only_when_unconverged():
    fit_counts = next(c for _m, _a, name, c in workloads._traced_calls()
                      if name == "fitting.fit_lineshape")
    Res = namedtuple("Res", "converged iterations")
    assert fit_counts((), {}, Res(True, 200)) == {
        "iterations": 200, "at_cap": 0, "nonconverged": 0}
    assert fit_counts((), {}, Res(False, 200)) == {
        "iterations": 200, "at_cap": 1, "nonconverged": 1}
    assert fit_counts((), {}, Res(False, 37)) == {
        "iterations": 37, "at_cap": 0, "nonconverged": 1}


def test_pool_busy_frac():
    assert pool_busy_frac([1.0, 1.0, 1.0, 1.0], 2, 2.5) == pytest.approx(0.8)
    assert pool_busy_frac([3.0], 1, 3.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        pool_busy_frac([1.0], 0, 1.0)


# -- correctness gate ----------------------------------------------------------


def _reference_text(preset):
    return (checks.REFERENCE_DIR / f"{preset}_descriptors.csv").read_text()


def _edit(text, row, column, fn):
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    j = header.index(column)
    cells[j] = repr(fn(float(cells[j])))
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("preset", ["ne_30torr", "vacuum"])
def test_descriptor_gate(preset):
    ref = checks.load_reference(preset)
    text = _reference_text(preset)
    assert checks.descriptor_failures(text, ref) == 0
    small = _edit(text, 5, "gamma_tilde_khz", lambda v: v * (1 + 1e-4))
    assert checks.descriptor_failures(small, ref) == 0
    width = _edit(text, 5, "gamma_tilde_khz", lambda v: v * 1.01)
    assert checks.descriptor_failures(width, ref) == 1
    branch = _edit(text, 12, "phi_rad", lambda v: v + 2 * math.pi)
    assert checks.descriptor_failures(branch, ref) == 1
    nan = _edit(text, 3, "A", lambda v: math.nan)
    assert checks.descriptor_failures(nan, ref) == 1
    short = "\n".join(text.splitlines()[:-1]) + "\n"
    assert checks.descriptor_failures(short, ref) == 1


# -- smoke runs on tiny inputs -----------------------------------------------


def test_smoke_sweep(work, monkeypatch):
    values = dict(scan.preset_config("ne_30torr").values)
    values[("sweep", "points")] = 3
    tiny = scan.ScanConfig(values=values, preset="ne_30torr")
    first = scan.run_scan(tiny, work / "first")
    assert len(first.rows) == 3
    rows = list(csv.DictReader(
        (work / "first" / "descriptors.csv").read_text().splitlines()))
    monkeypatch.setattr(scan, "preset_config", lambda name: tiny)
    monkeypatch.setattr(checks, "load_reference", lambda preset: rows)

    report, tracer = workloads.run_sweep("ne_30torr_sweep", 0.0, True, work, 0.1, 2)
    assert report.problems == []
    assert report.attempted == 3 * workloads.MIN_PASSES
    # point latencies are grouped by detuning: 3 items, 2 repetitions each
    assert "item_ms_p50: 3 items, each the fastest of >= 2 repetitions" in report.notes
    for name in workloads.END_TO_END + workloads.PER_LAYER:
        assert name in report.metrics
    assert report.metrics["propagation.kernel_evals"][0] > 0
    assert report.metrics["scan.grid_points"][0] >= 3 * 801
    assert report.metrics["fitting.iterations"][0] > 0
    assert 0 < report.metrics["scan.pool_busy_frac"][0] <= 1
    assert scan.transmit.__module__ == "lambda_spectra.propagation"
    assert not hasattr(scan.transmit, "__wrapped__")


def test_raised_sweep_pass_fails_and_is_not_converged(work, monkeypatch):
    def broken(cfg, out):
        raise RuntimeError("broken pass")

    monkeypatch.setattr(scan, "run_scan", broken)
    report, _ = workloads.run_sweep("ne_30torr_sweep", 0.0, False, work, 0.1, 2)
    assert report.attempted > 0 and report.failed == report.attempted
    assert report.problems
    assert math.isfinite(report.metrics["pass_s"][0])
    assert report.metrics["fit_converged_frac"][0] == 0


@pytest.fixture
def tiny_refit_set(monkeypatch):
    monkeypatch.setattr(refit_inputs, "THICK_PER_PRESET", 1)
    monkeypatch.setattr(refit_inputs, "SYNTHETIC", 4)


def test_smoke_refit(work, tiny_refit_set):
    report, _ = workloads.run_refit(3, 0.0, True, work, 0.1, 2)
    assert report.problems == []
    n_items = 2 + 4
    assert report.attempted == n_items * workloads.MIN_PASSES
    for name in workloads.END_TO_END + workloads.PER_LAYER:
        assert name in report.metrics
    assert report.metrics["csvio.bytes_read"][0] > 0
    assert report.metrics["propagation.kernel_evals"][0] == 0


def test_refit_inputs_follow_the_seed(work, monkeypatch):
    monkeypatch.setattr(refit_inputs, "THICK_PER_PRESET", 2)
    monkeypatch.setattr(refit_inputs, "SYNTHETIC", 4)
    a = refit_inputs.write_refit_set(5, work / "a")
    b = refit_inputs.write_refit_set(5, work / "b")
    c = refit_inputs.write_refit_set(6, work / "c")
    assert [i.file for i in a] == [i.file for i in b] == [i.file for i in c]
    same = all((work / "a" / i.file).read_bytes() == (work / "b" / i.file).read_bytes()
               for i in a)
    differ = any((work / "a" / i.file).read_bytes() != (work / "c" / i.file).read_bytes()
                 for i in a)
    assert same and differ
    # Delta = 0 is always in the thick-cell half
    first = (work / "a" / "thick_ne_30torr_00.csv").read_text()
    assert first == (work / "c" / "thick_ne_30torr_00.csv").read_text()
