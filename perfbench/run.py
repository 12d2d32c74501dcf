"""Benchmark of the lambda-spectra pipeline, run from the repository root:

    python3 perfbench/run.py --workload ne_30torr_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads: ne_30torr_sweep, vacuum_sweep, refit (see workloads.py).  The
package is imported from ./src, never from an installed copy.  The sweep
pool is set to one worker per available CPU and BLAS to one thread, before
numpy is imported.

Output: one line per metric with its unit, the environment, and as the
last line a JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  The exit code is 0 only if every output passed its check;
`--workload all` runs each workload in its own process and fails if any
of them fails.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("ne_30torr_sweep", "vacuum_sweep", "refit")
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
POOL_ENV = "LAMBDA_SPECTRA_THREADS"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _set_threads() -> int:
    workers = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ[POOL_ENV] = str(workers)
    return workers


def _run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    workers = _set_threads()
    if not (SRC / "lambda_spectra" / "__init__.py").is_file():
        print(f"benchmark: no package source under {SRC}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy
    import scipy
    import lambda_spectra
    import workloads
    if Path(lambda_spectra.__file__).resolve().parent != (SRC / "lambda_spectra").resolve():
        print(f"benchmark: imported {lambda_spectra.__file__}, not ./src",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T0

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        report, tracer = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), work,
            import_s, workers)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        tracer.write_jsonl(WORK / f"trace-{args.workload}.jsonl")

    env = {"nproc": workers, "cpu": _cpu_model(),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "pool_workers": int(os.environ[POOL_ENV]),
           "blas_threads": BLAS_THREADS}
    print(f"env {json.dumps(env, sort_keys=True)}")
    wanted = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    others = [n for n in report.metrics if n not in wanted]
    for title, names in (("reported", wanted),
                         ("also measured in this run", others)):
        print(f"# {title}{' (traced)' if args.trace else ''}")
        for name in names:
            value, unit = report.metrics[name]
            print(f"{name:40s} {value:.6g} {unit}")
    for note in report.notes:
        print(f"  {note}")
    print(f"failed_frac = {report.failed}/{report.attempted}"
          f" = {report.failed / max(report.attempted, 1):.4f}")
    for problem in report.problems:
        print(f"FAILED: {problem}")
    correct = not report.problems
    print(json.dumps({
        "correct": correct, "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {n: {"value": report.metrics[n][0], "unit": report.metrics[n][1]}
                    for n in wanted}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
