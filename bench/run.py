"""Run one benchmark workload for a fixed time and print its metrics.

    python3 bench/run.py --workload cell_mc --seed 0 --seconds 40 --trace 0

Inputs come from ``--seed`` alone.  The workload's entry point is called
until another call as slow as the slowest so far would overrun
``--seconds``.  Outputs are checked outside the timed interval: in full the
first time an input set is used, bit for bit against that first output
after.

``--trace 0`` cycles through the seed's input sets (see ``workloads``) and
reports the end-to-end metrics: medians over the calls of wall and CPU
seconds, the median set-up time of SETUP_PROBES fresh processes launched one
after each of the first calls, and peak resident memory.  The three times
are rescaled to reference machine speed: the reference kernel of
``calibrate`` runs between the calls, and every time is multiplied by
REFERENCE_SECONDS over the kernel's median duration in the run, which
cancels the drift of a shared machine's speed; the raw seconds are printed
and recorded too.  ``--trace 1`` alternates untraced and traced calls on the
first input set and reports the per-layer metrics of the traced calls, in
raw seconds, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
record the run environment and, when traced, the exact-repeat counts; the
same record goes to ``.bench_results/BENCH_<workload>[_trace].json`` and the
spans of the traced calls to ``.bench_results/SPANS_<workload>.json``.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checkout import ROOT, use_checkout_source

use_checkout_source()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from calibrate import REFERENCE_SECONDS, ReferenceKernel  # noqa: E402

SETUP_PROBES = 7
KERNEL_SAMPLES = 3  # reference-kernel runs before the first call and after each call
PROBE = Path(__file__).with_name("setup_probe.py")
RESULTS = ROOT / ".bench_results"


def setup_probe(name, seed):
    """Seconds from launching a fresh process to its entry-point call."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(PROBE), name, str(seed)],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    return elapsed


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None if there is none."""
    import ctypes

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # the copy numpy already loaded
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def verify(workload, inputs, output, seed, variant, reference, first):
    """Problems with one output: in full for an input set's first output, bitwise after.

    ``first`` maps input sets to the summary of their first output that passed.
    """
    summary = workload.summary(output)
    if variant in first:
        same = all(np.array_equal(summary[k], first[variant][k]) for k in summary)
        return [] if same else ["output differs from the first call's"]
    problems = workloads.check_output(workload, inputs, output, seed, variant, reference)
    if not problems:
        first[variant] = summary
    return problems


def run(name, seed, seconds, trace):
    workload = workloads.WORKLOADS[name]
    reference = workloads.load_reference() if seed == workloads.DEFAULT_SEED else None
    variants = 1 if trace else workloads.VARIANTS
    inputs = [workload.setup(seed, variant) for variant in range(variants)]

    walls, cpus, traced_walls, traced_metrics, setups = [], [], [], [], []
    traced_spans = []  # one list of span rows per traced call
    kernel = ReferenceKernel()
    kernel_s = [] if trace else [kernel() for _ in range(KERNEL_SAMPLES)]
    attempted = failed = 0
    first = {}
    start = time.perf_counter()
    while True:
        use_trace = bool(trace) and attempted % 2 == 1
        variant = attempted % variants
        attempted += 1
        with tracing.traced() if use_trace else contextlib.nullcontext() as tracer:
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                output, error = workload.call(inputs[variant]), None
            except Exception as exc:  # a call that raises is a failed operation
                output, error = None, exc
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        if use_trace:
            traced_walls.append(wall)
            traced_metrics.append(tracing.layer_metrics(tracer.spans))
            traced_spans.append(tracing.span_rows(tracer.spans))
        else:
            walls.append(wall)
            cpus.append(cpu)
        if error is None:
            try:
                problems = verify(workload, inputs[variant], output, seed, variant,
                                  reference, first)
            except Exception as exc:  # a check that cannot run fails the call
                error = exc
        if error is not None:
            problems = [f"{type(error).__name__}: {error}"]
        if problems:
            failed += 1
            print(f"call {attempted} (input set {variant}) failed: " + "; ".join(problems),
                  file=sys.stderr)
        if not trace:
            kernel_s += [kernel() for _ in range(KERNEL_SAMPLES)]
            if len(setups) < SETUP_PROBES:
                # one probe after each call spreads the set-up samples over the run
                setups.append(setup_probe(name, seed))
        # stop before a call as slow as the slowest so far would overrun
        done = time.perf_counter() - start
        if (not trace or traced_walls) and done + max(walls + traced_walls) > seconds:
            break

    while not trace and len(setups) < SETUP_PROBES:
        setups.append(setup_probe(name, seed))

    record = {"workload": name, "trace": trace, "environment": environment(seed),
              "attempted": attempted, "failed": failed}
    if trace:
        metrics = {}
        for metric in tracing.PER_LAYER:
            if metric == "trace.overhead_share":
                value = statistics.median(traced_walls) / statistics.median(walls) - 1.0
            else:
                value = statistics.median(m[metric] for m in traced_metrics)
            metrics[metric] = {"value": value, "unit": tracing.PER_LAYER[metric]}
        record["counts"] = tracing.exact_counts(traced_metrics[0])
    else:
        raw = {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
               "setup_s": statistics.median(setups)}
        scale = REFERENCE_SECONDS / statistics.median(kernel_s)
        metrics = {name: {"value": value * scale, "unit": "s"} for name, value in raw.items()}
        metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                  / 1024.0, "unit": "MB"}
        record["raw_seconds"] = dict(raw, kernel_s=statistics.median(kernel_s))
        record["samples"] = {"wall_s": walls, "cpu_s": cpus, "setup_s": setups,
                             "kernel_s": kernel_s}
    record["metrics"] = metrics

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"BENCH_{name}{'_trace' if trace else ''}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf8")
    if trace:
        spans = RESULTS / f"SPANS_{name}.json"
        spans.write_text(json.dumps(traced_spans) + "\n", encoding="utf8")
    print("environment " + json.dumps(record["environment"]))
    if not trace:
        print("raw_seconds " + json.dumps(record["raw_seconds"]))
    if trace:
        print("counts " + json.dumps(record["counts"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
