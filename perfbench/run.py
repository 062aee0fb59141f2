"""motionloc benchmark: one workload per invocation, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-short --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the same checkout; nothing is
installed or built. The metric names, units and workloads are those
listed in ``BENCHMARK.json`` at the checkout root.

With ``--trace 0`` the run sets up the workload several times (median is
``setup_s``), then repeats the workload's timed call until ``--seconds``
have passed (at least three times) and reports the end-to-end metrics.
With ``--trace 1`` it alternates an untraced and a traced call for
``--seconds``, reports the per-layer metrics from the traced calls and
the tracing overhead, and fails any op whose traced output differs from
the untraced one.

The second-to-last line of stdout is a JSON detail object (machine
facts, per-op wall times, the workload's named results, failure
reasons); the last line is the result object.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 3


def _load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        sys.exit(f"perfbench: {path} not found")
    return json.loads(path.read_text())


def _import_program():
    """Import motionloc from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "motionloc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no motionloc sources under {src}")
    sys.path.insert(0, str(src))
    import motionloc
    if Path(motionloc.__file__).resolve().parent != src / "motionloc":
        sys.exit(f"perfbench: imported motionloc from {motionloc.__file__}, "
                 f"not from {src}")


def _loadavg():
    with open("/proc/loadavg") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if none is found."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _machine_facts():
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "python_threads": threading.active_count(),
    }


class Tally:
    """Ops attempted and failed, with the reasons, against a reference run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reasons = Counter()
        self.reference = None

    def account(self, out, traced=False):
        wl = self.workload
        if isinstance(out, Exception):
            self.attempted += wl.ops_per_run
            self.failed += wl.ops_per_run
            self.reasons[f"raised {type(out).__name__}: {out}"] += 1
            return
        results = wl.results(out)
        problems = list(wl.check(out))
        if self.reference is None:
            self.reference = results
        elif results != self.reference:
            why = ("traced output differs from untraced" if traced
                   else "output differs from the run's first op")
            ref = dict(self.reference)
            problems += [(label, why) for label, fp in results
                         if ref.get(label) != fp]
        self.attempted += len(results)
        self.failed += len({label for label, _ in problems})
        self.reasons.update(f"{label}: {why}" for label, why in problems)


def _timed(fn):
    start = time.perf_counter()
    try:
        out = fn()
    except Exception as e:  # a failing op is counted, the run goes on
        out = e
    return out, time.perf_counter() - start


def _measure_plain(wl, seconds, tally):
    walls, works = [], []
    deadline = time.perf_counter() + seconds
    out = None
    while len(walls) < MIN_OPS or time.perf_counter() < deadline:
        out, wall = _timed(wl.run)
        tally.account(out)
        walls.append(wall)
        works.append(0 if isinstance(out, Exception) else wl.work(out))
    rate = statistics.median(w / t for w, t in zip(works, walls))
    return {
        "videos_per_s": rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, walls, out


def _measure_traced(wl, seconds, tally):
    import spans
    tracer = spans.Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    out = None
    while not traced or time.perf_counter() < deadline:
        out, wall = _timed(wl.run)
        tally.account(out)
        plain.append(wall)
        with tracer:
            out, wall = _timed(wl.run)
        tally.account(out, traced=True)
        traced.append(wall)
    metrics = tracer.metrics()
    metrics["trace_overhead_pct"] = 100.0 * (statistics.median(traced)
                                             / statistics.median(plain) - 1.0)
    return metrics, {"untraced": plain, "traced": traced}, out, tracer.missing


def _select(spec_metrics, values):
    out = {}
    for m in spec_metrics:
        name = m["name"]
        if name in values:
            value = values[name]
        elif name.startswith("numcore.op."):
            value = 0.0  # the op does not occur on this workload's tapes
        else:
            raise KeyError(f"metric {name} was not measured")
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None):
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    load_start = _loadavg()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        wl = {
            "train-short": lambda: workloads.TrainShort(args.seed),
            "eval-long": lambda: workloads.EvalLong(args.seed),
            "ablate-mix": lambda: workloads.AblateMix(args.seed, tmp),
        }[args.workload]()
        setup_times = []
        for _ in range(1 if args.trace else wl.setup_reps):
            start = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - start)
        tally = Tally(wl)
        if args.trace:
            values, walls, out, missing = _measure_traced(wl, args.seconds, tally)
            metrics = _select(spec["per_layer"], values)
        else:
            values, walls, out = _measure_plain(wl, args.seconds, tally)
            values["setup_s"] = statistics.median(setup_times)
            metrics = _select(spec["end_to_end"], values)
            missing = []

    named = {} if isinstance(out, Exception) else wl.summary(out)
    if not args.trace:
        named.update(wl.speed(values["videos_per_s"], statistics.median(walls)))
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": _machine_facts(),
        "loadavg_start": load_start, "loadavg_end": _loadavg(),
        "setup_s_each": setup_times, "op_wall_s_each": walls,
        "named": named, "failures": dict(tally.reasons),
        "spans_not_wrapped": missing,
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
