"""Cold-pass stage benchmark for the tcat package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` of that checkout and nowhere else.  The seed relabels the simples
of every input (an isomorphic category with the same expected results).

One process runs one workload:

1. set-up: import the package afresh and build every input category from
   its JSON text, several times; ``setup_s`` is the median;
2. passes: each pass rebuilds every category from JSON and runs the
   workload's stages on it, then checks every result against
   ``references.json``; passes repeat until ``--seconds`` is spent and
   ``wall_s`` sums each category's median time over the passes;
3. with ``--trace 1`` the passes alternate between untraced and traced
   (``tracer.py``); the per-layer metrics are medians over traced passes
   and ``trace.overhead`` compares the two kinds;
4. on ``catalog_factorize``, an untimed gauge-invariance probe runs last.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted``
counts category evaluations over all passes and ``failed`` those that
raised or missed their reference.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import importlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SETUP_REPS = 11


def _seconds(name, *spans):
    return (name, "s", lambda t: sum(t.get(s, (0, 0.0))[1] for s in spans))


def _calls(name, *spans):
    return (name, "count", lambda t: sum(t.get(s, (0, 0.0))[0] for s in spans))


def _engine(op):
    return [_calls(f"engine.{op}.calls", f"engine.{op}"),
            _seconds(f"engine.{op}.s", f"engine.{op}")]


#: per-layer metrics computed from one traced pass's span totals:
#: (metric name, unit, function of {span name: [calls, self seconds]}).
SPAN_METRICS = [
    _seconds("category.loads_category.s", "category.loads_category"),
    _seconds("category.validate.s", "category.validate"),
    _seconds("modularity.s_matrix.s", "modularity.s_matrix"),
    _seconds("modularity.muger_center.s", "modularity.muger_center"),
    _seconds("center.tube_algebra.s", "center.tube_algebra"),
    _seconds("center.center_simples.s", "center.center_simples"),
    _calls("center.center_hom_dim.calls", "center.center_hom_dim"),
    _calls("center.coupling_gamma.calls", "center.coupling_gamma"),
    _seconds("center.coupling_gamma.s", "center.coupling_gamma"),
    _seconds("center.transform_dq.s", "center.transform_d", "center.transform_q"),
    _seconds("center.transform_bp.s", "center.transform_b", "center.transform_p"),
    _seconds("center.verify_center_object.s", "center.verify_center_object"),
    _seconds("center.invertibility_report.s", "center.invertibility_report"),
    *[m for op in ("tensor", "compose", "braiding", "cup_cap", "omega_loop",
                   "quantum_trace", "hom_basis", "identity") for m in _engine(op)],
    _calls("deligne.deligne_compose.calls", "deligne.deligne_compose"),
    _seconds("deligne.deligne_compose.s", "deligne.deligne_compose"),
    _calls("deligne.pair_morphism.calls", "deligne.pair_morphism"),
    _calls("linalg.svd.calls", "linalg.svd"),
    _seconds("linalg.svd.s", "linalg.svd"),
    _seconds("linalg.eig.s", "linalg.eig"),
    _calls("linalg.lstsq.calls", "linalg.lstsq"),
    _calls("linalg.inv.calls", "linalg.inv"),
]

#: per-layer metrics that do not come from span totals (``traced_metrics``
#: and ``main`` fill them in): name -> unit.
OTHER_METRICS = {
    "linalg.svd.max_input_mb": "MiB",
    "center.tube_dim": "count",
    "engine.cache_entries": "count",
    "engine.cache_max_matrix": "count",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
    "gauge.fail_ratio": "ratio",
}


def blas_threads():
    """OpenBLAS thread count of the loaded NumPy, or None if not found."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


def fresh_import():
    """Drop every loaded package module and import the package again."""
    for name in [m for m in sys.modules if m == "tcat" or m.startswith("tcat.")]:
        del sys.modules[name]
    return importlib.import_module("tcat")


def measure_setup(texts: list) -> float:
    times = []
    for _ in range(SETUP_REPS):
        gc.collect()
        start = time.perf_counter()
        tcat = fresh_import()
        for text in texts:
            tcat.loads_category(text)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _largest_array(obj, depth=0) -> int:
    """Element count of the largest ndarray reachable from a cache value."""
    if hasattr(obj, "ndim") and hasattr(obj, "size"):
        return int(obj.size)
    if depth > 4 or hasattr(obj, "_cache"):
        return 0
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple)):
        items = obj
    elif hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return 0
    return max((_largest_array(x, depth + 1) for x in items), default=0)


def run_pass(texts, wl):
    """One cold pass; returns ([seconds per category], [(category or None,
    problems)])."""
    from workloads import checked

    gc.collect()
    seconds, results = [], []
    for text in texts:
        start = time.perf_counter()
        results.append(checked(text, wl.stages, wl.max_word_length))
        seconds.append(time.perf_counter() - start)
    return seconds, results


def typical_pass(passes: list) -> float:
    """Sum over categories of the median per-category time: one pass as it
    runs when no slow spell of a shared machine falls into it."""
    return sum(statistics.median(col) for col in zip(*passes))


def traced_metrics(span_totals, max_svd_bytes, results) -> dict:
    out = {name: fn(span_totals) for name, _unit, fn in SPAN_METRICS}
    cats = [cat for cat, _bad in results if cat is not None]
    out["linalg.svd.max_input_mb"] = max_svd_bytes / 2 ** 20
    out["center.tube_dim"] = max(
        (cat._cache["tube_algebra"].dim for cat in cats
         if "tube_algebra" in cat._cache), default=0)
    out["engine.cache_entries"] = sum(len(cat._cache) for cat in cats)
    out["engine.cache_max_matrix"] = max(
        (_largest_array(v) for cat in cats for v in cat._cache.values()),
        default=0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tcat", "__init__.py")):
        sys.stderr.write(f"bench: package source not found at {SRC}/tcat\n")
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, gauge_probe, seeded_texts
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}\n")
        return 2
    wl = WORKLOADS[args.workload]

    import numpy as np
    import tcat
    if not os.path.realpath(tcat.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.stderr.write(f"bench: imported tcat from {tcat.__file__}, not {SRC}\n")
        return 2

    texts = seeded_texts(wl.documents(), args.seed)
    setup_s = measure_setup(texts)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(texts)} categories, nproc {len(os.sched_getaffinity(0))}, "
          f"BLAS threads {blas_threads()}, numpy {np.__version__}", flush=True)

    plain, traced, layer_samples = [], [], []
    attempted, problems = 0, []
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    start = time.perf_counter()
    while True:
        if tracer is not None and len(plain) > len(traced):
            tracer.install()
            try:
                dt, res = run_pass(texts, wl)
            finally:
                tracer.uninstall()
            layer_samples.append(traced_metrics(*tracer.take(), res))
            traced.append(dt)
        else:
            dt, res = run_pass(texts, wl)
            plain.append(dt)
        attempted += len(res)
        problems.extend(bad for _cat, bad in res if bad)
        # drop this pass's categories before the next pass builds its own
        del res
        elapsed = time.perf_counter() - start
        if elapsed + max(sum(dt), typical_pass(plain)) > args.seconds and (
                tracer is None or traced):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for bad in problems[:5]:
        print("gate failure: " + "; ".join(bad))
    wall_s = typical_pass(plain)
    totals = [sum(p) for p in plain]
    print(f"wall_s {wall_s:.4f} s from {len(plain)} untraced passes "
          f"(whole passes: min {min(totals):.4f}, median "
          f"{statistics.median(totals):.4f}, max {max(totals):.4f})"
          + (f"; traced {typical_pass(traced):.4f} s from {len(traced)} passes"
             if traced else ""))

    gauge_fail_ratio = 0.0
    if wl.gauge_probe:
        report = gauge_probe(args.seed)
        gauge_fail_ratio = sum(1 for bad in report.values() if bad) / len(report)
        print("gauge probe: " + ", ".join(
            f"{name} {'ok' if not bad else 'FAIL (' + '; '.join(bad) + ')'}"
            for name, bad in report.items()))

    if tracer is None:
        metrics = {"setup_s": (setup_s, "s"), "wall_s": (wall_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MiB")}
    else:
        units = {name: unit for name, unit, _fn in SPAN_METRICS}
        units.update(OTHER_METRICS)
        values = {k: statistics.median(s[k] for s in layer_samples)
                  for k in layer_samples[0]}
        values["trace.wall_s"] = typical_pass(traced)
        values["trace.overhead"] = values["trace.wall_s"] / wall_s - 1.0
        values["gauge.fail_ratio"] = gauge_fail_ratio
        metrics = {k: (values[k], units[k]) for k in units}
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
