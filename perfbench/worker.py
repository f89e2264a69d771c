"""One measured pass of a benchmark workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand. A fresh process per pass
matters: ``ddopt.checks`` caches shared experiment runs in ``lru_cache``s, so
a second pass in the same interpreter would run the battery warm and fake a
speed-up.

The pass imports ddopt from ``src/`` of the checkout (timing the import),
runs the workload's op list (timed: wall, process CPU, peak RSS), then
evaluates the oracles outside the timed span. With ``--trace 1`` the layers
are wrapped by ``tracer.Tracer`` for the op list only. The pass prints one
JSON object as the last line of its standard output.

With ``--probe`` the pass only imports ddopt and reports when it finished;
``run.py`` uses that to time set-up.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_ddopt():
    """Import numpy, scipy.linalg and ddopt in the order ddopt itself would,
    returning (seconds for all of it, seconds for scipy.linalg, finish time)."""
    if not os.path.isfile(os.path.join(SRC, "ddopt", "__init__.py")):
        sys.exit(f"error: no ddopt sources at {os.path.relpath(SRC)}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    import scipy.linalg  # noqa: F401
    t2 = time.perf_counter()
    import ddopt
    import ddopt.cli  # noqa: F401
    t3 = time.perf_counter()
    if os.path.dirname(os.path.dirname(os.path.abspath(ddopt.__file__))) != SRC:
        sys.exit(f"error: imported ddopt from {ddopt.__file__}, not from {SRC}")
    return t3 - t0, t2 - t1, t3


def _environment():
    import ctypes
    import glob

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"python": sys.version.split()[0], "numpy": np.__version__,
           "scipy": scipy.__version__,
           "blas": f"{blas.get('name')} {blas.get('version')}",
           "blas_threads": None,
           "blas_thread_env": {k: os.environ[k] for k in
                               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                               if k in os.environ}}
    # numpy wheels ship OpenBLAS with a prefixed symbol; ask it for its pool.
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                env["blas_threads"] = fn()
                break
    return env


def main(argv):
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    import_s, scipy_import_s, ready = _import_ddopt()
    import json
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    import contextlib
    import resource
    import shutil
    from pathlib import Path

    import workloads

    out = Path(args.out)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ops = workloads.plan(args.workload, args.seed, out, args.smoke)

    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()

    outcomes = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for op in ops:
        span = tracer.span(op.span) if tracer and op.span else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span:
                value, error = op.run(), None
        except Exception as exc:  # an op that raises is a failed op, not a failed pass
            value, error = None, f"{type(exc).__name__}: {exc}"
        outcomes.append((value, error, time.perf_counter() - start))
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        tracer.uninstall()
        tracer.write(out / "spans.jsonl")

    results = []
    for op, (value, error, seconds) in zip(ops, outcomes):
        if error is not None:
            judgement = workloads.Judgement()
            judgement.fail(f"raised {error}")
        else:
            judgement = op.judge(value)
        results.append({"name": op.name, "s": seconds, "failed": judgement.failed,
                        "unexpected": judgement.unexpected, "notes": judgement.notes,
                        **judgement.stats})

    report = {"ready": ready, "import_s": import_s, "scipy_import_s": scipy_import_s,
              "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb, "ops": results}
    if tracer:
        report["layers"] = tracer.layer_stats()
    report["env"] = _environment()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
