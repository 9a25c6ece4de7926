"""One fresh process of the benchmark: set up one workload and run one round.

Usage (from run.py): python3 perfbench/worker.py '<json spec>'

The spec names the workload, seed and round index, and a mode:
"setup" only imports the package and makes the inputs (optionally adding
the input-property report and the environment fingerprint after the set-up
clock stops); "round" also runs the timed region, traced or not.  The
result is printed as one JSON line, the last line of standard output.
"""

import time

_T0 = time.perf_counter()  # set-up starts before the package is imported

import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pkgutil  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402


def _blas_threads_in_effect():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def fingerprint() -> dict:
    import platform

    import numpy
    import scipy

    import zetaspectra

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_in_effect": _blas_threads_in_effect(),
        "zetaspectra": getattr(zetaspectra, "__version__", None),
        "zetaspectra_path": os.path.dirname(zetaspectra.__file__),
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import hostspeed
    import workloads

    import zetaspectra

    # set-up imports every module, so no round pays a first import inside
    # its timed region and the tracer finds every binding
    for module in pkgutil.iter_modules(zetaspectra.__path__):
        importlib.import_module(f"zetaspectra.{module.name}")

    workload = workloads.WORKLOADS[spec["workload"]]
    with tempfile.TemporaryDirectory(prefix=f"{workload.name}-") as tmpdir:
        inputs = workload.make_inputs(spec["seed"], spec["round"], tmpdir)
        setup_raw = time.perf_counter() - _T0
        # set-up is interpreter work whatever the workload
        setup_factor = hostspeed.factor("python", hostspeed.read("python"))
        result = {"setup_raw_s": setup_raw, "setup_s": setup_raw * setup_factor, "params": workload.params}
        if spec["mode"] == "setup":
            if spec.get("graph_report") and hasattr(workload, "graph_report"):
                result["graph"] = workload.graph_report(inputs)
            if spec.get("fingerprint"):
                result["fingerprint"] = fingerprint()
            print(json.dumps(result))
            return 0

        tracer = None
        if spec["traced"]:
            import tracing

            tracer = tracing.Tracer(spec["run_id"])
            result["missing_targets"] = tracer.install()
        clock = hostspeed.RoundClock(workload.reference)
        clock.start()
        if tracer is not None:  # reads inside the round are spans, not layer self time
            clock.reader = tracer.span("bench.kernel_read", hostspeed.read)
        elapsed0 = time.perf_counter()
        if tracer is None:
            outcome = workload.run(inputs, clock.checkpoint)
        else:
            outcome = tracer.run_root(workload.run, inputs, clock.checkpoint)
        elapsed = time.perf_counter() - elapsed0
        clock.reader = hostspeed.read
        clock.stop()

    result.update(
        clock.totals(),
        elapsed_s=elapsed,
        kernel_reads_s=clock.reading_s,
        intervals=len(clock.intervals),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=outcome.attempted,
        failed=outcome.failed,
        gates=outcome.gates,
    )
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["accounting"] = tracer.accounting()
        result["counter_overhead_per_call_s"] = tracing.counter_overhead_per_call()
        with open(spec["spans_path"], "w", encoding="ascii") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
