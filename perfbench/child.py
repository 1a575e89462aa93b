"""One leafout CLI invocation in a fresh interpreter, timed from inside.

    python3 child.py RECORD [--spans SPANS] [--env] [-- CLI_ARGS...]

Imports ``leafout.cli`` first and notes the monotonic clock (shared with
the parent process, which noted it before spawning this one).  With
CLI_ARGS it then runs ``leafout.cli.main`` once, timed; with ``--spans``
the public leafout API is traced during that call and the spans are
saved afterwards.  Without CLI_ARGS it is a set-up probe.  The record is
written to RECORD as JSON; the exit code is the CLI's.
"""
import json
import os
import resource
import sys
import time

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


def _environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas,
            "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


def peak_rss_kb():
    """High-water RSS of this process's own address space.

    ru_maxrss is not used: it also keeps the RSS of the parent image this
    process was forked from before its exec, so it reports the benchmark's
    memory whenever that is the larger.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv):
    import leafout.cli
    t_imported = time.monotonic()

    record_path, rest = argv[0], argv[1:]
    cli_args = rest[rest.index("--") + 1:] if "--" in rest else []
    opts = rest[:rest.index("--")] if "--" in rest else rest
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None
    record = {"t_imported": t_imported}
    if "--env" in opts:
        record["environment"] = _environment()
    code = 0
    if cli_args:
        recorder = None
        if spans_path:
            import tracer
            recorder = tracer.install()
        t0 = time.perf_counter()
        try:
            code = leafout.cli.main(cli_args)
        finally:
            record["task_s"] = time.perf_counter() - t0
            record["exit"] = code
            if recorder is not None:
                recorder.save(spans_path)
    record["peak_rss_kb"] = peak_rss_kb()
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
