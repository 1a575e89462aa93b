"""leafout benchmark: cold-process CLI workloads with output checks.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the CLI is imported from
``src/``.  Each pass runs the workload's CLI invocations one at a time,
each in its own fresh interpreter (a closed loop with one client), and
checks every invocation's outputs against independent relations.  Passes
repeat until ``--seconds`` have elapsed.

``--trace 0`` reports the end-to-end metrics:

* task_s       wall time inside ``leafout.cli.main``, summed over a pass;
               the mean over the run's passes;
* setup_s      child start until ``leafout.cli`` is imported; the median
               over every invocation of the run plus SETUP_PROBES
               import-only probes before each pass;
* peak_rss_mb  largest peak RSS of any child process in a pass; the
               median over the run's passes.

Every reported time is at the reference speed: the measured wall time
times REF_NOMINAL_S over the run's mean time of ``reference_kernel``,
a fixed piece of work timed in this process before each pass and after
the last.  On the shared two-CPU machine the benchmark was built on,
the speed of a core drifts by up to a factor of two over minutes; the
kernel slows with it, so the ratio stays steady where raw wall time does
not.  task_s is thus the run's total task time over its total kernel
time; with three to ten passes a run, that ratio of totals was steadier
across runs than a ratio of medians.  The raw wall times are in the
detail line.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see tracer.py), the tracing
overhead, and fails the run unless the traced counts repeat exactly and
the layer self times add up to the root spans.

The last line of stdout is one JSON object: correct, attempted, failed
(CLI invocations; an invocation fails on a non-zero exit, a manifest
status other than ok, or any failed output check) and metrics.  The line
before it, and ``result.json`` in the run directory, hold the details:
quartiles, sample counts and samples (at the reference speed and as
measured), config hashes, failures and the environment.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracer
import workloads
from child import BLAS_THREAD_VARS

DEFAULT_SEED = 1
#: never used while tuning the benchmark or a change; kept for checking claims
HELD_OUT_SEED = 9173
SETUP_PROBES = 1
REF_ITERATIONS = 80000
#: reference_kernel seconds on an idle core of an Intel Xeon (2 vCPU) host
REF_NOMINAL_S = 0.5
MIN_TRACE_PAIRS = 2
# A run must end within 180 s.  Children are killed once this budget is
# spent, and no further pass starts; the slowest invocation takes ~10 s.
RUN_BUDGET_S = 150
SELF_SUM_RTOL = 1e-9
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".bench_build" / "perfbench"


def reference_kernel():
    """Fixed work shaped like the CLI's: small numpy calls, Python control
    flow and float formatting; returns its wall time.  Never change it
    without re-measuring the baseline: it sets the unit of every time."""
    x = np.linspace(0.1, 3.0, 64)
    r = np.array([[1.0, 0.0, 0.0], [0.0, 0.8, -0.6], [0.0, 0.6, 0.8]])
    m = np.eye(3)
    acc, out = 0.0, []
    t0 = time.perf_counter()
    for k in range(REF_ITERATIONS):
        y = np.cos(x * (1 + k % 7))
        m = m @ r
        acc += float(np.max(np.abs(y))) + m[0, 0]
        out.append(f"{acc:.17g}")
    return time.perf_counter() - t0


def child_env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # one BLAS thread: the CLI's matrices are 3 x 10, and a pool would
    # add thread start-up to every cold import on a two-CPU machine
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    return env


def spawn(record, env, timeout, cli_args=(), spans=None, extra=()):
    """Run child.py once; returns (exit code, record or None, setup_s).
    The exit code is None when the child was killed after ``timeout``."""
    if timeout <= 0:
        return None, None, None
    cmd = [sys.executable, str(HERE / "child.py"), str(record), *extra]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if cli_args:
        cmd += ["--", *cli_args]
    log = record.with_suffix(".log")
    with open(log, "w") as fh:
        t_spawn = time.monotonic()
        try:
            code = subprocess.run(cmd, env=env, stdout=fh, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return None, None, None
    if not record.is_file():
        return code, None, None
    rec = json.loads(record.read_text())
    return code, rec, rec["t_imported"] - t_spawn


class Run:
    """Generated inputs, scratch directory and tallies of one benchmark run."""

    def __init__(self, workload, seed, trace):
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.dir = WORK_ROOT / f"{workload}-seed{seed}-trace{trace}"
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "configs").mkdir(parents=True)
        self.env = child_env()
        self.invocations = workloads.generate(workload, seed)
        self.checkers = checks.prepare(self.invocations, seed)
        self.config_files = []
        for i, inv in enumerate(self.invocations):
            path = self.dir / "configs" / f"{i}-{inv.task}.json"
            path.write_text(json.dumps(inv.config, indent=2, sort_keys=True) + "\n")
            self.config_files.append(path)
        (self.dir / "probes").mkdir()
        self.setup = []
        self.ref = []
        self.probes = 0
        self.attempted = self.failed = 0
        self.failures = []
        self.problems = []

    def time_left(self):
        return max(0.0, self.deadline - time.monotonic())

    def probe_setup(self, environment=False):
        """One import-only child; returns its environment record when
        asked for it."""
        record = self.dir / "probes" / f"{self.probes}.json"
        self.probes += 1
        code, rec, setup = spawn(record, self.env, self.time_left(),
                                 extra=("--env",) if environment else ())
        if code != 0 or rec is None:
            self.problems.append(f"set-up probe failed; see {record.with_suffix('.log')}")
            return None
        self.setup.append(setup)
        return rec.get("environment")

    def run_pass(self, number, traced):
        """One pass; returns task_s, peak RSS (MB), span files, output dirs."""
        pass_dir = self.dir / f"pass{number}"
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_dir.mkdir()
        self.ref.append(reference_kernel())
        for _ in range(SETUP_PROBES):
            self.probe_setup()
        task_s, peak_kb, spans, outs = 0.0, 0, [], []
        for i, (inv, cfg, check) in enumerate(zip(self.invocations, self.config_files,
                                                  self.checkers)):
            out = pass_dir / f"{i}-{inv.task}"
            span_file = pass_dir / f"{i}.spans.npz" if traced else None
            code, rec, setup = spawn(pass_dir / f"{i}.record.json", self.env,
                                     self.time_left(),
                                     [inv.task, "--config", str(cfg), "--out", str(out)],
                                     span_file)
            self.attempted += 1
            if rec is None or code != 0:
                fails = [f"exit code {code}" if code is not None else "timed out"]
            else:
                fails = check(str(out))
                task_s += rec["task_s"]
                peak_kb = max(peak_kb, rec["peak_rss_kb"])
                self.setup.append(setup)
            if fails:
                self.failed += 1
                self.failures.append({"pass": number, "task": inv.task, "failures": fails})
            spans.append(span_file)
            outs.append(out)
        return task_s, peak_kb / 1024.0, spans, outs


def output_size(dirs):
    files = [p for d in dirs for p in Path(d).rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


def is_time(metric):
    return metric.endswith(("_s", ".s"))


def summary(values):
    """Median, quartiles and sample count of a list of numbers."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values),
            "values": values}


def machine():
    """CPU model, CPU counts and cache sizes, as far as the OS shows them."""
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                      if ln.startswith("model name")), None)
    except OSError:
        info["cpu_model"] = None
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    info["caches"] = caches
    return info


def keep_going(run, start, rounds, seconds, min_rounds=1):
    """Start another round while it is expected to end by ``seconds`` plus
    half a round, so that a run lasts about ``seconds`` on average."""
    if run.time_left() <= 0:
        return False
    if rounds < min_rounds:
        return True
    elapsed = time.monotonic() - start
    return elapsed + 0.5 * elapsed / rounds < seconds


def measure(run, seconds):
    """Untraced passes for about ``seconds``."""
    task, rss = [], []
    start = time.monotonic()
    while keep_going(run, start, len(task), seconds):
        t, peak, _, _ = run.run_pass(len(task), traced=False)
        task.append(t)
        rss.append(peak)
    samples = {"task_s": task, "setup_s": run.setup, "peak_rss_mb": rss}
    metrics = {"task_s": statistics.fmean(task), "peak_rss_mb": statistics.median(rss)}
    if run.setup:
        metrics["setup_s"] = statistics.median(run.setup)
    return metrics, samples, []


def measure_traced(run, seconds):
    """Alternating (untraced, traced) pass pairs; per-layer metrics."""
    plain, traced, layer_runs, problems = [], [], [], []
    start = time.monotonic()
    while keep_going(run, start, len(traced), seconds, MIN_TRACE_PAIRS):
        plain.append(run.run_pass(2 * len(traced), traced=False)[0])
        t, _, spans, outs = run.run_pass(2 * len(traced) + 1, traced=True)
        traced.append(t)
        if any(not Path(s).is_file() for s in spans):
            problems.append("a traced invocation saved no spans")
            continue
        layers, self_sum, root_s = tracer.layer_metrics(spans)
        if abs(self_sum - root_s) > SELF_SUM_RTOL * root_s + 1e-9:
            problems.append(f"layer self times {self_sum:.9f} s != root spans {root_s:.9f} s")
        layers["io.bytes_written"], layers["io.files_written"] = output_size(outs)
        layers["trace.unattributed_s"] = t - self_sum
        layer_runs.append(layers)
    if not layer_runs:
        return {}, {}, problems
    counts = [{k: v for k, v in lr.items() if not is_time(k)}
              for lr in layer_runs]
    for c in counts[1:]:
        diff = sorted(k for k in c if c[k] != counts[0][k])
        if diff:
            problems.append(f"per-layer counts differ between traced passes: {diff}")
    metrics = {k: statistics.median(lr[k] for lr in layer_runs)
               for k in layer_runs[0] if k not in counts[0]}
    metrics.update(counts[0])
    metrics["trace.task_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics, {"task_s": plain, "trace.task_s": traced}, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "leafout" / "cli.py").is_file():
        print(f"perfbench: no leafout sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.trace)
    environment = {"machine": machine(), "child": run.probe_setup(environment=True)}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    metrics, samples, problems = (measure_traced if args.trace else measure)(
        run, args.seconds)
    run.ref.append(reference_kernel())
    speed = REF_NOMINAL_S / statistics.fmean(run.ref)
    metrics = {k: v * speed if is_time(k) else v for k, v in metrics.items()}
    problems = run.problems + problems
    missing = sorted(set(units) - set(metrics))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    correct = run.failed == 0 and not problems
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "speed_factor": speed,
        "samples": {k: summary([x * speed for x in v] if is_time(k) else v)
                    for k, v in samples.items() if v},
        "wall_samples": {k: summary(v) for k, v in
                         [*samples.items(), ("reference_kernel_s", run.ref)] if v},
        "config_sha256": [checks.config_sha256(inv.config) for inv in run.invocations],
        "failures": run.failures, "problems": problems, "environment": environment,
    }
    (run.dir / "result.json").write_text(json.dumps(detail, indent=2) + "\n")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()
                    if k in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
