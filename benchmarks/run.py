"""relaxarea benchmark: time to a verified result, refusal latency, set-up
time and memory per workload; per-layer splits with ``--trace 1``.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One process, one client, tasks back to back (closed loop), no extra threads:
BLAS is capped at one thread, ``RELAXAREA_THREADS`` is unset and no
``--threads`` flag is passed.  The package is imported from ``src/`` next to
this directory; without it the run exits non-zero and prints no result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Output files, the
full report and the recorded spans go to ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import os
import sys

# pin the run environment before numpy is imported anywhere
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("RELAXAREA_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("acceptance-studies", "singular-cube", "lattice-extract", "graph-4d")
#: fewest timed passes of an untraced run, whatever ``--seconds`` allows
MIN_PASSES = 3
#: refusals timed in an untraced run, spread over it; the median is reported
REFUSALS = 20
#: fewest passes in each phase (untraced, traced) of a traced run
MIN_TRACE_PASSES = 2
#: fresh interpreters started to measure set-up time; the median is reported
SETUP_REPEATS = 7
#: no new pass starts after this many seconds of measuring (runs end < 180 s)
HARD_STOP_S = 120.0
#: seconds each host-speed reference kernel takes on the host the end-to-end
#: times are scaled to (see "Host speed" in README.md)
REFERENCE_S = 0.1

END_TO_END_UNITS = {
    "wall_s": "s",
    "refusal_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _import_package():
    """Import relaxarea from this checkout's ``src/`` (never an installed copy)."""
    if not (SRC / "relaxarea" / "__init__.py").is_file():
        raise SystemExit(f"error: no relaxarea package under {SRC}")
    sys.path.insert(0, str(SRC))
    import relaxarea

    if Path(relaxarea.__file__).resolve().parent != (SRC / "relaxarea").resolve():
        raise SystemExit(f"error: relaxarea imported from {relaxarea.__file__}")
    return relaxarea


class Tally:
    """Attempted and failed task counts of one run, with failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def run(self, task, earlier: dict, tracer=None) -> float:
        """Run and check one task; returns the seconds spent in ``task.run``."""
        self.attempted += 1
        if tracer is not None:
            tracer.task = task.name
        start = perf_counter()
        try:
            result = task.run()
        except Exception as exc:  # an unexpected error is a failed task
            elapsed = perf_counter() - start
            self.fail(task.name, [f"{type(exc).__name__}: {exc}"])
            return elapsed
        elapsed = perf_counter() - start
        earlier[task.name] = result
        try:
            problems = task.check(result, earlier)
        except Exception as exc:  # a malformed output is a failed task
            problems = [f"output check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.fail(task.name, problems)
        return elapsed

    def fail(self, name, problems):
        self.failed += 1
        if len(self.messages) < 50:
            self.messages.append(f"{name}: " + "; ".join(problems))


def one_pass(workload, tally, tracer=None) -> float:
    """Seconds spent in the converging tasks of one pass (checks excluded)."""
    earlier = {}
    return sum(tally.run(t, earlier, tracer) for t in workload.tasks)


def timed_passes(workload, tally, budget_s, tracer=None, after_pass=None):
    """Warm passes (at least ``MIN_TRACE_PASSES``) until ``budget_s`` is used."""
    samples = []
    start = perf_counter()
    while len(samples) < MIN_TRACE_PASSES or perf_counter() - start < budget_s:
        if perf_counter() - start > HARD_STOP_S:
            break
        samples.append(one_pass(workload, tally, tracer))
        if after_pass is not None:
            after_pass()
    return samples


def one_setup(workload_name, seed, tally) -> float:
    """Seconds for a fresh interpreter to import, build and run the warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload_name, "--seed", str(seed)]
    tally.attempted += 1
    start = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
    except subprocess.TimeoutExpired:
        tally.fail("setup", ["no exit within 120 s"])
        return perf_counter() - start
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        tally.fail("setup", [f"exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-300:]}"])
    return elapsed


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _summary(name, values, unit):
    q1, q3 = _quartiles(values)
    return (f"{name}: median {statistics.median(values):.6g} {unit} "
            f"(n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g}, "
            f"min {min(values):.6g}, max {max(values):.6g})")


def small_array_kernel():
    """numpy work on many small arrays, as the package does per quadrature
    cell.  Not numpy.random, whose extension modules alone take 6 MB."""
    import numpy as np

    arrays = [np.sin(np.arange(192.0) * (k + 1)).reshape(64, 3)
              for k in range(50)]

    def run() -> float:
        start = perf_counter()
        for _ in range(330):
            for a in arrays:
                np.sqrt(1.0 + (a * a).sum(axis=1)).sum()
                np.arctan2(a[:, 0], a[:, 1])
        return perf_counter() - start

    return run


def gather_kernel():
    """Reads of a 32 MB array in scattered order, as lattice extraction
    reads its grids.  The arrays are made before timing and freed after, so
    they never add to ``peak_rss_mb``."""
    import numpy as np

    n, chunk = 4_000_000, 1 << 18

    def run() -> float:
        values = np.arange(n, dtype=float)
        np.sin(values, out=values)
        order = np.arange(n)
        order *= 7919  # a permutation of range(n): 7919 is prime to n
        order %= n
        start = perf_counter()
        for _ in range(2):
            for lo in range(0, n, chunk):
                values[order[lo:lo + chunk]].sum()
        return perf_counter() - start

    return run


SPEED_KERNELS = {"small-arrays": small_array_kernel, "gather": gather_kernel}


class HostSpeed:
    """Scales a timed sample to a host on which a reference kernel takes
    ``REFERENCE_S``, by the kernel's runs just before and just after it.

    The kernels are fixed numpy work that calls nothing in relaxarea: a
    change to the package moves a scaled time as much as a raw one, while a
    slow spell of a shared host slows the sample and the kernel runs around
    it together.
    """

    def __init__(self, kernels):
        self._kernels = {name: SPEED_KERNELS[name]() for name in kernels}
        self.reference_s = {name: [] for name in self._kernels}
        self._run_kernels()

    def _run_kernels(self):
        for name, kernel in self._kernels.items():
            self.reference_s[name].append(kernel())

    def scaled(self, elapsed: float, kernel: str) -> float:
        """``elapsed``, measured just now, in seconds at ``kernel``'s
        reference speed."""
        self._run_kernels()
        before, after = self.reference_s[kernel][-2:]
        return elapsed * REFERENCE_S / ((before + after) / 2)


def run_untraced(workload, refusal, tally, seconds, seed):
    """Raw and host-speed-scaled end-to-end samples, by metric name, and the
    reference kernels' times, by kernel name.

    Warm passes run until ``seconds`` are used and at least ``MIN_PASSES``
    are done.  Between passes, refusals and fresh set-up interpreters are
    started at an even pace, so that ``REFUSALS`` and ``SETUP_REPEATS`` of
    them are spread over the run.  The reference kernels run between every
    two samples: ``wall_s`` is scaled by the workload's own kernel, the
    refusal and set-up by the small-array kernel, whose work is like theirs.
    """
    raw = {"wall_s": [], "refusal_s": [], "setup_s": []}
    scaled = {name: [] for name in raw}
    kernel_of = {"wall_s": workload.speed_kernel,
                 "refusal_s": "small-arrays", "setup_s": "small-arrays"}
    speed = HostSpeed(set(kernel_of.values()))
    start = perf_counter()

    def record(name, elapsed):
        raw[name].append(elapsed)
        scaled[name].append(speed.scaled(elapsed, kernel_of[name]))

    def due(name, total):
        share = min((perf_counter() - start) / seconds, 1.0) if seconds else 1.0
        return len(raw[name]) < math.ceil(total * share)

    while perf_counter() - start < seconds or len(raw["wall_s"]) < MIN_PASSES:
        if perf_counter() - start > HARD_STOP_S:
            break
        record("wall_s", one_pass(workload, tally))
        while due("refusal_s", REFUSALS):
            record("refusal_s", tally.run(refusal, {}))
        if due("setup_s", SETUP_REPEATS):
            record("setup_s", one_setup(workload.name, seed, tally))
    while len(raw["refusal_s"]) < REFUSALS:
        record("refusal_s", tally.run(refusal, {}))
    while len(raw["setup_s"]) < SETUP_REPEATS:
        record("setup_s", one_setup(workload.name, seed, tally))
    return raw, scaled, speed.reference_s


def run_traced(workload, refusal, tally, seconds, tracer):
    """Per-layer metrics: untraced passes, then one traced refusal and
    traced passes.

    Counts come from one traced pass (every pass repeats them exactly) plus
    the refusal, which every workload runs; self times are medians over the
    traced passes plus the refusal's.
    """
    from bench_trace import per_layer

    untraced = timed_passes(workload, tally, seconds / 2)
    tracer.install()
    try:
        phase_start = perf_counter()
        tally.run(refusal, {}, tracer)
        refusal_raw = tracer.raw()
        pass_raws = []

        def after_pass():
            pass_raws.append(tracer.raw())
            tracer.reset()
            tracer.keep_spans = False  # spans are written for the first pass

        tracer.reset()
        traced = timed_passes(workload, tally,
                              seconds / 2 - (perf_counter() - phase_start),
                              tracer, after_pass)
    finally:
        tracer.uninstall()
    keys = set(refusal_raw).union(*pass_raws)
    combined = {
        k: refusal_raw.get(k, 0) + statistics.median(r.get(k, 0) for r in pass_raws)
        for k in keys
    }
    metrics = per_layer(combined)
    base = statistics.median(untraced)
    metrics["trace.overhead_frac"] = (statistics.median(traced) - base) / base
    return metrics, untraced, traced


def setup_only(workload_name, seed):
    _import_package()
    import bench_workloads

    out_dir = OUT / workload_name / "setup"
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = bench_workloads.build(workload_name, seed, out_dir)
    tally = Tally()
    tally.run(workload.warmup, {})
    if tally.failed:
        print("\n".join(tally.messages), file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        return setup_only(args.workload, args.seed)

    relaxarea = _import_package()
    import numpy as np

    import bench_workloads
    from bench_trace import PER_LAYER_UNITS, Tracer

    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    tally = Tally()
    workload = bench_workloads.build(args.workload, args.seed, out_dir)
    refusal = bench_workloads.refusal_task()
    tally.run(workload.warmup, {})

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": ("generated from --seed" if workload.seeded
                   else "fixed acceptance inputs; --seed does not change them"),
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "relaxarea": relaxarea.__version__,
    }
    lines = [
        f"workload {args.workload}, seed {args.seed} ({report['inputs']}), "
        f"trace {args.trace}",
        f"environment: nproc {report['nproc']}, python {report['python']}, "
        f"numpy {report['numpy']}, BLAS threads 1, RELAXAREA_THREADS unset",
    ]
    if args.trace:
        tracer = Tracer()
        metrics, untraced, traced = run_traced(
            workload, refusal, tally, args.seconds, tracer)
        units = PER_LAYER_UNITS
        report.update(untraced_pass_s=untraced, traced_pass_s=traced)
        lines += [_summary("untraced pass", untraced, "s"),
                  _summary("traced pass", traced, "s")]
        tracer.write_spans(out_dir / f"spans-seed{args.seed}.csv")
    else:
        raw, scaled, reference = run_untraced(workload, refusal, tally,
                                              args.seconds, args.seed)
        metrics = {name: statistics.median(v) for name, v in scaled.items()}
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        units = END_TO_END_UNITS
        report.update(raw_samples_s=raw, scaled_samples_s=scaled,
                      reference_s=reference)
        lines += [_summary(f"{name} kernel ({REFERENCE_S} s on the scaling "
                           "host)", times, "s")
                  for name, times in reference.items()]
        for name, label in (("wall_s", "wall_s (per warm pass)"),
                            ("refusal_s", "refusal_s (NoConvergence expected)"),
                            ("setup_s", "setup_s")):
            lines += [_summary(f"{label}, raw", raw[name], "s"),
                      _summary(f"{label}, scaled", scaled[name], "s")]

    if args.workload == "acceptance-studies":
        rate = bench_workloads.minor_rate(out_dir)
        report["criterion3_minor_rate"] = rate
        lines.append(f"criterion 3 minor-mass rate {rate} (recorded, not "
                     "asserted: its [0.7, 1.3] window is intentionally red)")
    fail_frac = tally.failed / tally.attempted
    lines.append(f"fail_frac: {fail_frac:.6g} ({tally.failed} of "
                 f"{tally.attempted} tasks failed)")
    lines += [f"  FAILED {m}" for m in tally.messages]
    report.update(fail_frac=fail_frac, failures=tally.messages, metrics=metrics)
    with open(out_dir / f"report-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    for line in lines:
        print(line)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
