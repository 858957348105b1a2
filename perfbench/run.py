#!/usr/bin/env python3
"""Benchmark crtgee end to end (untraced) or per layer (traced), one workload a run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid_serial --seed 20260821 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, each in a fresh process

The package is imported from the checkout's ``src/``; there is nothing to
build. Inputs are made from ``--seed``. Every call's output is checked: at
the default seed against the golden files in ``perfbench/golden``, at any
seed against invariants that need no golden. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric with its
unit and the run's provenance, which is also written under
``.perfbench_work/results/``.
"""

from __future__ import annotations

import os

#: one BLAS/OpenMP thread per process, so that the grid_parallel pool's
#: workers do not oversubscribe the cores; set before numpy is imported
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from workloads import (DEFAULT_SEED, WORK_DIR, WORKLOADS, config_hash, diff,  # noqa: E402
                       load_golden)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(ROOT, WORK_DIR, "results")

#: untimed calls run for at least this long before timing starts, so that
#: lazy imports, first-call allocations and the inputs' page cache settle
WARMUP_S = 2.0

#: The machine's speed is sampled with a fixed reference loop before the
#: first timed round and after every round. A round's call times are divided
#: by the mean of the samples just before and just after it and multiplied
#: by REFERENCE_NOMINAL_S, the loop's uncontended time on a 2-vCPU x86-64
#: virtual machine; gated times are medians of these rescaled times. On
#: shared virtual machines co-tenants switched a process between two speeds
#: about 2x apart, for a second to minutes at a time, which moved raw times
#: by up to a third between runs; the loop, run next to the work, slows by
#: about the same factor. Rescaling each round by the speed next to it,
#: rather than a run's times by the run's mean speed, follows the switches
#: within a run. A sample is the median of REFERENCE_SAMPLES loops because a
#: loop that the scheduler preempts reads 5-20x its time.
REFERENCE_ITERATIONS = 6000
REFERENCE_NOMINAL_S = 0.002
REFERENCE_SAMPLES = 3

#: fresh interpreters started per run to measure set-up time
SETUP_PROBES = 9
SETUP_TIMEOUT_S = 60

#: at most this many problem messages are printed
MAX_PROBLEMS = 10


def import_package():
    """Import crtgee from this checkout's src/, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "crtgee", "__init__.py")):
        sys.exit(f"perfbench: no crtgee package under {SRC}")
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    import crtgee

    if not os.path.abspath(crtgee.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported crtgee from {crtgee.__file__}, not from {SRC}")
    return crtgee


def reference_s():
    """Seconds the reference loop takes now: interpreter-bound float work with
    small numpy calls, like crtgee's per-cluster loops."""
    import numpy

    a = numpy.arange(16.0)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REFERENCE_ITERATIONS):
        acc += math.sqrt(i + 1.0)
        if i % 8 == 0:
            acc += float(a.sum())
    return time.perf_counter() - t0


class Timings:
    """Raw times of a sequence of rounds, and reference samples around them."""

    def __init__(self):
        self.rounds = []         # per round, seconds per call
        self.references = [reference_sample_s()]  # before the first round, after each
        self.ok = []             # per round, whether no call raised
        self.wall = 0.0

    @property
    def completed(self):
        return sum(self.ok)

    @property
    def latencies(self):
        return [x for calls in self.rounds for x in calls]

    def rescaled(self):
        """Per round: its call times at reference speed."""
        return [[x * REFERENCE_NOMINAL_S * 2 / (before + after) for x in calls]
                for calls, before, after in zip(self.rounds, self.references,
                                                self.references[1:])]


class Run:
    """Calls of one workload with their outputs, checks and failure count."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.next_round = 0
        self.raised = False
        self.golden = None
        if seed == DEFAULT_SEED:
            self.golden = load_golden(type(workload))
        self.first = {}
        self.golden_problems = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)

    def rounds(self, min_rounds, seconds=0.0, tracer=None, start=None):
        """Run whole rounds until min_rounds are done and `seconds` have passed.

        Rounds continue from the last one run, or from round `start`. Returns
        a Timings. A round's time is the sum of its calls' times; each output
        is checked as soon as its call returns, outside the call's time, and
        the reference loop is sampled after each round.
        """
        if start is not None:
            self.next_round = start
        t = Timings()
        begin = time.perf_counter()
        while len(t.rounds) < min_rounds or time.perf_counter() - begin < seconds:
            raised = False
            calls = []
            for label, fn in self.workload.round_calls(self.next_round):
                t0 = time.perf_counter()
                try:
                    out = fn() if tracer is None else tracer.call(fn)
                except Exception as err:  # a failed call is counted, and the run goes on
                    out = err
                    raised = True
                calls.append(time.perf_counter() - t0)
                self.check(label, out)
            t.rounds.append(calls)
            t.references.append(reference_sample_s())
            self.next_round += 1
            t.ok.append(not raised)
            self.raised = self.raised or raised
        t.wall = time.perf_counter() - begin
        return t

    def check(self, label, out):
        self.attempted += 1
        if isinstance(out, Exception):
            detail = "".join(traceback.format_exception_only(type(out), out)).strip()
            self.fail(f"{label}: raised {detail}")
            return
        first = self.first.setdefault(label, out)
        if out != first:
            self.fail(f"{label}: output differs from the first call's")
            return
        if label not in self.golden_problems:
            problems = [f"{label}: {p}" for p in self.workload.check(label, out)]
            if self.golden is not None:
                expected = self.golden.get(label)
                problems += [f"{label}: golden {m}" for m in
                             diff(self.workload.golden_form(out), expected)]
            self.golden_problems[label] = problems
        problems = self.golden_problems[label]
        if problems:
            self.failed += 1
            self.problems.extend(problems[:MAX_PROBLEMS])

    def extra_checks(self):
        """Checks across the outputs of one round; they count as one operation.

        Skipped when a call raised: that call is already counted as failed.
        """
        if self.raised:
            return
        self.attempted += 1
        try:
            problems = self.workload.extra_checks(self.first)
        except Exception as err:  # counted as a failed check
            problems = [f"raised {type(err).__name__}: {err}"]
        if problems:
            self.fail("; ".join(problems[:MAX_PROBLEMS]))


def reference_sample_s():
    """Median of REFERENCE_SAMPLES runs of the reference loop."""
    return statistics.median(reference_s() for _ in range(REFERENCE_SAMPLES))


def setup_times(name, seed, work_dir, run, speed):
    """Seconds from starting a fresh interpreter until crtgee is imported and
    one call of the workload is done, for SETUP_PROBES interpreters: raw, with
    the call at reference speed, and, for probes that failed, until they
    exited.

    The probe reports the wall-clock times at which the import was done and
    at which it was ready, so that its exit is not part of the measurement.
    The call is rescaled by `speed`, the run's ratio of nominal to median
    reference time. The import (interpreter start and module loading) is
    not: its raw time stayed within a tenth across runs whose reference
    times moved 1.4x, and reference samples taken next to a probe, just
    after a process exits, read up to 3x slow at random.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
           "--setup-probe", work_dir]
    raw, rescaled, failed = [], [], []
    for _ in range(SETUP_PROBES):
        run.attempted += 1
        t0 = time.time()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=SETUP_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            run.fail(f"setup probe ran over {SETUP_TIMEOUT_S} s")
            failed.append(time.time() - t0)
            continue
        words = proc.stdout.split()
        if proc.returncode == 0 and len(words) == 3 and words[0] == "ready":
            imported, ready = float(words[1]) - t0, float(words[2]) - t0
            raw.append(ready)
            rescaled.append(imported + (ready - imported) * speed)
        else:
            last = (proc.stderr.strip().splitlines() or [""])[-1]
            run.fail(f"setup probe exited {proc.returncode}: {last}")
            failed.append(time.time() - t0)
    return raw, rescaled, failed


def setup_probe(name, seed, work_dir):
    """Body of one setup probe: import, one call, report when each was done."""
    import_package()
    imported = time.time()
    workload = WORKLOADS[name](seed, work_dir)
    _, fn = workload.round_calls(0)[0]
    fn()
    print(f"ready {imported!r} {time.time()!r}", flush=True)


def source_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "crtgee")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def provenance(workload, seed, crtgee):
    import numpy

    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "git_commit": commit,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "crtgee_file": os.path.relpath(crtgee.__file__, ROOT),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "workers": workload.workers,
        "seed": seed,
        "config_sha256": config_hash(workload.config),
        "config": workload.config,
        "thread_env": {var: os.environ[var] for var in THREAD_ENV},
        "platform": platform.platform(),
    }


def measure(name, seed, seconds, trace):
    """One run of one workload; returns (result object, report for the results file)."""
    crtgee = import_package()
    work_dir = os.path.join(ROOT, WORK_DIR, f"{name}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        workload = WORKLOADS[name](seed, work_dir)
        workload.prepare()
        run = Run(workload, seed)
        run.rounds(1, WARMUP_S)
        report = {}
        if trace:
            from spans import Tracer

            # each traced round follows an untraced round of the same input,
            # from round 0, so the traced inputs (and the counts) are fixed by
            # the seed, and a change of machine speed during the run falls on
            # both sides of the overhead ratio
            tracer = Tracer()
            plain, traced = [], []
            for i in range(workload.trace_rounds):
                plain += run.rounds(1, start=i).latencies
                with tracer:
                    traced += run.rounds(1, start=i, tracer=tracer).latencies
            metrics = tracer.metrics()
            metrics["trace.overhead_frac"] = (sum(traced) / sum(plain) - 1.0, "ratio")
            os.makedirs(RESULTS_DIR, exist_ok=True)
            spans_path = os.path.join(RESULTS_DIR, f"{name}-seed{seed}.spans.jsonl")
            tracer.write_spans(spans_path)
            report.update(traced_rounds=workload.trace_rounds, spans=len(tracer.spans),
                          absent=tracer.absent, largest_layer=tracer.largest_layer(),
                          spans_file=os.path.relpath(spans_path, ROOT))
            run.extra_checks()
        else:
            t = run.rounds(workload.min_rounds, seconds)
            run.extra_checks()
            usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            speed = REFERENCE_NOMINAL_S / statistics.median(t.references)
            raw_setup, setup, failed_setup = setup_times(name, seed, work_dir, run, speed)
            rescaled = t.rescaled()
            calls = [x for r in rescaled for x in r]
            raw_calls = t.latencies
            p90, raw_p90 = (statistics.quantiles(x, n=10)[8] for x in (calls, raw_calls))
            # Every end-to-end metric is printed. When a call raised, the
            # timings come from the rounds in which none did, or from all
            # rounds (times to the failure) if none completed; when no probe
            # succeeded, set-up time is the probes' time until they exited.
            # Such a run is "correct": false.
            kept = [r for r, ok in zip(rescaled, t.ok) if ok] or rescaled
            metrics = {
                "replicates_per_s": (
                    workload.replicates_per_round / statistics.median(map(sum, kept)), "1/s"),
                "call_ms_p50": (statistics.median(x for r in kept for x in r) * 1e3, "ms"),
                "setup_s": (statistics.median(setup or failed_setup), "s"),
                "peak_rss_mb": (usage / 1024.0, "MiB"),
            }
            report.update(calls=len(calls), rounds=len(t.rounds),
                          replicates=t.completed * workload.replicates_per_round,
                          wall_s=t.wall,
                          call_ms_p90=p90 * 1e3,
                          calls_above_p90=sum(1 for x in calls if x > p90),
                          reference_ms_p50=statistics.median(t.references) * 1e3,
                          raw_call_ms_mean=statistics.mean(raw_calls) * 1e3,
                          raw_call_ms_p50=statistics.median(raw_calls) * 1e3,
                          raw_call_ms_p90=raw_p90 * 1e3,
                          raw_replicates_per_s=workload.replicates_per_round
                          / statistics.median(map(sum, t.rounds)),
                          raw_setup_s=raw_setup, setup_s_probes=setup,
                          call_latencies_ms=[[x * 1e3 for x in r] for r in t.rounds],
                          reference_ms=[x * 1e3 for x in t.references])
        report.update(provenance=provenance(workload, seed, crtgee),
                      golden_checked=run.golden is not None,
                      failed_frac=run.failed / run.attempted, problems=run.problems)
        result = {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return result, report
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


#: values of the report printed after the metrics, with their units; they
#: are not gated
REPORTED = (
    ("failed_frac", "ratio"), ("calls", "count"), ("call_ms_p90", "ms"),
    ("calls_above_p90", "count"), ("rounds", "count"), ("replicates", "count"),
    ("reference_ms_p50", "ms"), ("raw_call_ms_mean", "ms"), ("raw_call_ms_p50", "ms"),
    ("raw_call_ms_p90", "ms"), ("raw_replicates_per_s", "1/s"), ("largest_layer", ""),
    ("absent", ""),
)


def print_run(name, result, report):
    print(f"perfbench {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for key, m in result["metrics"].items():
        print(f"  {key:40s} {m['value']:>16.6g} {m['unit']}")
    for key, unit in REPORTED:
        if key in report:
            label, value = f"[{key}]", report[key]
            print(f"  {label:40s} {value:>16.6g} {unit}" if isinstance(value, (int, float))
                  else f"  {label} {value}")
    for problem in report["problems"][:MAX_PROBLEMS]:
        print(f"  problem: {problem}")
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))


def run_all(args):
    """Every workload in its own fresh process; prints each, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = m
    print(json.dumps(combined))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the untraced run measures (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: run a fixed number of rounds traced and report per-layer "
                             "metrics instead of end-to-end ones")
    parser.add_argument("--setup-probe", metavar="WORK_DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.setup_probe)
        return 0
    if args.workload == "all":
        run_all(args)
        return 0
    result, report = measure(args.workload, args.seed, args.seconds, args.trace)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"result": result, **report}, fh, indent=1, sort_keys=True)
    print_run(args.workload, result, report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
