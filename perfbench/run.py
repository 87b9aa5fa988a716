#!/usr/bin/env python3
"""syzex benchmark: closed-loop CLI workloads timed from outside the package.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seconds 15     # summary table

One client, one thread: each job is `syzex.cli.run(argv)` in this process and
starts when the previous one has returned.  Every job builds its own
`PathAlgebra` and all caches live on it, so jobs run cold, as users run them;
only the interpreter import, the set-up below and a `gc.collect()` before
each job are outside the timed jobs.

A run repeats whole passes over the workload's jobs, in an order drawn from
`--seed`: as many as fit in `--seconds` seconds at the reference speed
(below), judged by the first pass, and at least one.  Every job's exit code,
report digest (`reference.json`) and known answer (`jobs.py`) are checked.

Times are reported at a reference host speed: each job's wall time is scaled
by the speed of a fixed kernel sampled during the job (see gauge.py), which
takes out most of a shared host's drift.  The unscaled times are printed on
the `#` lines and written to `.perfbench/`.

The last stdout line is one JSON object: `correct` (no job that exited as
expected gave a wrong report or answer), `attempted`, `failed` (jobs with a
wrong exit code, digest or answer) and `metrics`.  `--trace 0` reports the
end-to-end metrics; `--trace 1` runs one untraced and one traced pass and
reports per-layer call counts and self times (see tracer.py).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gauge  # this directory is on sys.path when run as a script
import jobs as jobs_mod
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 9

# Runs in a fresh interpreter: import syzex, build the parser and each algebra.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from syzex import corpus
from syzex.algebra import build_algebra
from syzex.cli import build_parser
build_parser()
for ref in sys.argv[2:]:
    p, cid = ref.split(":")
    build_algebra(corpus.load_corpus(cid, int(p) or None).spec)
print(time.perf_counter() - t0)
"""


def fail(msg: str) -> None:
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_syzex():
    src = ROOT / "src"
    if not (src / "syzex" / "__init__.py").is_file():
        fail("no syzex sources under %s" % src)
    sys.path.insert(0, str(src))
    import syzex.cli

    if Path(syzex.cli.__file__).resolve().parent != src / "syzex":
        fail("imported syzex from %s, not from this checkout" % syzex.cli.__file__)
    return syzex.cli


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quartiles(values) -> tuple:
    """(q1, median, q3) as statistics.quantiles gives them; one value repeats."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def percentile(values, pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure_setup(jobs) -> tuple:
    """(scaled, raw) median set-up seconds over SETUP_REPEATS fresh interpreters."""
    refs = ["%d:%s" % (p or 0, cid) for p, cid in jobs_mod.algebras_used(jobs)]
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = gauge.probe()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(ROOT / "src")] + refs,
            capture_output=True, text=True, timeout=120,
        )
        after = gauge.probe()
        if proc.returncode != 0:
            fail("set-up child failed:\n" + proc.stderr)
        secs = float(proc.stdout.strip())
        raw.append(secs)
        scaled.append(secs * 2.0 * gauge.REF_KERNEL_S / (before + after))
    return statistics.median(scaled), statistics.median(raw)


class Checker:
    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.wrong = []  # jobs that exited as expected but answered wrongly
        self.failures = {}  # job key -> reasons

    def check(self, job, code, report, text) -> bool:
        self.attempted += 1
        reasons = []
        if code != 0:
            reasons.append("exit %d" % code)
        else:
            want = self.reference.get(job.key, "missing")
            got = hashlib.sha256(text.encode()).hexdigest()
            if want is not None and want != got:
                reasons.append("digest")
            try:
                answered = job.answer is None or job.answer(report)
            except (KeyError, TypeError, IndexError):
                answered = False
            if not answered:
                reasons.append("known answer")
            if reasons:
                self.wrong.append(job.key)
        if reasons:
            self.failed += 1
            self.failures.setdefault(job.key, reasons)
        return not reasons


def run_pass(cli, jobs, order, checker, meter=None) -> list:
    """Run the jobs in order; per call (job index, start, end, net seconds, ok)."""
    calls = []
    for i in order:
        job = jobs[i]
        # a CLI process starts with an empty heap: do not make this job
        # collect the garbage the previous one left behind
        gc.collect()
        spent = meter.spent if meter else 0.0
        start = time.perf_counter()
        code, report, text = cli.run(list(job.argv))
        end = time.perf_counter()
        net = end - start - ((meter.spent - spent) if meter else 0.0)
        calls.append((i, start, end, net, checker.check(job, code, report, text)))
    return calls


def measure(cli, jobs, seconds, rng, checker) -> tuple:
    """Whole passes, each in a fresh seeded order, at least one.

    The pass count is fixed after the first pass, from its length at the
    reference speed: as many passes as fit in `seconds`.  A first pass runs
    each job cold in this process and later ones warm, so a count that
    followed the host's speed would change the mix from run to run.
    """
    meter = gauge.Gauge()
    passes = []
    meter.start()
    try:
        count = 1
        while len(passes) < count:
            order = list(range(len(jobs)))
            rng.shuffle(order)
            passes.append(run_pass(cli, jobs, order, checker, meter))
            if len(passes) == 1:
                first = sum(net * meter.scale(start, end) for _, start, end, net, _ in passes[0])
                count = max(1, int(seconds // first))
    finally:
        meter.stop()
    return meter, passes


def summarize(jobs, meter, passes, miss_ms) -> dict:
    """Scaled and raw times per pass, per job and per call."""
    out = {
        "pass": [], "pass_raw": [], "job": [[] for _ in jobs], "job_raw": [[] for _ in jobs],
        "latency_ms": [],
    }
    for calls in passes:
        total = total_raw = 0.0
        for i, start, end, net, ok in calls:
            scaled = net * meter.scale(start, end)
            total += scaled
            total_raw += net
            out["job"][i].append(scaled)
            out["job_raw"][i].append(net)
            out["latency_ms"].append(scaled * 1000.0 if ok else miss_ms)
        out["pass"].append(total)
        out["pass_raw"].append(total_raw)
    return out


def end_to_end(times, setup_s) -> dict:
    medians = [statistics.median(s) for s in times["job"]]
    latencies = times["latency_ms"]
    return {
        "wall_s": (statistics.median(times["pass"]), "s"),
        "job_s.geomean": (math.exp(statistics.fmean(math.log(m) for m in medians)), "s"),
        "query_ms.p50": (statistics.median(latencies), "ms"),
        "query_ms.p90": (percentile(latencies, 90), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def job_rows(jobs, times) -> list:
    rows = []
    for job, scaled, raw in zip(jobs, times["job"], times["job_raw"]):
        q1, med, q3 = quartiles(scaled)
        rows.append({"job": job.key, "n": len(scaled), "median_s": med, "q1_s": q1, "q3_s": q3,
                     "raw_median_s": statistics.median(raw)})
    return rows


def run_workload(args) -> int:
    os.environ.pop("SYZEX_BUDGET", None)
    os.chdir(ROOT)
    if args.workload not in jobs_mod.WORKLOADS:
        fail("unknown workload %r (have %s)" % (args.workload, ", ".join(jobs_mod.WORKLOADS)))
    cli = load_syzex()
    reference = json.loads((BENCH / "reference.json").read_text())
    jobs = jobs_mod.WORKLOADS[args.workload]
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_rev": git_rev(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
    }
    print("# syzex benchmark " + " ".join("%s=%s" % kv for kv in info.items()), flush=True)

    rng = random.Random(args.seed)
    checker = Checker(reference)
    if args.trace:
        metrics, extra = traced_run(cli, jobs, rng, checker, args), {}
    else:
        metrics, extra = timed_run(cli, jobs, rng, checker, args)
    fail_ratio = checker.failed / checker.attempted
    print("# fail_ratio=%.6f (%d of %d)" % (fail_ratio, checker.failed, checker.attempted))
    for key, reasons in sorted(checker.failures.items()):
        print("# failed: %s [%s]" % (key, ", ".join(reasons)))
    OUT.mkdir(exist_ok=True)
    name = "%s-seed%d%s.json" % (args.workload, args.seed, "-trace" if args.trace else "")
    (OUT / name).write_text(json.dumps(
        {**info, "fail_ratio": fail_ratio, "failures": checker.failures, **extra,
         "metrics": {k: v for k, (v, _) in metrics.items()}}, indent=1) + "\n")
    print(json.dumps({
        "correct": not checker.wrong,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def timed_run(cli, jobs, rng, checker, args) -> tuple:
    """End-to-end metrics, and per-job rows and unscaled times for the record."""
    setup_s, setup_raw = measure_setup(jobs)
    meter, passes = measure(cli, jobs, args.seconds, rng, checker)
    times = summarize(jobs, meter, passes, args.seconds * 1000.0)
    rows = job_rows(jobs, times)
    unscaled = {"wall_s": statistics.median(times["pass_raw"]), "setup_s": setup_raw,
                "gauge_kernel_s": statistics.fmean(meter.kernel_s)}
    q1, _, q3 = quartiles(times["pass"])
    print("# passes=%d wall_s q1=%.4f q3=%.4f calls=%d" % (len(passes), q1, q3, len(times["latency_ms"])))
    print("# unscaled: wall_s %(wall_s).4f setup_s %(setup_s).4f; gauge kernel %(gauge_kernel_s).6fs"
          % unscaled + " (reference %.6fs)" % gauge.REF_KERNEL_S)
    for row in rows:
        print("# job median=%.4fs q1=%.4fs q3=%.4fs n=%d unscaled=%.4fs  %s"
              % (row["median_s"], row["q1_s"], row["q3_s"], row["n"], row["raw_median_s"], row["job"]))
    return end_to_end(times, setup_s), {"jobs": rows, "unscaled": unscaled}


def traced_run(cli, jobs, rng, checker, args) -> dict:
    """One untraced pass, then the same pass order traced; per-layer metrics."""
    order = list(range(len(jobs)))
    rng.shuffle(order)
    plain = sum(call[3] for call in run_pass(cli, jobs, order, checker))
    tracer = Tracer()
    tracer.install()
    try:
        traced = 0.0
        for i in order:
            tracer.job = i
            traced += run_pass(cli, jobs, [i], checker)[0][3]
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.untraced_pass_s"] = (plain, "s")
    metrics["trace.traced_pass_s"] = (traced, "s")
    metrics["trace.overhead"] = (traced / plain - 1.0, "1")
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / (args.workload + ".spans"))  # one file per workload: they are large
    return metrics


def run_all(args) -> int:
    """Each workload in a fresh interpreter; one table of end-to-end metrics."""
    print("%-9s %-14s %14s  %s" % ("workload", "metric", "value", "unit"))
    worst = 0
    for name in jobs_mod.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0 or not proc.stdout.strip():
            print("%-9s failed (exit %d)\n%s" % (name, proc.returncode, proc.stderr), file=sys.stderr)
            worst = max(worst, proc.returncode or 1)
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        rows.append(("fail_ratio", result["failed"] / result["attempted"], "1"))
        for key, value, unit in rows:
            print("%-9s %-14s %14.6g  %s" % (name, key, value, unit))
        if not result["correct"]:
            print("%-9s WRONG ANSWERS" % name)
            worst = max(worst, 3)
    return worst


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="desk, oddprime, resolve, queries or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
