"""Verdict benchmark for monoidorder.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client in one process, no threads: each verdict starts
after the previous one returned.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones; the last stdout line is one JSON
object.  A run makes a fixed number of passes over the workload, about
``--seconds`` long at the nominal speed, so one seed always gives the same
verdicts.  ``--workload all`` runs every workload in its own fresh process.
``--repeat-check`` runs the traced mode twice and compares every count.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 9
# Median time of reference_loop on an idle 2-vCPU Intel Xeon virtual machine
# at 2.1 GHz with Python 3.11.7.  Reported times are scaled to this speed.
REFERENCE_NOMINAL_S = 1.3e-3
REFERENCE_EVERY_S = 0.1
REFERENCE_WINDOW_S = 0.3

END_TO_END = [("setup_s", "s"), ("verdicts_per_s", "1/s"), ("verdict_p50_ms", "ms"),
              ("verdict_tail_ms", "ms"), ("peak_rss_mib", "MiB")]


class QueryTimeout(BaseException):
    """Raised by SIGALRM when a verdict exceeds its workload's limit.

    A BaseException, so the library's own ``except Exception`` handlers
    cannot swallow it.
    """


def _alarm(signum, frame):
    raise QueryTimeout()


def _check_checkout():
    if not os.path.isfile(os.path.join(SRC, "monoidorder", "__init__.py")):
        sys.exit(f"perfbench: no monoidorder sources under {SRC}; "
                 "run from a full checkout")
    if not os.path.isdir(os.path.join(ROOT, "instances")):
        sys.exit(f"perfbench: no instances/ directory under {ROOT}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


# ---------------------------------------------------------------------------
# machine speed


def reference_loop():
    """A fixed pure-Python loop, independent of monoidorder."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    return total


class Reference:
    """The machine's speed, from ``reference_loop`` timed between verdicts.

    The host's speed drifts by tens of percent within seconds.  Each
    verdict's time is multiplied by ``scale(start, end)``: the nominal loop
    time over the median loop time sampled within ``REFERENCE_WINDOW_S`` of
    the verdict.  So the same work reports about the same time on a slow
    second and on a fast one.  A sample is the median of three loops, taken
    at most every ``REFERENCE_EVERY_S`` and outside every verdict's timer.
    """

    def __init__(self):
        self.at, self.took = array("d"), array("d")

    def sample(self, force=False):
        if not force and self.at and time.perf_counter() - self.at[-1] < REFERENCE_EVERY_S:
            return
        loops = []
        for _ in range(3):
            start = time.perf_counter()
            reference_loop()
            loops.append(time.perf_counter() - start)
        self.took.append(statistics.median(loops))
        self.at.append(time.perf_counter())

    def scale(self, start=float("-inf"), end=float("inf")):
        lo = bisect.bisect_left(self.at, start - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + REFERENCE_WINDOW_S)
        lo, hi = min(lo, len(self.at) - 1), max(hi, lo + 1)
        return REFERENCE_NOMINAL_S / statistics.median(self.took[lo:hi])


# ---------------------------------------------------------------------------
# one verdict


class Outcome:
    __slots__ = ("latency", "status", "detail", "start")

    def __init__(self, latency, status, detail=""):
        self.latency, self.status, self.detail = latency, status, detail
        self.start = 0.0


def run_verdict(wl, spec, item, call, self_check):
    """Run, time and check one verdict.

    Status is one of ok, wrong (answered but disagrees with the reference),
    timeout, raised, or failed (the CLI exited 4 or printed a traceback).
    With ``self_check`` a correct answer is also flipped, and the checker
    must reject the flipped copy.
    """
    signal.setitimer(signal.ITIMER_REAL, wl.limit_s)
    start = time.perf_counter()
    try:
        try:
            output = call(item)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except QueryTimeout:
        return Outcome(wl.limit_s, "timeout"), None
    except Exception as exc:  # a raised query is a failed query, not a crash
        return Outcome(time.perf_counter() - start, "raised", f"{type(exc).__name__}: {exc}"), None
    latency = time.perf_counter() - start
    if wl.failed_without_verdict(output):
        return Outcome(latency, "failed", str(output.get("code"))), None
    error = wl.check(spec, output)
    if error is not None:
        return Outcome(latency, "wrong", error), None
    flip_ok = None
    if self_check:
        flip_ok = wl.check(spec, wl.flip(spec, output)) is not None
    return Outcome(latency, "ok"), flip_ok


def prepare(wl, seed, index):
    """The specs of one pass and fresh program inputs built from them.

    Garbage left by earlier passes is collected here, outside any timer,
    so that no verdict pays for collecting its predecessors' objects.
    """
    gc.collect()
    specs = wl.make_pass(seed, index)
    return specs, wl.build(specs)


def run_pass(wl, specs, items, call, self_check=False, reference=None):
    results, self_check_misses = [], 0
    for spec, item in zip(specs, items):
        if reference is not None:
            reference.sample()
        start = time.perf_counter()
        outcome, flip_ok = run_verdict(wl, spec, item, call, self_check)
        outcome.start = start
        results.append(outcome)
        if outcome.status != "ok":
            print(f"[{wl.name}] {outcome.status}: {spec_text(spec)} {outcome.detail}",
                  file=sys.stderr)
        if flip_ok is False:
            self_check_misses += 1
            print(f"[{wl.name}] checker accepted a flipped verdict: {spec_text(spec)}",
                  file=sys.stderr)
    return results, self_check_misses


def spec_text(spec):
    text = json.dumps(spec, default=str)
    return text if len(text) < 300 else text[:297] + "..."


# ---------------------------------------------------------------------------
# metrics


def tail_rank(pct, n):
    """Nearest rank of percentile ``pct`` among ``n`` samples."""
    return max(1, -(-pct * n // 100))


def tail_percentile(n):
    """The highest integer percentile up to 99 that leaves at least 10 of
    ``n`` samples beyond it (50 if none does)."""
    return max([p for p in range(50, 100) if n - tail_rank(p, n) >= 10], default=50)


def pass_count(wl, seconds):
    """Passes in a run: a fixed number for the requested length, so that
    one seed always gives the same verdicts, attempts and failures."""
    return max(wl.min_passes, round(seconds / wl.pass_s))


def measure_setup(workload, seed, reference):
    """Median wall time of fresh interpreters that import the package and
    generate and parse the workload's first pass."""
    times = []
    for _ in range(SETUP_PROBES):
        reference.sample(force=True)
        start = time.perf_counter()
        subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
                        "--workload", workload, "--seed", str(seed)], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_api(wl):
    for module in wl.api:
        importlib.import_module(module)


def setup_probe(wl, seed):
    import_api(wl)
    specs, items = prepare(wl, seed, 0)
    for _ in items:
        pass


def untraced(wl, seed, seconds):
    """End-to-end metrics over a fixed number of passes (``pass_count``)."""
    setup_ref, reference = Reference(), Reference()
    setup_s = measure_setup(wl.name, seed, setup_ref)
    passes = pass_count(wl, seconds)
    outcomes, misses = [], 0
    for index in range(passes):
        got, missed = run_pass(wl, *prepare(wl, seed, index), wl.run,
                               self_check=index == 0, reference=reference)
        reference.sample(force=True)
        outcomes.append(got)
        misses += missed
    statuses = Counter(r.status for got in outcomes for r in got)
    attempted = sum(statuses.values())
    failed = attempted - statuses["ok"]
    pct = tail_percentile(attempted)
    rank = tail_rank(pct, attempted)

    def summary(time_of):
        """Setup, per-pass rate, median and tail from one way of timing."""
        times = [[time_of(r) for r in got] for got in outcomes]
        flat = sorted(t for ts in times for t in ts)
        rates = [sum(r.status in ("ok", "wrong") for r in got) / sum(ts)
                 for got, ts in zip(outcomes, times)]
        return {"verdicts_per_s": statistics.median(rates),
                "verdict_p50_ms": 1000 * statistics.median(flat),
                "verdict_tail_ms": 1000 * flat[rank - 1]}

    raw = dict(setup_s=setup_s, **summary(lambda r: r.latency))
    metrics = dict(setup_s=setup_s * setup_ref.scale(), **summary(
        lambda r: r.latency * reference.scale(r.start, r.start + r.latency)))
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = [r.latency for got in outcomes for r in got]
    info = {f"raw_{name}": (value, dict(END_TO_END)[name]) for name, value in raw.items()}
    info.update({
        "reference_scale": (reference.scale(), "1"),
        "reference_samples": (len(reference.at), "count"),
        "failed_ratio": (failed / attempted, "1"),
        "wrong_verdicts": (statuses["wrong"], "count"),
        "bench.timeouts": (statuses["timeout"], "count"),
        "raised": (statuses["raised"], "count"),
        "tail_percentile": (pct, "%"),
        "samples": (attempted, "count"),
        "samples_beyond_tail": (attempted - rank, "count"),
        "passes": (passes, "count"),
        "self_check_misses": (misses, "count"),
        "verdict_mean_ms": (1000 * statistics.fmean(latencies), "ms"),
        "measured_s": (sum(latencies), "s"),
    })
    correct = statuses["wrong"] == 0 and misses == 0
    report = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    return correct, attempted, failed, report, info


def traced(wl, seed):
    """Per-layer numbers from pass 0, once untraced and once traced."""
    from tracer import Tracer, per_layer
    specs, items = prepare(wl, seed, 0)
    base, _ = run_pass(wl, specs, list(items), wl.run)
    specs, items = prepare(wl, seed, 0)
    items = list(items)  # built before the wrappers go in, as for the base pass
    tracer = Tracer(extra_namespaces=[sys.modules[type(wl).__module__]])
    tracer.install()
    try:
        got, _ = run_pass(wl, specs, items, tracer.root(wl.run))
    finally:
        tracer.uninstall()
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{wl.name}-seed{seed}.jsonl.gz"))
    overhead = sum(r.latency for r in got) / sum(r.latency for r in base) - 1
    report = per_layer(tracer, got, overhead)
    statuses = [r.status for r in got]
    failed = sum(s != "ok" for s in statuses)
    return statuses.count("wrong") == 0, len(got), failed, report


# ---------------------------------------------------------------------------
# entry points


def run_all(args):
    """Each workload in its own fresh process; exit 1 if any is incorrect."""
    from workloads import WORKLOADS
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        print(f"== {name}")
        print(proc.stdout, end="")
        last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
        if proc.returncode != 0 or not json.loads(last[0]).get("correct"):
            status = 1
    return status


def repeat_check(args):
    """Two traced runs with one seed must give identical counts and ratios."""
    runs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                               "--workload", args.workload, "--seed", str(args.seed),
                               "--trace", "1"], stdout=subprocess.PIPE, text=True, check=True)
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        runs.append({k: v["value"] for k, v in metrics.items()
                     if v["unit"] != "s" and k != "trace.overhead_ratio"})
    diff = sorted(k for k in runs[0] if runs[0][k] != runs[1].get(k))
    print(f"{args.workload}: {len(runs[0])} traced counts and ratios compared, "
          f"{len(diff)} differ" + (f": {', '.join(diff)}" if diff else ""))
    return 1 if diff else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--repeat-check", action="store_true")
    args = parser.parse_args(argv)
    _check_checkout()
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    if args.repeat_check:
        return repeat_check(args)
    wl = WORKLOADS[args.workload]()
    if args.setup_probe:
        setup_probe(wl, args.seed)
        return 0
    signal.signal(signal.SIGALRM, _alarm)
    import_api(wl)  # imports are set-up (setup_s), not part of the first verdict
    if args.trace:
        correct, attempted, failed, report = traced(wl, args.seed)
    else:
        correct, attempted, failed, report, info = untraced(wl, args.seed, args.seconds)
        for name, (value, unit) in info.items():
            print(f"{name} = {value} {unit}")
    for name, entry in report.items():
        print(f"{name} = {entry['value']} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
