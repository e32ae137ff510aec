"""cyclolab benchmark: one run of one workload.

    python3 bench/run.py --workload kummer-oracle --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
load is one closed-loop client in one process: the next query is issued
only after the previous one returns.  Queries come in rounds drawn from
the seed (see ``workloads.py``); on ``cli-cache`` each round is issued
cold, then once more as a rerun that finds the cache the cold half wrote.
``--trace 0`` issues the rounds whose cost at the baseline commit adds up
to ``--seconds``, the same work for every seed and commit, and prints the
end-to-end metrics; ``--trace 1`` issues the workload's first rounds with
spans around every layer's public functions and prints the per-layer
metrics, with the tracing overhead against an untraced twin run.  Times
are scaled by the machine's speed, timed between queries (``speed.py``);
the unscaled figures are printed above the result.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
Workloads, metrics and the layer table are described in ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import speed  # bench/, the script's own directory

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
# numpy's OpenBLAS starts a thread pool when it is imported; racing that pool
# for the second CPU made the import time bimodal (0.13 s or 0.20 s on a
# 2-CPU VM).  One BLAS thread, set before numpy is imported here, in the
# set-up interpreters and in make_reference.py, keeps concurrency explicit.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
SETUP_REPEATS = 21
# A traced run issues the first rounds whose baseline cost fills this share
# of --seconds, and its untraced twin the same rounds: enough time for the
# two throughputs to be compared, and counts that repeat for one seed.
TRACE_SHARE = 0.25
# The layers' spans cover 0.992-0.997 of the traced loop at the baseline;
# below this share, work runs outside every traced function.
LAYER_SHARE_MIN = 0.97
# Run as ``python3 -c SETUP_SNIPPET <bench dir>``; prints the import time and
# the scale of the calibrations taken right after it.
SETUP_SNIPPET = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import cyclolab, cyclolab.cli; t = time.perf_counter() - t; "
    "import os; assert os.path.abspath(cyclolab.__file__).startswith(os.path.abspath('src')); "
    "sys.path.insert(0, sys.argv[1]); import speed; speed.calibrate(); "
    "print(repr(t), repr(speed.scale([speed.calibrate() for _ in range(5)])))"
)

END_TO_END = (
    ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"), ("rerun_p50_ms", "ms"),
    ("rerun_p90_ms", "ms"), ("queries_per_s", "1/s"), ("cpu_s", "s"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"),
)


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def time_setup() -> tuple[float, float]:
    """Median import time of cyclolab and cyclolab.cli in fresh interpreters,
    scaled by the machine's speed in each, and unscaled; one untimed import
    first, so byte-code compilation is not counted."""
    scaled, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, HERE], cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        if i:
            t, factor = (float(v) for v in out.stdout.split())
            scaled.append(t * factor)
            raw.append(t)
    return statistics.median(scaled), statistics.median(raw)


def quantile(values: list, q: int) -> float:
    """The q-th percentile by the Harrell-Davis estimator: a mean of all
    order statistics weighted by a beta distribution centred on rank q%.
    It moved half as much from run to run as the two order statistics
    around the rank, where the latencies of unlike queries sit close."""
    import mpmath
    xs = sorted(values)
    n = len(xs)
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def machine_facts(seed: int, threads: int) -> dict:
    import cyclolab
    import mpmath
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "mpmath": mpmath.__version__, "cyclolab": cyclolab.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": source_commit(), "seed": seed, "threads": threads,
    }


def source_commit() -> str:
    """The git commit in a clone; in an exported tree, a digest of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        if out.returncode == 0:
            return out.stdout.strip()
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    h.update(name.encode() + fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


class Run:
    """One closed-loop run: issues queries, keeps their results for the gate."""

    def __init__(self, W, workload, reference, seed, threads, tmp, tracer=None):
        self.W, self.workload, self.reference, self.seed = W, workload, reference, seed
        self.tracer = tracer
        self.tmp = tmp
        self.plan = W.schedule(reference, workload)
        self.ctx = W.Context(cache_dir="", threads=threads, cache_flags=[])
        self.issued = []  # (key, phase, latency_s, result, error)
        self.clock = []  # (start, latency_s, cpu_s) of each issued query
        self.speed = speed.Speedometer()

    def issue(self, key: str, phase: str):
        entry = self.reference[key]
        kind = self.W.KINDS[entry["kind"]]
        params = entry["params"]
        result = error = None

        def call():
            with self.W.deadline(kind.deadline_s):
                return kind.run(params, self.ctx)

        t0, cpu0 = time.perf_counter(), time.process_time()
        try:
            result = self.tracer.query(len(self.issued), call) if self.tracer else call()
        except self.W.DeadlineExceeded:
            error = f"deadline of {kind.deadline_s} s exceeded"
        except Exception as exc:  # a failing query is counted, the run goes on
            error = f"{type(exc).__name__}: {exc}"
        latency, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        self.issued.append((key, phase, latency, result, error))
        self.clock.append((t0, latency, cpu))
        self.speed.tick()

    def loop(self, rounds: int) -> float:
        """Issue ``rounds`` rounds, each cold and, where the workload has
        a rerun half, once more; returns the loop's wall time."""
        phases = ("cold", "rerun") if self.workload.rerun else ("cold",)
        t_start = time.perf_counter()
        self.speed.tick(force=True)
        for r in range(rounds):
            keys = self.W.round_keys(self.workload, self.plan, self.seed, r)
            self.ctx.cache_dir = os.path.join(self.tmp, f"round{r}")
            for phase in phases:
                for key in keys:
                    self.issue(key, phase)
        self.speed.tick(force=True)
        return time.perf_counter() - t_start

    def scaled(self) -> list[tuple[float, float]]:
        """(latency_s, cpu_s) of each issued query, scaled by the machine's
        speed around it."""
        out = []
        for t0, latency, cpu in self.clock:
            factor = self.speed.factor(t0, t0 + latency)
            out.append((latency * factor, cpu * factor))
        return out

    def gate(self) -> list:
        """Failures among the issued queries: exceptions, overruns, results
        whose digest differs from the reference, failed independent checks."""
        failures = []
        checked = {}
        for qid, (key, phase, _, result, error) in enumerate(self.issued):
            entry = self.reference[key]
            kind = self.W.KINDS[entry["kind"]]
            try:
                if error is None and self.W.digest(result) != entry["digest"]:
                    error = "result differs from the reference digest"
                if error is None and kind.check is not None:
                    if key not in checked:
                        checked[key] = kind.check(entry["params"], result)
                    error = checked[key]
            except Exception as exc:  # a result of an unexpected shape fails its query
                error = f"cannot check the result: {type(exc).__name__}: {exc}"
            if error is not None:
                failures.append((qid, key, phase, error))
        return failures


def known_defects(W) -> list:
    """Run each known-defect query under its deadline; (label, outcome, ok)."""
    out = []
    for label, params, want in W.KNOWN_DEFECTS:
        try:
            with W.deadline(W.KNOWN_DEFECT_DEADLINE_S):
                got = W.kummer.rank1_failure(*params)
            outcome = f"returned {got}"
            ok = got == want
        except W.DeadlineExceeded:
            outcome, ok = f"no answer within {W.KNOWN_DEFECT_DEADLINE_S} s", False
        except Exception as exc:
            outcome, ok = f"raised {type(exc).__name__}: {exc}", False
        out.append((label, f"want {want}, {outcome}", ok))
    return out


def untraced_twin(args) -> float:
    """queries_per_s of the same fixed rounds without tracing, in a fresh
    interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
         "--rounds", str(args.rounds)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"untraced twin run failed: {out.stderr.strip()[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]["queries_per_s"]["value"]


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one after the other."""
    code = 0
    for name in ("kummer-oracle", "exact-arith", "cli-cache"):
        print(f"== {name}", flush=True)
        child = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)]
        code = max(code, subprocess.run([sys.executable, os.path.abspath(__file__)] + child,
                                        cwd=ROOT).returncode)
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one cyclolab benchmark workload.")
    ap.add_argument("--workload", required=True,
                    help="kummer-oracle, exact-arith, cli-cache, or all three in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=None,
                    help="issue this many rounds instead of those whose baseline cost "
                         "fills --seconds (the untraced twin of a traced run)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cyclolab", "__init__.py")):
        return fail("no src/cyclolab here; run from the repository root")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import cyclolab
    if not os.path.abspath(cyclolab.__file__).startswith(SRC + os.sep):
        return fail(f"cyclolab imported from {cyclolab.__file__}, not from {SRC}")
    import workloads as W
    if args.workload not in W.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}")
    workload = W.WORKLOADS[args.workload]
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)

    nproc = len(os.sched_getaffinity(0))
    threads = min(2, nproc)
    traced = args.trace == 1
    internal = args.rounds is not None
    if traced:
        args.rounds = W.planned_rounds(workload, W.schedule(reference, workload), reference,
                                       args.seconds * TRACE_SHARE)
        twin_qps = untraced_twin(args)
    setup_s, setup_raw_s = (None, None) if traced or internal else time_setup()

    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    tracer = None
    try:
        if traced:
            import tracer as T
            tracer = T.Tracer()
            tracer.install()
        run = Run(W, workload, reference, args.seed, threads, tmp, tracer)
        rounds = args.rounds or W.planned_rounds(workload, run.plan, reference, args.seconds)
        loop_s = run.loop(rounds)
        if tracer:
            tracer.uninstall()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = run.gate()
    consistent = True
    defects = known_defects(W) if workload.name == "kummer-oracle" and not internal else []
    attempted = len(run.issued)
    completed = sum(1 for *_, error in run.issued if error is None)
    scaled = run.scaled()
    phases = [phase for _, phase, *_ in run.issued]
    cold = [lat * 1000 for (lat, _), phase in zip(scaled, phases) if phase == "cold"]
    rerun = [lat * 1000 for (lat, _), phase in zip(scaled, phases) if phase == "rerun"]
    raw_cold = [lat * 1000 for (_, lat, _), phase in zip(run.clock, phases) if phase == "cold"]
    queries_per_s = completed / sum(lat for lat, _ in scaled)

    if not internal:
        print("machine " + json.dumps(machine_facts(args.seed, threads), sort_keys=True))
        print(f"workload {workload.name}: {rounds} rounds, {attempted} queries in "
              f"{loop_s:.2f} s ({len(cold)} cold, {len(rerun)} rerun), one closed-loop client")
        samples = run.speed.samples
        print(f"machine speed: {len(samples)} calibrations, median "
              f"{statistics.median(samples) * 1000:.3f} ms against {speed.REF_MS} ms, "
              f"{run.speed.spent:.2f} s of the loop; times below are scaled by it")
        print(f"unscaled: latency_p50_ms = {quantile(raw_cold, 50):.6g}, latency_p90_ms = "
              f"{quantile(raw_cold, 90):.6g}, queries_per_s = "
              f"{completed / sum(lat for _, lat, _ in run.clock):.6g}, cpu_s = "
              f"{sum(cpu for *_, cpu in run.clock):.6g}"
              + (f", setup_s = {setup_raw_s:.6g}" if setup_raw_s is not None else ""))
    for qid, key, phase, error in failures[:20]:
        print(f"FAILED query {qid} ({phase}) {key}: {error}")
    print(f"failed_ratio = {len(failures)}/{attempted} = {len(failures) / attempted:.4f}")
    for label, outcome, ok in defects:
        print(f"known defect {'ok' if ok else 'FAILED'}: {label}: {outcome}")

    if traced:
        import tracer as T
        metrics = tracer.layer_metrics(loop_s - run.speed.spent, {q for q, (_, phase, *_) in
                                                enumerate(run.issued) if phase == "rerun"},
                                       run.ctx.cache_flags)
        metrics["trace.overhead_ratio"] = twin_qps / queries_per_s - 1.0
        metrics["kummer.known_defects.failed"] = sum(1 for *_, ok in defects if not ok)
        print(f"trace: {len(tracer.spans)} spans; layers hold "
              f"{metrics['trace.layer_share']:.1%} of the traced loop; overhead "
              f"{metrics['trace.overhead_ratio']:+.1%} against the untraced run of the "
              f"same rounds")
        if metrics["trace.layer_share"] < LAYER_SHARE_MIN:
            print(f"FAILED trace accounting: the layers' spans cover less than "
                  f"{LAYER_SHARE_MIN:.0%} of the traced loop")
            consistent = False
        units = {name: unit for name, unit, _ in T.PER_LAYER}
        out = {name: {"value": metrics[name], "unit": units[name]} for name, *_ in T.PER_LAYER}
    else:
        # Only cli-cache has a rerun half.  The library workloads report
        # their rerun figures over the cold queries: every workload reports
        # every metric, and no query is timed a second time with the
        # package's caches warm.
        if not workload.rerun:
            rerun = cold
        values = {
            "latency_p50_ms": quantile(cold, 50), "latency_p90_ms": quantile(cold, 90),
            "rerun_p50_ms": quantile(rerun, 50), "rerun_p90_ms": quantile(rerun, 90),
            "queries_per_s": queries_per_s, "cpu_s": sum(cpu for _, cpu in scaled),
            "peak_rss_mb": peak_rss_mb, "setup_s": setup_s,
        }
        samples = {"latency_p50_ms": len(cold), "latency_p90_ms": len(cold),
                   "rerun_p50_ms": len(rerun), "rerun_p90_ms": len(rerun),
                   "queries_per_s": completed}
        out = {}
        for name, unit in END_TO_END:
            if values[name] is None:
                continue
            out[name] = {"value": values[name], "unit": unit}
            n = f" (n={samples[name]})" if name in samples else ""
            if name.startswith("rerun_") and not workload.rerun:
                n += ", over the cold queries: no rerun half"
            print(f"{name} = {values[name]:.6g} {unit}{n}")
    print(json.dumps({"correct": not failures and consistent, "attempted": attempted,
                      "failed": len(failures), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
