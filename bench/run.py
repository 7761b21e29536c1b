"""leibrack benchmark: seeded closed-loop workloads with verdict checking.

    python3 bench/run.py --workload verify-mix --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and benchmarks the package under
``src/``.  With ``--trace 0`` it measures set-up time in several fresh
interpreters, then runs the workload in one more and reports the end-to-end
metrics.  With ``--trace 1`` it runs the workload untraced and then traced,
and reports per-layer metrics from the spans.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  A detailed result (case digests, environment, trace table) is
written to ``.bench_out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("integrate-suites", "integrate-recover", "verify-mix")  # as in cases.py
SETUP_PROBES = 6                # fresh interpreters timed for setup_s, plus the run's own
WORKER_TIMEOUT_S = 170.0        # the whole run must end within 180 s
# One BLAS thread.  On small matrices a second OpenBLAS thread only
# spin-waits: on a 2-vCPU VM it doubled CPU time at the same median case
# time, and load on the other vCPU made single cases up to 4.6 times slower.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")
MIN_CASES_FOR_P90 = 100


def _stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Worker:
    """A worker process; ``setup_s`` is the time until it printed READY."""

    def __init__(self, args, spec_dir, deadline, trace=0, setup_only=False):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--src", SRC, "--spec-dir", spec_dir]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--spans-out", os.path.join(OUT, _stem(args) + ".spans.json.gz")]
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                                     env=WORKER_ENV, text=True)
        try:
            line = self._readline()
            if line.strip() != "READY":
                raise BenchError(f"worker did not get ready: {line!r}")
            self.setup_s = time.perf_counter() - t0
        except BaseException:
            self.stop()
            raise

    def _readline(self) -> str:
        remaining = self.deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0))
        if not ready:
            raise BenchError("worker timed out")
        return self.proc.stdout.readline()

    def finish(self):
        """Wait for the worker; return its JSON result, None after set-up only."""
        try:
            out, _ = self.proc.communicate(
                timeout=max(self.deadline - time.monotonic(), 0.1))
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError("worker timed out") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else None

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def case_stats(result: dict) -> dict:
    """End-to-end figures of one worker result, and its gate."""
    recs = result["records"]
    times = [r["seconds"] for r in recs]
    by_id = {}
    for r in recs:
        by_id.setdefault(r["id"], []).append(r["seconds"])
    # each case's time is its median over the rounds, which keeps a slow
    # stretch of the machine in one round from moving the figures
    case_s = {k: statistics.median(v) for k, v in by_id.items()}
    wrong = [r["id"] for r in recs if not r["ok"]]
    stats = {
        "cases": len(recs), "rounds": result["rounds"],
        "wall_s": result["wall_s"],
        "cases_per_s": len(case_s) / sum(case_s.values()),
        "case_p50_ms": 1e3 * statistics.median(case_s.values()),
        "case_ms": {k: 1e3 * v for k, v in case_s.items()},
        "case_ms_rounds": {k: [1e3 * x for x in v] for k, v in by_id.items()},
        "wrong": len(wrong) + (0 if result["warmup_ok"] else 1),
        "wrong_ids": sorted(set(wrong)),
        "wrong_verdict_frac": len(wrong) / len(recs),
        "peak_rss_mb": result["peak_rss_mb"],
        "round_s": statistics.median(result["round_s"]),
    }
    if len(recs) >= MIN_CASES_FOR_P90:
        stats["case_p90_ms"] = 1e3 * statistics.quantiles(times, n=10)[-1]
    integ = [r for r in recs if "roundtrip_err" in r]
    if integ:
        stats["roundtrip_err_max"] = max(r["roundtrip_err"] for r in integ)
        stats["law_samples_used_frac"] = (
            sum(r["samples_used"] for r in integ) /
            sum(r["samples_requested"] for r in integ))
    # the same case must give the same output in every round
    digests = {}
    for r in recs:
        digests.setdefault(r["id"], set()).add(r.get("sha256"))
    stats["nondeterministic"] = sorted(k for k, v in digests.items() if len(v) > 1)
    stats["digests"] = {k: sorted(v, key=str) for k, v in digests.items()}
    stats["violations_listed_per_round"] = (
        sum(r.get("violations_listed", 0) for r in recs) / result["rounds"])
    return stats


def per_layer(trace: dict, traced: dict, plain: dict) -> dict:
    """Per-layer metrics: per-round figures for the timed loop, set-up
    figures for the constructors in ``tracer.SETUP``, plus harness and
    tracing overhead."""
    import tracer as tr
    rounds = trace["rounds"]
    out = {}
    for module, attr in tr.TARGETS:
        name = f"{module}.{attr}"
        if name in tr.SETUP:
            row, div = trace["setup"].get(name), 1
        else:
            row, div = trace["timed"].get(name), rounds
        row = row or {"calls": 0, "self_s": 0.0, "errors": 0}
        out[f"{name}.calls"] = (row["calls"] / div, "count")
        out[f"{name}.self_s"] = (row["self_s"] / div, "s")
        if name in tr.RAISING:
            out[f"{name}.errors"] = (row["errors"] / div, "count")
    c = trace["counters"]
    out["integrate.samples_used_ratio"] = (
        c["samples_used"] / c["samples_requested"] if c["samples_requested"]
        else 0.0, "ratio")
    out["integrate.stencil_shrinks"] = (c["stencil_shrinks"] / rounds, "count")
    out["racks.failures"] = (c["rack_failures"] / rounds, "count")
    out["report.violations_listed"] = (traced["violations_listed_per_round"],
                                       "count")
    out["harness.self_s"] = (trace["harness_s"] / rounds, "s")
    out["trace.accounted_frac"] = (
        (trace["self_sum_s"] + trace["harness_s"]) / trace["wall_s"], "ratio")
    out["trace.overhead_frac"] = (traced["round_s"] / plain["round_s"] - 1.0,
                                  "ratio")
    out["trace.missing"] = (len(trace["missing"]), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(args) -> tuple:
    """Run the workers; return (final JSON object, detail record)."""
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    tmp = os.path.join(ROOT, ".bench_tmp", f"{os.getpid()}")
    count = 0

    def spec_dir():
        nonlocal count
        count += 1
        return os.path.join(tmp, f"w{count}")

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                w = Worker(args, spec_dir(), deadline, setup_only=True)
                w.finish()
                setups.append(w.setup_s)
        w = Worker(args, spec_dir(), deadline)
        setups.append(w.setup_s)
        plain = w.finish()
        traced = None
        if args.trace:
            w = Worker(args, spec_dir(), deadline, trace=1)
            traced = w.finish()
        if plain is None or (args.trace and traced is None):
            raise BenchError("worker printed no result")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    stats = case_stats(plain)
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": dict(plain["environment"], nproc=os.cpu_count(),
                                  cpu=cpu_model(), commit=git_commit(),
                                  seed=args.seed),
              "fingerprint": plain["fingerprint"],
              "digests": {r["id"]: r.get("sha256") for r in plain["records"]},
              "setup_s": setups, "untraced": stats}
    failed = stats["wrong"] + len(stats["nondeterministic"])
    attempted = stats["cases"] + 1                  # the warm-up case too
    if traced is not None:
        if traced["fingerprint"] != plain["fingerprint"]:
            raise BenchError("traced and untraced runs saw different inputs")
        tstats = case_stats(traced)
        # tracing must not change any output
        tstats["changed_by_trace"] = sorted(
            k for k, v in stats["digests"].items()
            if tstats["digests"].get(k) != v)
        failed += (tstats["wrong"] + len(tstats["nondeterministic"]) +
                   len(tstats["changed_by_trace"]))
        attempted += tstats["cases"] + 1
        detail["traced"] = tstats
        detail["layers"] = traced["trace"]
        metrics = per_layer(traced["trace"], tstats, stats)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "cases_per_s": {"value": stats["cases_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": stats["peak_rss_mb"], "unit": "MB"},
        }
    final = {"correct": failed == 0, "attempted": attempted,
             "failed": failed, "metrics": metrics}
    detail["result"] = final
    return final, detail


def summary_lines(detail: dict) -> list:
    s = detail["untraced"]
    lines = [f"workload {detail['workload']} seed {detail['seed']}: "
             f"{s['cases']} cases in {s['rounds']} round(s), "
             f"{s['wall_s']:.2f} s timed"]
    for key, unit in (("cases_per_s", "1/s"), ("case_p50_ms", "ms"),
                      ("case_p90_ms", "ms"), ("wrong_verdict_frac", ""),
                      ("peak_rss_mb", "MB"), ("roundtrip_err_max", ""),
                      ("law_samples_used_frac", "")):
        if key in s:
            lines.append(f"  {key:<24} {s[key]:.6g} {unit}".rstrip())
    lines.append(f"  {'setup_s (median)':<24} "
                 f"{statistics.median(detail['setup_s']):.6g} s")
    if s["wrong_ids"]:
        lines.append(f"  wrong verdicts: {', '.join(s['wrong_ids'])}")
    if s["nondeterministic"]:
        lines.append(f"  output changed between rounds: "
                     f"{', '.join(s['nondeterministic'])}")
    if "layers" in detail:
        t, ts = detail["layers"], detail["traced"]
        for key, what in (("wrong_ids", "wrong verdicts in the traced run"),
                          ("nondeterministic",
                           "traced output changed between rounds"),
                          ("changed_by_trace", "output changed by tracing")):
            if ts[key]:
                lines.append(f"  {what}: {', '.join(ts[key])}")
        lines.append(f"  traced run: {ts['cases_per_s']:.6g} cases/s, p50 "
                     f"{ts['case_p50_ms']:.6g} ms, {t['spans']} spans, "
                     f"missing wrappers: {t['missing'] or 'none'}")
        lines.append(f"  per round ({t['rounds']} rounds), by self time:")
        rows = sorted(t["timed"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in rows + [("harness", {"calls": 0,
                                              "self_s": t["harness_s"]})]:
            if row["calls"] or name == "harness":
                lines.append(f"    {name:<44} {row['calls'] / t['rounds']:>9g} "
                             f"calls {row['self_s'] / t['rounds']:10.4f} s self")
    lines.append("  environment: " + json.dumps(detail["environment"],
                                                sort_keys=True))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "leibrack", "__init__.py")):
        print(f"no leibrack sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        final, detail = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    with open(os.path.join(OUT, _stem(args) + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    for line in summary_lines(detail):
        print(line)
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
