"""One benchmark process: set up a workload, then run its cases in a closed
loop (one client, the next case starts when the previous verdict returns).

Started by run.py in a fresh interpreter.  It prints ``READY`` once the first
timed case can run; with ``--setup-only`` it exits there.  Otherwise it runs
whole rounds until ``--seconds`` have passed and prints one JSON line with a
record per case, the peak resident set, the environment and, with
``--trace 1``, the span aggregates.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# a round that starts this late is not started, so a run stays well inside
# the time limit even when the machine is slow
HARD_STOP_S = 120.0


def _import_program(src: str):
    sys.path.insert(0, src)
    import leibrack
    where = os.path.dirname(os.path.abspath(leibrack.__file__))
    if os.path.commonpath([where, src]) != src:
        raise SystemExit(f"leibrack was imported from {where}, not from {src}")
    return leibrack


def blas_record() -> dict:
    """BLAS build of numpy and the thread count of every loaded OpenBLAS."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        rec = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, AttributeError):
        rec = {"name": "unknown"}
    threads = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(path)] = int(fn())
                break
    rec["threads"] = threads
    return rec


def environment(leibrack) -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "leibrack": leibrack.__version__,
            "blas": blas_record()}


class Runner:
    """Runs cases and judges each against its expected verdict."""

    def __init__(self, cases, spec_dir):
        import leibrack.cli
        self.cli = leibrack.cli
        self.cases = cases
        self.argv = [c.resolved_argv(spec_dir) for c in cases]

    def run(self, k: int) -> tuple:
        """Execute case k: (CLI output text, exit code) for a CLI case,
        (report, None) for a direct call."""
        case = self.cases[k]
        if case.call is not None:
            module, func, args = case.call
            report = getattr(sys.modules[f"leibrack.{module}"], func)(*args)
            return report, None
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(self.argv[k])
        return out.getvalue(), code

    def judge(self, k: int, output, code) -> dict:
        """Verdict check, SHA-256 digest of the output and accuracy figures."""
        case = self.cases[k]
        rec = {"id": case.id}
        if case.call is not None:
            payload = output.to_dict()
            text = json.dumps(payload, sort_keys=True)
            rec["ok"] = bool(output.passed) == case.expect_passed
        else:
            text = output
            try:
                payload = json.loads(output)
            except json.JSONDecodeError:
                payload = None
            rec["ok"] = (code == case.expect_exit and payload is not None
                         and payload.get("passed") is case.expect_passed)
        rec["sha256"] = hashlib.sha256(text.encode()).hexdigest()
        rec["violations_listed"] = _count_violations(payload)
        if payload is not None and "roundtrip" in payload:
            rec["roundtrip_err"] = max(payload["roundtrip"]["max_residual"],
                                       payload["defect"]["max_gap"])
            rec["samples_used"] = sum(law["info"]["samples_used"]
                                      for law in payload["laws"].values())
            rec["samples_requested"] = case.samples * len(payload["laws"])
        return rec


def _count_violations(payload) -> int:
    if isinstance(payload, dict):
        own = len(payload["violations"]) if isinstance(
            payload.get("violations"), list) else 0
        return own + sum(_count_violations(v) for k, v in payload.items()
                         if k != "violations")
    if isinstance(payload, list):
        return sum(_count_violations(v) for v in payload)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True)
    ap.add_argument("--spec-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", help="gzip JSON file for the raw spans")
    args = ap.parse_args(argv)

    leibrack = _import_program(args.src)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import cases as casegen

    cases = casegen.generate(args.workload, args.seed, args.spec_dir)
    runner = Runner(cases, args.spec_dir)
    output, code = runner.run(0)                        # untimed warm-up
    warm = runner.judge(0, output, code)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    clock = time.perf_counter
    records, round_walls = [], []
    harness_s = 0.0
    if tracer is not None:
        tracer.counters = dict.fromkeys(tracer.counters, 0)
    start = clock()
    rnd = 0
    while True:
        r0 = clock()
        for k in range(len(cases)):
            if tracer is not None:
                tracer.case = k
            t0 = clock()
            try:
                output, code = runner.run(k)
                failure = None
            except Exception as exc:            # a traceback is a wrong verdict
                failure = f"{type(exc).__name__}: {exc}"
            t1 = clock()
            if failure is None:
                rec = runner.judge(k, output, code)
            else:
                rec = {"id": cases[k].id, "ok": False, "error": failure}
            rec.update(round=rnd, seconds=t1 - t0)
            records.append(rec)
            harness_s += clock() - t1
        round_walls.append(clock() - r0)
        rnd += 1
        elapsed = clock() - start
        if elapsed >= args.seconds or elapsed >= HARD_STOP_S:
            break
    wall = clock() - start

    result = {
        "records": records, "rounds": rnd, "wall_s": wall,
        "round_s": round_walls, "warmup_ok": warm["ok"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(leibrack),
        "fingerprint": casegen.fingerprint(cases, args.spec_dir),
    }
    if tracer is not None:
        result["trace"] = _trace_summary(tracer, harness_s, wall, rnd)
        if args.spans_out:
            with gzip.open(args.spans_out, "wt", encoding="utf-8") as fh:
                json.dump({"names": tracer.names,
                           "fields": ["name", "start", "end", "parent", "case",
                                      "raised"],
                           "spans": tracer.spans}, fh)
    print(json.dumps(result), flush=True)
    return 0


def _trace_summary(tracer, harness_s, wall, rounds):
    """Span aggregates of the timed rounds and of set-up, with the counters."""
    import tracer as tr
    tracer.uninstall()
    timed = tr.aggregate(tracer.names, tracer.spans,
                         lambda s: s[tr.CASE] != "setup")
    setup = tr.aggregate(tracer.names, tracer.spans,
                         lambda s: s[tr.CASE] == "setup")
    return {"timed": timed, "setup": setup, "missing": tracer.missing,
            "counters": tracer.counters, "harness_s": harness_s,
            "self_sum_s": sum(row["self_s"] for row in timed.values()),
            "wall_s": wall, "rounds": rounds, "spans": len(tracer.spans)}


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
