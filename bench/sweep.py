"""Scaling sweep (not a gating workload): time per size for each traced
function.

    python3 bench/sweep.py

Runs, from the root of a source checkout, the workload case builders at
growing sizes under the tracer and prints one table per family: gl(n) on the
verify-mix checkers (n = 3..7), gl(n) through ``integrate`` (n = 2..5), S_n
on the discrete checkers (n = 3..5) and the law suites on sl(2) from 50 to
800 samples.  Each cell is the median self time, in milliseconds, over three
runs.
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPEATS = 3


def families(write):
    import cases as cg
    return [
        ("gl(n) verify-mix checkers", "n", cg.VERIFY_GL_SIZES,
         lambda n: [cg.verify_gl_case(write, n), cg.lie_crossed_module_case(n)]),
        ("gl(n) integrate", "n", cg.RECOVER_SIZES,
         lambda n: [cg.integrate_gl_case(write, n, seed=0)]),
        ("S_n discrete checkers", "n", cg.SYMMETRIC_SIZES,
         lambda n: cg.symmetric_cases(write, n)),
        ("sl(2) law suites", "samples", cg.SUITE_SAMPLES,
         lambda s: [cg.suite_case("sl2-adjoint", ("--builtin", "sl2-adjoint"),
                                  s, "central", seed=0)]),
    ]


def measure(tracer, runner) -> dict:
    """Median self time per function over REPEATS runs of runner's cases."""
    import tracer as tr
    per_repeat = []
    for _ in range(REPEATS):
        tracer.spans.clear()
        for k in range(len(runner.cases)):
            output, code = runner.run(k)
            if not runner.judge(k, output, code)["ok"]:
                raise SystemExit(f"wrong verdict on {runner.cases[k].id}")
        per_repeat.append(tr.aggregate(tracer.names, tracer.spans,
                                       lambda s: True))
    return {name: (per_repeat[0][name]["calls"],
                   statistics.median(r[name]["self_s"] for r in per_repeat))
            for name in per_repeat[0]}


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from tracer import Tracer
    from worker import Runner
    import cases as cg

    tracer = Tracer()
    missing = tracer.install()
    if missing:
        print(f"missing wrappers: {', '.join(missing)}")
    spec_dir = os.path.join(ROOT, ".bench_tmp", f"sweep-{os.getpid()}")
    write = cg.SpecWriter(spec_dir)
    try:
        for title, label, sizes, build in families(write):
            table = {}
            for size in sizes:
                runner = Runner(build(size), spec_dir)
                runner.run(0)                           # warm-up
                table[size] = measure(tracer, runner)
            print(f"\n{title}: self time per {label}, ms "
                  f"(median of {REPEATS})")
            print(f"  {'function':<44}" + "".join(f"{s:>10}" for s in sizes))
            names = sorted({n for col in table.values()
                            for n, (calls, _) in col.items() if calls})
            for name in names:
                print(f"  {name:<44}" + "".join(
                    f"{1e3 * table[s][name][1]:10.2f}" for s in sizes))
    finally:
        tracer.uninstall()
        shutil.rmtree(spec_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
