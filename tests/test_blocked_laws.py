"""The four-index laws run in blocks of first-index rows; their reports must
not depend on where the blocks fall.

Each report of ``check_lie_algebra``, ``check_leibniz``, ``check_module``
and ``check_rep`` is compared whole with one built from the loop oracles of
``test_algebra``: the listed violations (law, index tuple, residual), the
failure count and the maximum residual.  Entries are small integers, so every
residual is exact and the comparison is equality.  Each case runs with one
row per block and with the default block size.  The inputs are seeded, and
several have more than MAX_LISTED_VIOLATIONS failures with the listing cap
falling inside a block that is not the first.  On gl(6) the checks must
keep their traced memory well under one whole four-index table.
"""

from __future__ import annotations

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from leibrack import (LeibnizAlgebraData, MatrixRep, ModuleAction,
                      check_leibniz, check_lie_algebra, check_module,
                      check_rep, lie_algebra)
from leibrack import algebra
from leibrack.report import MAX_LISTED_VIOLATIONS, Collector, Violation
from leibrack.triples import (LieLeibnizTriple, max_strictness_subalgebra,
                              triple_reports)
from test_algebra import (jacobi_table_by_loops, leibniz_table_by_loops,
                          module_table_by_loops)
from test_stacked_recovery import gl_parts

TOL = 1e-9
SEEDS = range(12)


def integer_tensor(rng, shape, density):
    """Entries in {-1, 0, 1}, each non-zero with probability ``density``."""
    return (rng.integers(-1, 2, shape) * (rng.random(shape) < density)).astype(float)


def oracle(*laws, extra=()) -> list:
    """Every failure of the ``(law, table)`` residual tables, scanned in
    order and row-major within each, then the ``extra`` violations."""
    hits = [Violation(law, tuple(map(int, idx)), float(abs(table[idx])))
            for law, table in laws for idx in zip(*np.nonzero(np.abs(table) > TOL))]
    return hits + list(extra)


@lru_cache(maxsize=None)
def case(checker: str, seed: int):
    """The checker's argument and the oracle's failures, for one seed."""
    rng = np.random.default_rng(seed)
    density = (0.6, 0.3, 0.15)[seed % 3]
    if checker in ("lie", "leibniz"):
        d = 2 + seed % 4
        X = integer_tensor(rng, (d, d, d), density)
        if checker == "leibniz":
            return LeibnizAlgebraData(d, X), oracle(
                ("leibniz-identity", leibniz_table_by_loops(X)))
        C = X - X.swapaxes(0, 1) if seed % 2 else X   # odd seeds: only Jacobi fails
        return lie_algebra(C), oracle(("antisymmetry", C + C.swapaxes(0, 1)),
                                      ("jacobi", jacobi_table_by_loops(C)))
    n, m = 2 + seed % 3, 1 + seed % 4
    C = integer_tensor(rng, (n, n, n), density)
    A = integer_tensor(rng, (n, m, m), density)
    table = module_table_by_loops(C, A)
    if checker == "module":
        return ModuleAction(lie_algebra(C), m, A), oracle(
            ("module-homomorphism", table))
    faithful = np.linalg.matrix_rank(A.reshape(n, -1)) == n
    return MatrixRep(lie_algebra(C), A), oracle(
        ("representation-homomorphism", table),
        extra=() if faithful else [Violation("faithful", (), 1.0)])


CHECKERS = {"lie": check_lie_algebra, "leibniz": check_leibniz,
            "module": check_module, "rep": check_rep}


@pytest.fixture(params=["one-row", "default"])
def blocks(request, monkeypatch):
    if request.param == "one-row":
        monkeypatch.setattr(algebra, "_BLOCK", 1)


@pytest.fixture
def failure_counts(monkeypatch):
    """The failure count of every report built, in order."""
    counts, report = [], Collector.report

    def counting(self, info=None):
        counts.append(self.failures)
        return report(self, info)

    monkeypatch.setattr(Collector, "report", counting)
    return counts


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("checker", sorted(CHECKERS))
def test_blocked_report_matches_the_loop_oracle(checker, seed, blocks,
                                                failure_counts):
    arg, hits = case(checker, seed)
    report = CHECKERS[checker](arg, TOL)
    worst = max((v.residual for v in hits), default=0.0)
    assert report.violations == tuple(hits[:MAX_LISTED_VIOLATIONS])
    assert failure_counts == [len(hits)]
    assert report.max_residual == worst
    assert report.passed == (worst <= TOL)


@pytest.mark.parametrize("checker", sorted(CHECKERS))
def test_the_cases_put_the_listing_cap_inside_a_later_block(checker):
    """With one row per block, some case lists violations from several rows
    and stops in the middle of a row that is not the first."""
    def cap_inside_a_later_row(hits):
        rows = [v.where[0] for v in hits if v.where]
        cap = MAX_LISTED_VIOLATIONS
        return len(rows) > cap and rows[cap - 1] == rows[cap] > rows[0]

    assert any(cap_inside_a_later_row(case(checker, seed)[1]) for seed in SEEDS)


def traced_peak(f, *args) -> int:
    """Peak bytes that ``f(*args)`` allocates through Python's allocators."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gl6_axiom_checks_hold_no_whole_four_index_table():
    # d = 36: one d^4 table of float64 alone is 12.8 MiB
    # each check gets a fresh triple, so its defect stack and SVD are made
    # under the trace
    triple, _ = gl_parts(6)
    parts = triple.algebra, triple.action, triple.theta
    assert traced_peak(triple_reports, LieLeibnizTriple(*parts)) < 16 * 2 ** 20
    assert traced_peak(max_strictness_subalgebra,
                       LieLeibnizTriple(*parts)) < 4 * 2 ** 20
