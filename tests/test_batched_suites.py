"""The batched law suites against the per-sample oracle in suite_oracle.py,
and the stacked kernels against single calls.

The suites must give the same verdicts, info, used and skipped counts and
listed violations (law and sample) as one trial per sample; residuals may
differ by at most 1e-14 * max(1, |r|).  The stacked kernels must give bit
for bit the results of calls on their slices.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

import suite_oracle as oracle
from leibrack import (ChartError, EmbeddingTensor, MatrixRep, ModuleAction,
                      StructuralError, SubspaceBasis, build_model,
                      build_triple, catalog, check_equivariance,
                      check_local_group_set_laws, check_local_rack_laws,
                      ideal_triple, lie_algebra, log_matrix, working_rep)
from leibrack import integrate
from leibrack.cli import builtin_parts
from leibrack.integrate import LocalRackModel
from leibrack.localgroup import expm

SUITES = [(check_local_group_set_laws, oracle.check_local_group_set_laws),
          (check_local_rack_laws, oracle.check_local_rack_laws),
          (check_equivariance, oracle.check_equivariance)]


def builtin_model(name, **kw):
    _, parts = builtin_parts(name)
    triple = build_triple(parts["algebra"], parts["action"], parts["theta"])
    return build_model(triple, rep=parts["rep"], **kw)


def ideal_model(name, ideal):
    alg = catalog.algebra_by_name(name)
    triple = ideal_triple(alg, catalog.ideal_subspace(name, ideal))
    return build_model(triple,
                       rep=MatrixRep(alg, catalog.faithful_rep_matrices(name)))


def scaled_sl2_model(factor):
    """sl2 with its brackets scaled: group elements move points far enough
    that every suite skips samples."""
    alg = lie_algebra(factor * catalog.sl2().structure_constants)
    return build_model(build_triple(alg, alg.adjoint_action(),
                                    EmbeddingTensor(np.eye(3))))


def zero_subalgebra_model():
    alg = catalog.nonabelian2()
    triple = build_triple(alg, ModuleAction(alg, 1, [[[2.0]], [[0.0]]]),
                          EmbeddingTensor([[0.0], [0.0]]))
    rep = MatrixRep(alg, catalog.faithful_rep_matrices("nonabelian2"))
    return build_model(triple, rep=rep,
                       h_basis=SubspaceBasis(2, np.zeros((0, 2))))


def broken_model():
    """sl2-adjoint with its module block taken from a conjugate of the
    adjoint action: still a group action, but theta no longer intertwines,
    so the rack and equivariance laws fail."""
    good = builtin_model("sl2-adjoint")
    P = np.diag([1.0, 2.0, 3.0])
    other = ModuleAction(good.triple.algebra, 3,
                         P @ good.triple.action.action_matrices @ np.linalg.inv(P))
    faithful = MatrixRep(good.triple.algebra, good.rep.matrices[:, :3, :3])
    return LocalRackModel(good.triple, working_rep(faithful, other),
                          good.base_dim, good.h_basis, good.radius, good.cfg)


def assert_same_report(batched, scalar):
    got, want = batched.to_dict(), scalar.to_dict()
    assert got["passed"] == want["passed"]
    assert got["info"] == want["info"]
    assert [(v["law"], v["where"]) for v in got["violations"]] == \
        [(v["law"], v["where"]) for v in want["violations"]]
    residuals = [(v["residual"], w["residual"]) for v, w in
                 zip(got["violations"], want["violations"])]
    residuals.append((got["max_residual"], want["max_residual"]))
    for r, s in residuals:
        assert abs(r - s) <= 1e-14 * max(1.0, abs(s)) or (r != r and s != s)


MODELS = [pytest.param(lambda n=n: builtin_model(n), id=n)
          for n in ("sl2-adjoint", "scaling:2.0", "scaling:-0.7",
                    "heisenberg-ideal")]
MODELS += [pytest.param(lambda n=n, i=i: ideal_model(n, i), id=f"{n}/{i}")
           for n, i in catalog.IDEAL_CHOICES]
MODELS += [
    pytest.param(lambda: builtin_model("scaling:-40", radius=0.29),
                 id="scaling:-40@0.29"),
    pytest.param(lambda: scaled_sl2_model(30.0), id="sl2x30"),
    pytest.param(zero_subalgebra_model, id="zero-subalgebra"),
    pytest.param(broken_model, id="broken-module-block"),
]


@pytest.mark.parametrize("make", MODELS)
def test_batched_suites_match_the_per_sample_oracle(make):
    model = make()
    for k, (batched, scalar) in enumerate(SUITES):
        assert_same_report(batched(model, 120, 7 + k),
                           scalar(model, 120, 7 + k))


@pytest.mark.parametrize("samples", [0, -5, 1, 800])
def test_sample_counts_match_the_oracle(samples):
    model = builtin_model("sl2-adjoint")
    for batched, scalar in SUITES:
        assert_same_report(batched(model, samples, 3), scalar(model, samples, 3))


@pytest.mark.parametrize("make", [broken_model, lambda: scaled_sl2_model(30.0)],
                         ids=["broken-module-block", "sl2x30"])
def test_batch_boundaries_keep_the_report(make, monkeypatch):
    # with 7 samples per batch, listed violations and skips cross batches
    model = make()
    monkeypatch.setattr(integrate, "_CHUNK", 7 * model.rep.matrix_dim ** 2)
    assert integrate._per_call(model) == 7
    for k, (batched, scalar) in enumerate(SUITES):
        assert_same_report(batched(model, 60, 7 + k), scalar(model, 60, 7 + k))


def test_the_oracle_cases_exercise_skips_and_violations():
    # the comparison above means little unless skips and violations occur
    skips = check_local_group_set_laws(builtin_model("scaling:-40", radius=0.29),
                                       samples=100)
    assert skips.info["samples_skipped"] == 4
    model = scaled_sl2_model(30.0)
    assert all(batched(model, 120, 7 + k).info["samples_skipped"] > 0
               for k, (batched, _) in enumerate(SUITES))
    broken = broken_model()
    reports = [batched(broken, 120, 7 + k) for k, (batched, _) in enumerate(SUITES)]
    assert reports[0].passed
    assert len(reports[1].violations) == len(reports[2].violations) == 20
    assert not reports[1].passed and not reports[2].passed


# ---------------------------------------------------------------------------
# stacked kernels
# ---------------------------------------------------------------------------

def random_stack(m, k=12, scale=0.6, seed=0):
    rng = np.random.default_rng(seed)
    return scipy.linalg.expm(rng.standard_normal((k, m, m)) * scale / np.sqrt(m))


@pytest.mark.parametrize("m", [2, 3, 6, 9, 20])
def test_stacked_log_and_exp_equal_single_calls_bit_for_bit(m):
    A = random_stack(m, scale=2.0)            # some slices need square roots
    logs, failed = log_matrix(A)
    assert not failed.any()
    for i in range(len(A)):
        assert np.array_equal(logs[i], log_matrix(A[i]))
    X = np.random.default_rng(1).standard_normal((7, m, m)) * 0.3
    E = expm(X)
    for i in range(len(X)):
        assert np.array_equal(E[i], expm(X[i]))


def test_stacked_log_flags_only_the_slice_outside_the_domain():
    A = random_stack(3, k=5)
    A[2] = np.diag([-1.0, -1.0, 1.0])
    logs, failed = log_matrix(A)
    assert failed.tolist() == [False, False, True, False, False]
    assert np.all(logs[2] == 0.0)
    for i in (0, 1, 3, 4):
        assert np.array_equal(logs[i], log_matrix(A[i]))


def test_empty_stacks_give_empty_results():
    logs, failed = log_matrix(np.zeros((0, 3, 3)))
    assert logs.shape == (0, 3, 3) and failed.shape == (0,)
    rep = builtin_model("sl2-adjoint").rep
    mats, outside = rep.element(np.zeros((0, 3)))
    assert mats.shape == (0, 6, 6) and outside.shape == (0,)


@pytest.mark.parametrize("M,message", [
    (np.diag([-1.0, -1.0, 1.0]), "singular iterate"),
    (-np.eye(2), "singular iterate"),
])
def test_single_log_keeps_its_chart_error_messages(M, message):
    with pytest.raises(ChartError, match=message):
        log_matrix(M)


def test_log_rejects_bad_shapes_and_entries_for_stacks_too():
    with pytest.raises(StructuralError):
        log_matrix(np.zeros((2, 2, 3)))
    with pytest.raises(StructuralError):
        log_matrix(np.full((2, 2, 2), np.nan))


def test_stacked_coords_of_and_element_equal_single_calls():
    model = builtin_model("heisenberg-ideal")
    rep = model.rep
    rng = np.random.default_rng(4)
    coords = rng.standard_normal((6, 3)) * 0.1
    coords[3] *= 10.0                         # outside the chart ball
    mats, outside = rep.element(coords)
    assert outside.tolist() == [False, False, False, True, False, False]
    assert np.array_equal(mats[3], np.eye(rep.matrix_dim))
    with pytest.raises(ChartError):
        rep.element(coords[3])
    for i in (0, 1, 2, 4, 5):
        assert np.array_equal(mats[i], rep.element(coords[i]).matrix)
    logs = np.stack([log_matrix(M) for M in mats])
    logs[1, 0, -1] += 1.0                     # leaves the representation span
    back, off = rep.coords_of(logs, 1e-9)
    assert off.tolist() == [False, True, False, False, False, False]
    with pytest.raises(ChartError, match="representation span"):
        rep.coords_of(logs[1], 1e-9)
    for i in (0, 2, 3, 4, 5):
        assert np.array_equal(back[i], rep.coords_of(logs[i], 1e-9))
