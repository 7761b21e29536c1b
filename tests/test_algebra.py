"""Core tensor checks against independent brute-force oracles."""

from __future__ import annotations

import numpy as np
import pytest

from leibrack import (DEFAULT_TOL, LeibnizAlgebraData, LieAlgebraData,
                      ModuleAction, StructuralError, SubspaceBasis,
                      bracket_closure_check, brackets, check_leibniz,
                      check_lie_algebra, check_module, lie_algebra)
from leibrack import catalog


def jacobi_table_by_loops(C: np.ndarray) -> np.ndarray:
    """Independent oracle: the Jacobi identity at every basis tuple
    (i, j, k, l), summed with explicit loops."""
    n = C.shape[0]
    table = np.zeros((n,) * 4)
    for i, j, k, l in np.ndindex(table.shape):
        total = 0.0
        for m in range(n):
            total += C[i, j, m] * C[m, k, l]
            total += C[j, k, m] * C[m, i, l]
            total += C[k, i, m] * C[m, j, l]
        table[i, j, k, l] = total
    return table


def module_table_by_loops(C: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Independent oracle for sum_k C[i,j,k] A_k = [A_i, A_j], one matrix
    of residuals per index pair (i, j)."""
    n = C.shape[0]
    table = np.zeros((n, n) + A.shape[1:])
    for i in range(n):
        for j in range(n):
            want = sum(C[i, j, k] * A[k] for k in range(n))
            table[i, j] = want - (A[i] @ A[j] - A[j] @ A[i])
    return table


def leibniz_table_by_loops(B: np.ndarray) -> np.ndarray:
    """Independent oracle for [u,[v,w]] = [[u,v],w] + [v,[u,w]], one vector
    of residuals per basis triple (u, v, w)."""
    d = B.shape[0]
    def br(x, y):
        return np.einsum("i,j,ijk->k", x, y, B)
    table = np.zeros((d,) * 4)
    basis = np.eye(d)
    for i, j, k in np.ndindex(d, d, d):
        u, v, w = basis[i], basis[j], basis[k]
        table[i, j, k] = br(u, br(v, w)) - br(br(u, v), w) - br(v, br(u, w))
    return table


def worst(table: np.ndarray) -> float:
    return float(np.max(np.abs(table), initial=0.0))


def jacobi_residual_by_loops(C: np.ndarray) -> float:
    return worst(jacobi_table_by_loops(C))


def module_residual_by_loops(C: np.ndarray, A: np.ndarray) -> float:
    return worst(module_table_by_loops(C, A))


def leibniz_residual_by_loops(B: np.ndarray) -> float:
    return worst(leibniz_table_by_loops(B))


@pytest.mark.parametrize("name", sorted(catalog.ALGEBRA_BUILDERS))
def test_catalog_algebras_satisfy_lie_axioms(name):
    alg = catalog.algebra_by_name(name)
    report = check_lie_algebra(alg)
    assert report.passed
    # integer structure constants make the residual exactly zero
    assert report.max_residual == 0.0
    assert jacobi_residual_by_loops(alg.structure_constants) == 0.0


def test_check_lie_algebra_agrees_with_loop_oracle_on_random_tensors():
    rng = np.random.default_rng(11)
    for _ in range(5):
        C = rng.standard_normal((3, 3, 3))
        C = C - np.swapaxes(C, 0, 1)          # antisymmetric but non-Jacobi
        report = check_lie_algebra(lie_algebra(C))
        oracle = jacobi_residual_by_loops(C)
        assert report.max_residual == pytest.approx(oracle, rel=1e-12)
        assert not report.passed


def test_antisymmetry_violation_is_named():
    C = np.zeros((2, 2, 2))
    C[0, 1, 1] = 1.0                           # missing the (1,0,1) = -1 entry
    report = check_lie_algebra(lie_algebra(C))
    assert not report.passed
    laws = {v.law for v in report.violations}
    assert "antisymmetry" in laws
    where = [v.where for v in report.violations if v.law == "antisymmetry"]
    assert (0, 1, 1) in where and (1, 0, 1) in where


def test_sl2_bracket_and_ad():
    sl2 = catalog.sl2()
    h, e, f = np.eye(3)
    C = sl2.structure_constants
    assert np.array_equal(np.einsum("i,j,ijk->k", h, e, C), 2.0 * e)
    assert np.array_equal(np.einsum("i,j,ijk->k", e, f, C), h)
    assert np.array_equal(sl2.ad(h) @ f, -2.0 * f)


def test_adjoint_action_is_a_module():
    for name in sorted(catalog.ALGEBRA_BUILDERS):
        alg = catalog.algebra_by_name(name)
        action = alg.adjoint_action()
        report = check_module(action)
        assert report.passed, name
        oracle = module_residual_by_loops(alg.structure_constants,
                                          action.action_matrices)
        assert oracle <= 1e-12


def test_module_violation_detected():
    sl2 = catalog.sl2()
    A = np.array(sl2.adjoint_action().action_matrices)
    A[0, 0, 0] += 0.25
    report = check_module(ModuleAction(sl2, 3, A))
    assert not report.passed
    assert report.max_residual >= 0.25
    assert all(v.law == "module-homomorphism" for v in report.violations)


def test_leibniz_identity_for_lie_bracket_tensor():
    sl2 = catalog.sl2()
    leib = LeibnizAlgebraData(3, sl2.structure_constants)
    report = check_leibniz(leib)
    assert report.passed
    assert report.info["antisymmetric"] is True
    assert leibniz_residual_by_loops(sl2.structure_constants) == 0.0


def test_leibniz_example_that_is_not_antisymmetric():
    # [a, a] = b, everything else zero: a Leibniz bracket, not a Lie bracket
    B = np.zeros((2, 2, 2))
    B[0, 0, 1] = 1.0
    report = check_leibniz(LeibnizAlgebraData(2, B))
    assert report.passed
    assert report.info["antisymmetric"] is False
    assert leibniz_residual_by_loops(B) == 0.0


def test_leibniz_violation_detected():
    B = np.zeros((2, 2, 2))
    B[0, 1, 0] = 1.0                           # [a,b] = a breaks the identity
    B[1, 0, 1] = 1.0                           # [b,a] = b
    report = check_leibniz(LeibnizAlgebraData(2, B))
    oracle = leibniz_residual_by_loops(B)
    assert oracle > 0.5
    assert not report.passed
    assert report.max_residual == pytest.approx(oracle, rel=1e-12)


def test_subspace_distance_matches_hand_computation():
    # distance of [h, e+f] = 2e - 2f from span{h, e+f} is 2*sqrt(2)
    sub = SubspaceBasis(3, [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    assert sub.distance([0.0, 2.0, -2.0]) == pytest.approx(2.0 * np.sqrt(2.0))
    assert sub.distance([3.0, 0.5, 0.5]) <= DEFAULT_TOL
    assert not sub.distance([0.0, 1.0, 0.0]) <= 1e-6


def test_zero_subspace_and_span_comparison():
    zero = SubspaceBasis(3, [])
    assert zero.dim == 0
    assert zero.distance([1.0, 2.0, 2.0]) == pytest.approx(3.0)
    a = SubspaceBasis(3, [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    b = SubspaceBasis(3, [[0.0, 1.0, 0.0], [2.0, 0.0, 0.0]])
    assert np.all(a.distance(b.vectors) <= 1e-12)     # the same span
    assert np.all(b.distance(a.vectors) <= 1e-12)
    assert a.distance([0.0, 0.0, 1.0]) == pytest.approx(1.0)


def test_dependent_vectors_rejected():
    with pytest.raises(StructuralError):
        SubspaceBasis(3, [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])


def test_more_vectors_than_dimensions_rejected():
    # three rows in R^2 have two nonzero singular values, yet are dependent
    with pytest.raises(StructuralError, match="linearly dependent"):
        SubspaceBasis(2, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def test_bracket_closure_check():
    sl2 = catalog.sl2()
    assert bracket_closure_check(sl2, SubspaceBasis(3, [[1, 0, 0], [0, 1, 0]]))
    assert not bracket_closure_check(
        sl2, SubspaceBasis(3, [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]))


def test_a_nan_closure_distance_is_not_closed():
    # at this scale [w, w] = 1e320 e_b - 1e320 e_b is inf - inf: a NaN
    # distance, which the comparison with the tolerance must not pass
    alg = lie_algebra(1e300 * catalog.nonabelian2().structure_constants)
    sub = SubspaceBasis(2, [[1e10, 1e10]])
    with np.errstate(over="ignore", invalid="ignore"):
        W = sub.vectors
        assert np.isnan(sub.distance(brackets(alg.structure_constants, W, W)))
        assert bracket_closure_check(alg, sub) is False


def test_catalog_ideals_really_are_ideals():
    for name, ideal in catalog.IDEAL_CHOICES:
        alg = catalog.algebra_by_name(name)
        sub = catalog.ideal_subspace(name, ideal)
        # [g, ideal] stays in the ideal
        assert np.all(sub.distance(brackets(alg.structure_constants, np.eye(
            alg.dim), sub.vectors)) <= 1e-9), (name, ideal)
        assert bracket_closure_check(alg, sub), (name, ideal)


def test_arrays_are_frozen():
    sl2 = catalog.sl2()
    with pytest.raises(ValueError):
        sl2.structure_constants[0, 0, 0] = 1.0


def test_shape_validation():
    with pytest.raises(StructuralError):
        LieAlgebraData(2, ("a", "b"), np.zeros((2, 2, 3)))
    with pytest.raises(StructuralError):
        LieAlgebraData(2, ("a",), np.zeros((2, 2, 2)))
    with pytest.raises(StructuralError):
        ModuleAction(catalog.sl2(), 2, np.zeros((2, 2, 2)))
    with pytest.raises(StructuralError):
        lie_algebra(np.full((2, 2, 2), np.nan))


def test_reports_are_deterministic():
    alg, action, = catalog.sl2(), catalog.sl2().adjoint_action()
    r1, r2 = check_module(action), check_module(action)
    assert r1 == r2
    assert r1.to_dict() == r2.to_dict()
