"""Exponential chart, matrix logarithm, group operations, derivatives."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from leibrack import (AxiomError, CapabilityError, ChartError, DiffConfig,
                      MatrixRep, MembershipError, StructuralError,
                      SubspaceBasis, adjoint, adjoint_rep, adjoint_via_rep,
                      chart_section, check_rep, derivative_at_identity,
                      group_inverse, group_mul, lie_algebra, log_matrix,
                      mixed_second_derivative, working_rep)
from leibrack import catalog
from leibrack.report import MAX_LISTED_VIOLATIONS


def heisenberg_rep() -> MatrixRep:
    alg = catalog.heisenberg()
    return MatrixRep(alg, catalog.faithful_rep_matrices("heisenberg"))


def sl2_adjoint() -> MatrixRep:
    return adjoint_rep(catalog.sl2())


def test_log_agrees_with_scipy_on_random_group_elements():
    rng = np.random.default_rng(3)
    for _ in range(10):
        X = 0.4 * rng.standard_normal((4, 4))
        M = scipy.linalg.expm(X)
        ours = log_matrix(M)
        reference = scipy.linalg.logm(M)
        assert np.max(np.abs(np.asarray(reference).imag)) <= 1e-12
        assert np.max(np.abs(ours - np.asarray(reference).real)) <= 1e-12


def test_log_inverts_exp_exactly_enough():
    rng = np.random.default_rng(5)
    X = 0.3 * rng.standard_normal((3, 3))
    assert np.max(np.abs(log_matrix(scipy.linalg.expm(X)) - X)) <= 1e-13
    assert np.max(np.abs(log_matrix(np.eye(3)))) == 0.0


def test_log_rejects_negative_real_spectrum():
    with pytest.raises(ChartError):
        log_matrix(-np.eye(2))


def test_log_structural_errors():
    with pytest.raises(StructuralError):
        log_matrix(np.zeros((2, 3)))
    with pytest.raises(StructuralError):
        log_matrix(np.full((2, 2), np.nan))


def test_heisenberg_product_matches_closed_form():
    # in a two-step nilpotent algebra the chart product is exactly
    # x + y + (1/2)[x, y]; the bracket only feeds the central coordinate
    rep = heisenberg_rep()
    rng = np.random.default_rng(7)
    for _ in range(8):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        x *= 0.2 / np.linalg.norm(x)
        y *= 0.2 / np.linalg.norm(y)
        g = group_mul(rep.element(x), rep.element(y), rep)
        expected = x + y
        expected = expected + 0.5 * np.array(
            [0.0, 0.0, x[0] * y[1] - x[1] * y[0]])
        assert np.max(np.abs(g.coords - expected)) <= 1e-14


def test_group_identity_and_inverse():
    rep = sl2_adjoint()
    g = rep.element([0.1, -0.2, 0.15])
    e = rep.identity()
    # multiplying by the identity leaves the matrix untouched; coordinates
    # are re-extracted through the logarithm, hence rounding-level residue
    assert np.max(np.abs(group_mul(g, e, rep).coords - g.coords)) <= 1e-13
    assert np.max(np.abs(group_mul(e, g, rep).coords - g.coords)) <= 1e-13
    ginv = group_inverse(g, rep)
    assert np.array_equal(ginv.coords, -g.coords)
    back = group_mul(g, ginv, rep)
    assert np.max(np.abs(back.coords)) <= 1e-14


def test_group_mul_is_associative_in_chart():
    rep = sl2_adjoint()
    rng = np.random.default_rng(9)
    for _ in range(5):
        a, b, c = (rep.element(0.08 * rng.standard_normal(3))
                   for _ in range(3))
        left = group_mul(group_mul(a, b, rep), c, rep)
        right = group_mul(a, group_mul(b, c, rep), rep)
        assert np.max(np.abs(left.coords - right.coords)) <= 1e-12


def test_product_outside_chart_raises():
    alg = catalog.abelian(1)
    rep = MatrixRep(alg, np.array([[[1.0]]]))
    g = rep.element([0.3])
    with pytest.raises(ChartError):
        group_mul(g, g, rep)


def test_product_leaving_representation_span_raises():
    # matrices that do not actually represent the abelian bracket: the
    # product log picks up a commutator term outside the span
    alg = catalog.abelian(2)
    X = np.zeros((3, 3)); X[0, 1] = 1.0
    Y = np.zeros((3, 3)); Y[1, 2] = 1.0
    rep = MatrixRep(alg, np.stack([X, Y]))
    assert not check_rep(rep).passed
    with pytest.raises(ChartError):
        group_mul(rep.element([0.2, 0.0]), rep.element([0.0, 0.2]), rep)


def test_element_requires_chart_ball_and_good_shape():
    rep = sl2_adjoint()
    with pytest.raises(ChartError):
        rep.element([0.5, 0.0, 0.0])
    with pytest.raises(StructuralError):
        rep.element([0.1, 0.2])
    with pytest.raises(StructuralError):
        rep.element([np.inf, 0.0, 0.0])
    with pytest.raises(StructuralError):
        MatrixRep(catalog.sl2(), np.zeros((2, 2, 2)))


def test_adjoint_weight_on_sl2():
    # conjugating by exp(t h) scales e by exp(2 t)
    rep = sl2_adjoint()
    g = rep.element([0.1, 0.0, 0.0])
    out = adjoint(g, [0.0, 1.0, 0.0], rep)
    expected = np.array([0.0, np.exp(0.2), 0.0])
    assert np.max(np.abs(out - expected)) <= 1e-12
    alt = adjoint_via_rep(g, [0.0, 1.0, 0.0], rep)
    assert np.max(np.abs(alt - expected)) <= 1e-12


def test_adjoint_routes_agree_on_random_samples():
    rep = sl2_adjoint()
    rng = np.random.default_rng(13)
    for _ in range(10):
        w = rng.standard_normal(3)
        g = rep.element(0.2 * w / np.linalg.norm(w))
        xi = rng.standard_normal(3)
        a = adjoint(g, xi, rep)
        b = adjoint_via_rep(g, xi, rep)
        assert np.max(np.abs(a - b)) <= 1e-9 * max(1.0, np.linalg.norm(a))


def test_adjoint_route_disagreement_is_detected():
    # a fake "representation" by commuting matrices: the conjugation route
    # returns xi unchanged while exp(ad) does not; the cross-check must trip
    mats = np.stack([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]),
                     np.diag([0.0, 0.0, 1.0])])
    fake = MatrixRep(catalog.sl2(), mats)
    g = fake.element([0.1, 0.0, 0.0])
    with pytest.raises(AxiomError) as err:
        adjoint(g, [0.0, 1.0, 0.0], fake)
    assert "adjoint-route-agreement" in str(err.value)


def test_chart_section_membership():
    rep = sl2_adjoint()
    g = rep.element([0.2, 0.0, 0.0])
    line = SubspaceBasis(3, [[1.0, 0.0, 0.0]])
    assert np.array_equal(chart_section(g, line), g.coords)
    assert np.array_equal(chart_section(g), g.coords)
    off = rep.element([0.1, 0.1, 0.0])
    with pytest.raises(MembershipError):
        chart_section(off, line)


def test_check_rep_catalog_representations():
    for name in sorted(catalog.ALGEBRA_BUILDERS):
        alg = catalog.algebra_by_name(name)
        rep = MatrixRep(alg, catalog.faithful_rep_matrices(name))
        report = check_rep(rep)
        assert report.passed, name
        assert report.info["smallest_singular_ratio"] > 1e-3


def test_check_rep_detects_unfaithful_stack():
    alg = catalog.abelian(2)
    M = np.zeros((2, 2, 2))
    M[0, 0, 1] = 1.0
    M[1, 0, 1] = 1.0                          # same matrix twice: rank 1
    report = check_rep(MatrixRep(alg, M))
    assert not report.passed
    assert any(v.law == "faithful" for v in report.violations)
    assert all(v.law != "representation-homomorphism"
               for v in report.violations)


def test_check_rep_lists_at_most_the_cap():
    alg = catalog.sl2()
    R = np.random.default_rng(5).standard_normal((3, 4, 4))
    R[2] = R[0]                               # not a homomorphism, not faithful
    report = check_rep(MatrixRep(alg, R))
    assert not report.passed
    assert len(report.violations) == MAX_LISTED_VIOLATIONS


def test_adjoint_rep_needs_trivial_center():
    assert check_rep(adjoint_rep(catalog.sl2())).passed
    with pytest.raises(CapabilityError):
        adjoint_rep(catalog.heisenberg())
    with pytest.raises(CapabilityError):
        adjoint_rep(catalog.abelian(3))


def test_working_rep_blocks():
    alg = catalog.heisenberg()
    rep = heisenberg_rep()
    action = alg.adjoint_action()
    big = working_rep(rep, action)
    m = rep.matrix_dim
    assert big.matrix_dim == m + action.dim_v
    for i in range(3):
        assert np.array_equal(big.matrices[i][:m, :m], rep.matrices[i])
        assert np.array_equal(big.matrices[i][m:, m:],
                              action.action_matrices[i])
        assert np.max(np.abs(big.matrices[i][:m, m:])) == 0.0
        assert np.max(np.abs(big.matrices[i][m:, :m])) == 0.0


def test_derivative_of_known_curve():
    w = np.array([1.0, -2.0, 0.5])
    curve = lambda t: np.sin(3.0 * t) * w
    got = derivative_at_identity(curve, DiffConfig(step=1e-4))
    assert np.max(np.abs(got - 3.0 * w)) <= 1e-6
    rich = derivative_at_identity(curve,
                                  DiffConfig(step=1e-2, scheme="richardson"))
    cent = derivative_at_identity(curve, DiffConfig(step=1e-2))
    assert np.max(np.abs(rich - 3.0 * w)) <= 1e-6
    assert np.max(np.abs(rich - 3.0 * w)) < np.max(np.abs(cent - 3.0 * w))


def test_mixed_derivative_of_known_surface():
    surface = lambda a, b: np.array([np.sin(2.0 * a) * np.sin(5.0 * b)])
    got = mixed_second_derivative(surface, DiffConfig(step=1e-3))
    assert abs(got[0] - 10.0) <= 1e-4
    rich = mixed_second_derivative(surface,
                                   DiffConfig(step=1e-2, scheme="richardson"))
    cent = mixed_second_derivative(surface, DiffConfig(step=1e-2))
    assert abs(rich[0] - 10.0) <= 1e-5
    assert abs(rich[0] - 10.0) < abs(cent[0] - 10.0)


def test_conjugation_surface_recovers_structure_constants():
    # d^2/dt1 dt2 of log(exp(t1 x) exp(t2 y) exp(-t1 x)) is [x, y]; running
    # it through the full chart machinery checks exp, mul, log, and the
    # coordinate extraction against the algebra's own tensor
    rep = sl2_adjoint()
    C = rep.algebra.structure_constants
    cfg = DiffConfig(step=1e-3, scheme="richardson")
    basis = np.eye(3)
    for i in range(3):
        for j in range(3):
            def surface(t1, t2, i=i, j=j):
                g = rep.element(t1 * basis[i])
                h = rep.element(t2 * basis[j])
                return group_mul(group_mul(g, h, rep),
                                 group_inverse(g, rep), rep).coords
            got = mixed_second_derivative(surface, cfg)
            assert np.max(np.abs(got - C[i, j])) <= 1e-6, (i, j)


def test_diffconfig_validation():
    with pytest.raises(StructuralError):
        DiffConfig(step=0.0)
    with pytest.raises(StructuralError):
        DiffConfig(scheme="forward")
