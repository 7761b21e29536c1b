"""Exponential chart, matrix logarithm, group operations, derivatives."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from leibrack import (CapabilityError, ChartError, DiffConfig, GroupElement,
                      MatrixRep, StructuralError, adjoint_rep, check_rep,
                      build_model, derivative_at_identity, ideal_triple,
                      log_matrix, mixed_second_derivative)
from leibrack import catalog
from leibrack.localgroup import chart_products, first_failure
from leibrack.report import MAX_LISTED_VIOLATIONS
from recovery_oracle import one


def heisenberg_rep() -> MatrixRep:
    alg = catalog.heisenberg()
    return MatrixRep(alg, catalog.faithful_rep_matrices("heisenberg"))


def sl2_adjoint() -> MatrixRep:
    return adjoint_rep(catalog.sl2())


def product(rep, *coords):
    """The chart product of the elements with these coordinates, left to
    right, through one-slice stacks: its coordinates and whether any
    product on the way left the chart."""
    G, why = rep.element(np.atleast_2d(coords[0]))
    for c in coords[1:]:
        G, xi, left = chart_products(G, rep.element(np.atleast_2d(c))[0], rep)
        why = first_failure(why, left)
    return xi[0], bool(why["reason"][0])


def test_log_agrees_with_scipy_on_random_group_elements():
    rng = np.random.default_rng(3)
    for _ in range(10):
        X = 0.4 * rng.standard_normal((4, 4))
        M = scipy.linalg.expm(X)
        ours = one(log_matrix, M)[0]
        reference = scipy.linalg.logm(M)
        assert np.max(np.abs(np.asarray(reference).imag)) <= 1e-12
        assert np.max(np.abs(ours - np.asarray(reference).real)) <= 1e-12


def test_log_inverts_exp_exactly_enough():
    rng = np.random.default_rng(5)
    X = 0.3 * rng.standard_normal((3, 3))
    assert np.max(np.abs(one(log_matrix, scipy.linalg.expm(X))[0] - X)) <= 1e-13
    assert np.max(np.abs(one(log_matrix, np.eye(3))[0])) == 0.0


def test_log_rejects_negative_real_spectrum():
    with pytest.raises(ChartError):
        one(log_matrix, -np.eye(2))


def test_log_structural_errors():
    with pytest.raises(StructuralError):
        log_matrix(np.eye(2))                 # one matrix, not a stack
    with pytest.raises(StructuralError):
        log_matrix(np.zeros((1, 2, 3)))
    with pytest.raises(StructuralError):
        log_matrix(np.full((1, 2, 2), np.nan))


def test_kernels_name_a_string_argument():
    rep = sl2_adjoint()
    for call, what in ((lambda: log_matrix("ab"), "logarithm matrices"),
                       (lambda: rep.element("ab"), "coordinates"),
                       (lambda: rep.coords_of("ab", 1e-9), "matrices")):
        with pytest.raises(StructuralError, match=f"^{what}: "):
            call()


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
        xi, off = product(rep, x, y)
        expected = x + y
        expected = expected + 0.5 * np.array(
            [0.0, 0.0, x[0] * y[1] - x[1] * y[0]])
        assert not off
        assert np.max(np.abs(xi - expected)) <= 1e-14


def test_group_identity_and_inverse():
    rep = sl2_adjoint()
    x = np.array([0.1, -0.2, 0.15])
    # multiplying by the identity leaves the matrix untouched; coordinates
    # are re-extracted through the logarithm, hence rounding-level residue
    assert np.max(np.abs(product(rep, x, np.zeros(3))[0] - x)) <= 1e-13
    assert np.max(np.abs(product(rep, np.zeros(3), x)[0] - x)) <= 1e-13
    # the inverse is coordinate negation
    back, off = product(rep, x, -x)
    assert not off
    assert np.max(np.abs(back)) <= 1e-14


def test_group_mul_is_associative_in_chart():
    rep = sl2_adjoint()
    rng = np.random.default_rng(9)
    for _ in range(5):
        a, b, c = (0.08 * rng.standard_normal(3) for _ in range(3))
        left = product(rep, product(rep, a, b)[0], c)[0]
        right = product(rep, a, product(rep, b, c)[0])[0]
        assert np.max(np.abs(left - right)) <= 1e-12


def test_product_outside_chart_raises():
    alg = catalog.abelian(1)
    rep = MatrixRep(alg, np.array([[[1.0]]]))
    assert product(rep, [0.3], [0.3])[1]
    assert not product(rep, [0.2], [0.2])[1]
    g = GroupElement.exp(rep, [0.3]).matrix
    with pytest.raises(ChartError, match="product left the coordinate chart"):
        one(chart_products, g, g, rep)


def test_product_leaving_representation_span_raises():
    # matrices that do not actually represent the abelian bracket: the
    # product log picks up a commutator term outside the span
    alg = catalog.abelian(2)
    X = np.zeros((3, 3)); X[0, 1] = 1.0
    Y = np.zeros((3, 3)); Y[1, 2] = 1.0
    rep = MatrixRep(alg, np.stack([X, Y]))
    assert not check_rep(rep).passed
    assert product(rep, [0.2, 0.0], [0.0, 0.2])[1]
    with pytest.raises(ChartError, match="representation span"):
        one(chart_products, GroupElement.exp(rep, [0.2, 0.0]).matrix,
            GroupElement.exp(rep, [0.0, 0.2]).matrix, rep)


def test_element_requires_chart_ball_and_good_shape():
    rep = sl2_adjoint()
    with pytest.raises(ChartError):
        GroupElement.exp(rep, [0.5, 0.0, 0.0])
    with pytest.raises(StructuralError):
        GroupElement.exp(rep, [0.1, 0.2])
    with pytest.raises(StructuralError):
        GroupElement.exp(rep, [np.inf, 0.0, 0.0])
    with pytest.raises(StructuralError):
        rep.element([0.1, 0.2, 0.0])          # one vector, not a stack
    with pytest.raises(StructuralError):
        MatrixRep(catalog.sl2(), np.zeros((2, 2, 2)))


def conjugated(rep, x, xi):
    """Coordinates of exp(x) exp(xi) exp(-x) through the chart products."""
    return product(rep, x, xi, -np.asarray(x, dtype=float))[0]


def test_adjoint_weight_on_sl2():
    # conjugating by exp(t h) scales e by exp(2 t)
    rep = sl2_adjoint()
    out = conjugated(rep, [0.1, 0.0, 0.0], [0.0, 0.2, 0.0])
    expected = np.array([0.0, 0.2 * np.exp(0.2), 0.0])
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_adjoint_routes_agree_on_random_samples():
    # log(g exp(xi) g^-1) = exp(ad log g) xi: chart conjugation against the
    # exponential of the adjoint matrix
    rep = sl2_adjoint()
    rng = np.random.default_rng(13)
    for _ in range(10):
        w = rng.standard_normal(3)
        x = 0.2 * w / np.linalg.norm(w)
        xi = 0.05 * rng.standard_normal(3)
        a = scipy.linalg.expm(rep.algebra.ad(x)) @ xi
        b = conjugated(rep, x, xi)
        assert np.max(np.abs(a - b)) <= 1e-9 * max(1.0, np.linalg.norm(a))


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


def test_model_transport_is_the_module_action():
    # the group lives in the faithful representation alone; the module
    # integrates to rho = exp of the action matrices, a separate d x d stack
    alg = catalog.heisenberg()
    rep = heisenberg_rep()
    triple = ideal_triple(alg, catalog.ideal_subspace("heisenberg", "plane"))
    model = build_model(triple, rep=rep)
    assert model.rep is rep
    assert model.transport.matrix_dim == triple.dim_v
    assert np.array_equal(model.transport.matrices,
                          triple.action.action_matrices)
    c = np.array([0.1, -0.2, 0.15])
    act = np.einsum("i,iab->ab", c, triple.action.action_matrices)
    rho = GroupElement.exp(model.transport, c).matrix
    assert np.max(np.abs(rho - scipy.linalg.expm(act))) <= 1e-15


def test_derivative_of_known_curve():
    # the stencil is a pure formula: values in, the derivative out
    w = np.array([1.0, -2.0, 0.5])
    offsets = []

    def curve(t):
        offsets.append(t)
        return np.sin(3.0 * t)[:, None] * w

    got = derivative_at_identity(curve, DiffConfig(step=1e-4))
    assert got.shape == w.shape
    assert np.max(np.abs(got - 3.0 * w)) <= 1e-6
    rich = derivative_at_identity(curve,
                                  DiffConfig(step=1e-2, scheme="richardson"))
    cent = derivative_at_identity(curve, DiffConfig(step=1e-2))
    assert np.max(np.abs(rich - 3.0 * w)) <= 1e-6
    assert np.max(np.abs(rich - 3.0 * w)) < np.max(np.abs(cent - 3.0 * w))
    # one call per stencil, on the offsets in the order of the formula
    assert [list(t) for t in offsets] == [[1e-4, -1e-4],
                                          [2e-2, 1e-2, -1e-2, -2e-2],
                                          [1e-2, -1e-2]]


def test_mixed_derivative_of_known_surface():
    calls = []

    def surface(a, b):
        calls.append((a, b))
        return (np.sin(2.0 * a) * np.sin(5.0 * b))[:, None]

    got = mixed_second_derivative(surface, DiffConfig(step=1e-3))
    assert got.shape == (1,)
    assert abs(got[0] - 10.0) <= 1e-4
    rich = mixed_second_derivative(surface,
                                   DiffConfig(step=1e-2, scheme="richardson"))
    cent = mixed_second_derivative(surface, DiffConfig(step=1e-2))
    assert abs(rich[0] - 10.0) <= 1e-5
    assert abs(rich[0] - 10.0) < abs(cent[0] - 10.0)
    h = 1e-3
    assert [list(t) for t in calls[0]] == [[h, h, -h, -h], [h, -h, h, -h]]
    assert len(calls) == 3 and len(calls[1][0]) == 8


def test_conjugation_surface_recovers_structure_constants():
    # d^2/dt1 dt2 of log(exp(t1 x) exp(t2 y) exp(-t1 x)) is [x, y]; running
    # it through the full chart machinery checks exp, mul, log, and the
    # coordinate extraction against the algebra's own tensor; the chart
    # products' failures are the surface's to check, not the stencil's
    rep = sl2_adjoint()
    C = rep.algebra.structure_constants
    cfg = DiffConfig(step=1e-3, scheme="richardson")
    basis = np.eye(3)
    for i in range(3):
        for j in range(3):
            offs = []

            def surface(t1, t2, i=i, j=j):
                G = rep.element(t1[:, None] * basis[i])[0]
                H = rep.element(t2[:, None] * basis[j])[0]
                Ginv = rep.element(-t1[:, None] * basis[i])[0]
                GH, _, off = chart_products(G, H, rep)
                _, xi, off_inv = chart_products(GH, Ginv, rep)
                offs.append(first_failure(off, off_inv))
                return xi
            got = mixed_second_derivative(surface, cfg)
            assert len(offs) == 1 and not offs[0]["reason"].any()
            assert np.max(np.abs(got - C[i, j])) <= 1e-6, (i, j)


def test_diffconfig_validation():
    with pytest.raises(StructuralError):
        DiffConfig(step=0.0)
    with pytest.raises(StructuralError):
        DiffConfig(scheme="forward")
