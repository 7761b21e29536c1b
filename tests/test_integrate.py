"""Local rack models: laws, round-trip recovery, defect recovery."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from leibrack import (AxiomError, DiffConfig, DomainError, EmbeddingTensor,
                      GroupElement, MatrixRep, MembershipError, ModuleAction,
                      StructuralError, SubspaceBasis, build_model, build_triple,
                      check_equivariance, check_local_group_set_laws,
                      check_local_rack_laws, embed_point, equivariance_defect,
                      ideal_triple, local_action, rack_product,
                      recover_equivariance_defect, recover_tangent_triple,
                      run_integration_suites, scaling_triple)
from leibrack import DEFAULT_TOL, catalog


def sl2_adjoint_model(**kw):
    alg = catalog.sl2()
    triple = build_triple(alg, alg.adjoint_action(),
                          EmbeddingTensor(np.eye(3)))
    return build_model(triple, **kw)


def heisenberg_ideal_model(**kw):
    alg = catalog.heisenberg()
    sub = catalog.ideal_subspace("heisenberg", "plane")
    triple = ideal_triple(alg, sub)
    rep = MatrixRep(alg, catalog.faithful_rep_matrices("heisenberg"))
    return build_model(triple, rep=rep, **kw)


def scaling_model(lam, **kw):
    triple = scaling_triple(lam)
    rep = MatrixRep(triple.algebra,
                    catalog.faithful_rep_matrices("nonabelian2"))
    return build_model(triple, rep=rep, **kw)


def test_build_model_defaults():
    model = sl2_adjoint_model()
    assert model.radius == pytest.approx(0.3)
    assert model.h_basis.dim == 3            # strict: full algebra
    assert model.rep.matrix_dim == 3         # the adjoint representation
    assert model.transport.matrix_dim == 3   # the module's transport


def test_build_model_rejects_bad_ingredients():
    triple = scaling_triple(2.0)
    rep = MatrixRep(triple.algebra,
                    catalog.faithful_rep_matrices("nonabelian2"))
    with pytest.raises(AxiomError):          # full algebra is not equivariant
        build_model(triple, rep=rep, h_basis=SubspaceBasis(2, np.eye(2)))
    wrong = MatrixRep(catalog.sl2(), catalog.faithful_rep_matrices("sl2"))
    with pytest.raises(StructuralError):
        build_model(triple, rep=wrong)
    broken = MatrixRep(triple.algebra, np.stack([np.eye(2), np.eye(2)]))
    with pytest.raises(AxiomError):          # not a representation
        build_model(triple, rep=broken)


def test_default_h_basis_for_relaxed_triple():
    model = scaling_model(2.0)
    assert model.h_basis.dim == 1
    assert model.h_basis.distance([0.0, 1.0]) <= DEFAULT_TOL


def test_point_membership_rules():
    model = scaling_model(2.0)
    p = model.point([0.1])
    assert np.array_equal(p.u, model.triple.theta.matrix @ p.v)
    with pytest.raises(MembershipError):
        model.point([model.radius * 1.5])    # shadow leaves the neighbourhood


def test_basepoint_is_exact_fixed_point():
    for model in (sl2_adjoint_model(), heisenberg_ideal_model(),
                  scaling_model(0.0)):
        base = model.basepoint()
        assert np.all(base.v == 0.0) and np.all(base.u == 0.0)
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = model.point(0.05 * rng.standard_normal(model.triple.dim_v))
            fixed = rack_product(model, x, base)
            assert np.all(fixed.v == 0.0) and np.all(fixed.u == 0.0)
            trivial = rack_product(model, base, x)
            assert np.array_equal(trivial.v, x.v)


def test_local_action_matches_directly_exponentiated_transport():
    model = sl2_adjoint_model()
    xi = np.array([0.1, -0.05, 0.2])
    g = GroupElement.exp(model.rep, xi)
    A = np.einsum("i,iab->ab", xi, model.triple.action.action_matrices)
    transport = GroupElement.exp(model.transport, xi).matrix
    assert np.max(np.abs(transport - scipy.linalg.expm(A))) <= 1e-12
    p = model.point([0.05, 0.0, -0.02])
    q = local_action(model, g, p)
    assert np.max(np.abs(q.v - scipy.linalg.expm(A) @ p.v)) <= 1e-12


def test_action_domain_boundary():
    model = scaling_model(2.0)
    g = GroupElement.exp(model.rep, [0.4, 0.0])   # transport scales by e^{0.8}
    p = model.point([0.9 * model.radius])
    with pytest.raises(DomainError, match="left the model neighbourhood"):
        local_action(model, g, p)
    shrunk = model.point([0.3 * model.radius])
    assert np.array_equal(local_action(model, g, shrunk).v,
                          GroupElement.exp(model.transport, g.coords).matrix
                          @ shrunk.v)


def test_law_suites_pass_on_models():
    for model in (sl2_adjoint_model(), heisenberg_ideal_model(),
                  scaling_model(2.0)):
        g = check_local_group_set_laws(model, samples=40, seed=1)
        r = check_local_rack_laws(model, samples=40, seed=2)
        e = check_equivariance(model, samples=40, seed=3)
        assert g.passed and r.passed and e.passed
        assert g.info["samples_used"] > 0
        assert r.info["samples_used"] > 0
        assert e.info["samples_used"] > 0


@pytest.mark.parametrize("samples", [0, -5])
def test_law_suites_fail_without_samples(samples):
    model = scaling_model(2.0)
    for suite in (check_local_group_set_laws, check_local_rack_laws,
                  check_equivariance):
        report = suite(model, samples=samples)
        assert not report.passed
        assert report.info["samples_used"] == 0
        assert [v.law for v in report.violations] == ["samples-used"]
    assert not run_integration_suites(model, samples=samples).passed


def test_equivariance_suite_fails_on_zero_subalgebra():
    # theta = 0 makes the zero subalgebra a valid relaxed augmentation
    alg = catalog.nonabelian2()
    triple = build_triple(alg, ModuleAction(alg, 1, [[[2.0]], [[0.0]]]),
                          EmbeddingTensor([[0.0], [0.0]]))
    rep = MatrixRep(alg, catalog.faithful_rep_matrices("nonabelian2"))
    model = build_model(triple, rep=rep, h_basis=SubspaceBasis(2, np.zeros((0, 2))))
    report = check_equivariance(model, samples=20)
    assert not report.passed
    assert [v.law for v in report.violations] == ["samples-used"]
    assert report.info["samples_used"] == 0
    assert report.info["samples_skipped"] == 0
    assert report.info["h_dim"] == 0


def test_equivariance_suite_uses_restricted_directions():
    model = scaling_model(0.5)
    report = check_equivariance(model, samples=30, seed=4)
    assert report.passed
    assert report.info["strict"] is False
    assert report.info["h_dim"] == 1


def test_roundtrip_recovers_tensors_central():
    model = sl2_adjoint_model()
    theta_rec, action_rec, bracket_rec = recover_tangent_triple(model)
    tr = model.triple
    assert np.max(np.abs(theta_rec - tr.theta.matrix)) <= 1e-4
    assert np.max(np.abs(action_rec - tr.action.action_matrices)) <= 1e-4
    assert np.max(np.abs(
        bracket_rec - tr.derived_bracket.bracket_tensor)) <= 1e-4


def test_roundtrip_richardson_is_sharper():
    cfg = DiffConfig(step=2e-3, scheme="richardson")
    model = heisenberg_ideal_model(cfg=cfg)
    theta_rec, action_rec, bracket_rec = recover_tangent_triple(model)
    tr = model.triple
    worst = max(np.max(np.abs(theta_rec - tr.theta.matrix)),
                np.max(np.abs(action_rec - tr.action.action_matrices)),
                np.max(np.abs(bracket_rec - tr.derived_bracket.bracket_tensor)))
    assert worst <= 1e-7


def test_recovered_defect_matches_algebraic_defect():
    model = scaling_model(2.0)
    numeric = recover_equivariance_defect(model, [1.0, 0.0], [1.0])
    algebraic = equivariance_defect(model.triple, [1.0, 0.0]) @ np.array([1.0])
    assert np.max(np.abs(numeric - algebraic)) <= 1e-4
    assert algebraic[1] == -1.0              # the defect really is -b here
    quiet = recover_equivariance_defect(model, [0.0, 1.0], [1.0])
    assert np.max(np.abs(quiet)) <= 1e-4


def test_defect_recovery_zero_for_strict_triple():
    model = sl2_adjoint_model()
    numeric = recover_equivariance_defect(model, [0.0, 1.0, 0.0],
                                          [0.0, 0.0, 1.0])
    assert np.max(np.abs(numeric)) <= 1e-4


def test_run_integration_suites_full_report():
    model = scaling_model(1.0)
    report = run_integration_suites(model, samples=60, seed=0)
    assert report.passed
    assert report.strict is True
    assert report.h_dim == 2
    assert report.roundtrip["max_residual"] <= report.roundtrip["tolerance"]
    assert report.defect["max_gap"] <= report.defect["tolerance"]
    assert report.defect["pairs"] == 2
    d = report.to_dict()
    import json
    json.dumps(d)
    assert d["laws"]["rack"]["passed"] is True


def test_defect_comparison_pairs_each_basis_vector():
    # V = R^2, a acts by diag(2, 3), theta = (b, 0): the defect of a is
    # nonzero on the first basis vector of V only
    alg = catalog.nonabelian2()
    action = ModuleAction(alg, 2, [np.diag([2.0, 3.0]), np.zeros((2, 2))])
    triple = build_triple(alg, action, EmbeddingTensor([[0.0, 0.0], [1.0, 0.0]]))
    rep = MatrixRep(alg, catalog.faithful_rep_matrices("nonabelian2"))
    report = run_integration_suites(build_model(triple, rep=rep), samples=5)
    assert report.defect["pairs"] == 4
    assert report.defect["passed"]


def test_integration_report_flags_relaxed_models():
    report = run_integration_suites(scaling_model(2.0), samples=40, seed=5)
    assert report.passed
    assert report.strict is False
    assert report.h_dim == 1
