"""Triples, strictness, augmentations, morphisms, and crossed modules."""

from __future__ import annotations

import numpy as np
import pytest

from leibrack import (AxiomError, EmbeddingTensor, LieAlgebraCrossedModule,
                      LieLeibnizTriple, ModuleAction, RelaxedAugmentation,
                      SubspaceBasis, TripleMorphism, build_triple,
                      check_lie_crossed_module, check_morphism,
                      check_relaxed_augmentation, check_triple,
                      derived_bracket_tensor, equivariance_defect,
                      ideal_crossed_module, ideal_triple,
                      identity_crossed_module, is_strict, lie_algebra,
                      max_strictness_subalgebra, random_triple,
                      scaling_crossed_module, scaling_triple,
                      triple_from_crossed_module)
from leibrack import (DEFAULT_TOL, StructuralError, bracket_closure_check,
                      catalog, check_lie_algebra, check_module)
from leibrack.report import Collector
from leibrack.triples import _ideal_action

LAMBDA_GRID = (-1.0, 0.0, 0.5, 1.0, 2.0)


def derived_bracket_by_loops(action: ModuleAction,
                             theta: EmbeddingTensor) -> np.ndarray:
    """Independent oracle: [u, v]_V = theta(u) . v entry by entry."""
    d = action.dim_v
    B = np.zeros((d, d, d))
    for u in range(d):
        x = theta.matrix[:, u]
        mat = sum(x[i] * action.action_matrices[i] for i in range(len(x)))
        for v in range(d):
            B[u, v] = mat @ np.eye(d)[v]
    return B


def adjoint_triple(alg) -> LieLeibnizTriple:
    return build_triple(alg, alg.adjoint_action(),
                        EmbeddingTensor(np.eye(alg.dim)))


def test_derived_bracket_matches_loop_oracle():
    sl2 = catalog.sl2()
    action = sl2.adjoint_action()
    theta = EmbeddingTensor(np.eye(3))
    B = derived_bracket_tensor(action, theta)
    assert np.array_equal(B, derived_bracket_by_loops(action, theta))
    # with the identity embedding the derived bracket is the Lie bracket
    assert np.array_equal(B, sl2.structure_constants)


def test_adjoint_triple_is_valid_and_strict():
    for name in ("sl2", "nonabelian2", "ut3"):
        triple = adjoint_triple(catalog.algebra_by_name(name))
        report = check_triple(triple.algebra, triple.action, triple.theta)
        assert report.passed, name
        assert report.info["strict"] is True
        assert is_strict(triple)


def test_ideal_triples_are_strict():
    for name, ideal in catalog.IDEAL_CHOICES:
        alg = catalog.algebra_by_name(name)
        sub = catalog.ideal_subspace(name, ideal)
        triple = ideal_triple(alg, sub)
        assert is_strict(triple), (name, ideal)
        h = max_strictness_subalgebra(triple)
        assert h.dim == alg.dim


@pytest.mark.parametrize("lam", LAMBDA_GRID)
def test_scaling_family_validity_and_strictness(lam):
    triple = scaling_triple(lam)
    report = check_triple(triple.algebra, triple.action, triple.theta)
    assert report.passed
    assert is_strict(triple) == (lam == 1.0)
    h = max_strictness_subalgebra(triple)
    assert h.dim == (2 if lam == 1.0 else 1)
    if lam != 1.0:
        assert h.distance([0.0, 1.0]) <= DEFAULT_TOL


@pytest.mark.parametrize("lam", LAMBDA_GRID)
def test_scaling_family_defect_formula(lam):
    # defect(a) sends the generator of V to (1 - lam) b; defect(b) vanishes
    triple = scaling_triple(lam)
    D_a = equivariance_defect(triple, [1.0, 0.0])
    D_b = equivariance_defect(triple, [0.0, 1.0])
    expected = np.array([[0.0], [1.0 - lam]])
    assert np.max(np.abs(D_a - expected)) <= 1e-12
    assert np.max(np.abs(D_b)) <= 1e-12


def test_scaling_defect_frozen_value_at_two():
    D = equivariance_defect(scaling_triple(2.0), [1.0, 0.0])
    assert np.array_equal(D, np.array([[0.0], [-1.0]]))


def test_perturbed_embedding_rejected_with_quadratic_residual():
    for seed in range(6):
        for eps in (1e-3, 1e-1):
            alg, action, theta = random_triple(seed, "perturbed_invalid",
                                               eps=eps)
            report = check_triple(alg, action, theta)
            assert not report.passed
            quad = [v for v in report.violations
                    if v.law == "embedding-intertwines-brackets"]
            assert quad, "failure must be located in the embedding law"
            assert max(v.residual for v in quad) >= eps / 2
            # the module law itself still holds for these instances
            assert all(v.law != "module-homomorphism"
                       for v in report.violations)
            with pytest.raises(AxiomError):
                build_triple(alg, action, theta)


def test_build_triple_names_first_violated_law():
    alg, action, theta = random_triple(0, "perturbed_invalid", eps=0.1,
                                       lam=2.0)
    with pytest.raises(AxiomError) as err:
        build_triple(alg, action, theta)
    assert "embedding-intertwines-brackets" in str(err.value)


def test_build_triple_returns_the_triple_it_checked(monkeypatch):
    # the stack and the SVD that decided the report are the triple's own,
    # and the later readers of the triple reuse them
    from leibrack import triples
    checked, reports = [], triples.triple_reports

    def spy(triple, tol=DEFAULT_TOL):
        checked.append(triple)
        return reports(triple, tol)
    monkeypatch.setattr(triples, "triple_reports", spy)
    triple = build_triple(*triples._scaling_parts(2.0))
    assert checked == [triple]
    stack, svd = triple.defect_stack, triple._defect_svd
    assert not stack.flags.writeable
    assert max_strictness_subalgebra(triple).dim == 1
    assert np.array_equal(equivariance_defect(triple, np.eye(2)), stack)
    assert triple.defect_stack is stack and triple._defect_svd is svd


def test_relaxed_augmentation_positive_and_negative():
    triple = scaling_triple(2.0)
    good = RelaxedAugmentation(triple, SubspaceBasis(2, [[0.0, 1.0]]))
    assert check_relaxed_augmentation(good).passed

    full = RelaxedAugmentation(triple, SubspaceBasis(2, np.eye(2)))
    report = check_relaxed_augmentation(full)
    assert not report.passed
    assert any(v.law == "defect-vanishes" for v in report.violations)

    # a subspace missing the embedding image fails even if defect-free
    off = RelaxedAugmentation(triple, SubspaceBasis(2, []))
    report = check_relaxed_augmentation(off)
    assert any(v.law == "contains-embedding-image" for v in report.violations)


def test_max_strictness_subalgebra_spans_expected_kernel():
    h = max_strictness_subalgebra(scaling_triple(0.0))
    assert h.dim == 1 and h.distance([0.0, 1.0]) <= DEFAULT_TOL
    assert max_strictness_subalgebra(scaling_triple(1.0)).dim == 2


def test_identity_morphism_passes():
    triple = scaling_triple(2.0)
    mor = TripleMorphism(triple, triple, np.eye(2), np.eye(1))
    report = check_morphism(mor)
    assert report.passed
    assert report.max_residual == 0.0


def test_morphism_into_extended_algebra():
    # embed the scaling triple at lam = 1 into a 3-dim algebra with a
    # central direction; phi is the inclusion, psi the identity
    C = np.zeros((3, 3, 3))
    C[0, 1, 1], C[1, 0, 1] = 1.0, -1.0
    big = lie_algebra(C, labels=("a", "b", "c"))
    action = ModuleAction(big, 1, np.array([[[1.0]], [[0.0]], [[0.0]]]))
    theta = EmbeddingTensor(np.array([[0.0], [1.0], [0.0]]))
    target = build_triple(big, action, theta)

    phi = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    mor = TripleMorphism(scaling_triple(1.0), target, phi, np.eye(1))
    report = check_morphism(mor)
    assert report.passed
    assert "derived-leibniz-morphism" not in {v.law for v in report.violations}


def test_morphism_violation_named():
    triple = scaling_triple(2.0)
    phi = np.array([[1.0, 0.0], [0.0, 2.0]])   # scales b: breaks embedding
    mor = TripleMorphism(triple, triple, phi, np.eye(1))
    report = check_morphism(mor)
    assert not report.passed
    laws = {v.law for v in report.violations}
    assert "embedding-intertwined" in laws
    assert "algebra-homomorphism" not in laws  # phi is still a Lie map


def test_identity_crossed_module_round_trip():
    sl2 = catalog.sl2()
    cm = identity_crossed_module(sl2)
    report = check_lie_crossed_module(cm)
    assert report.passed
    assert report.info["equivariance_failures_unrestricted"] == []
    aug = triple_from_crossed_module(cm)
    assert aug.h_basis.dim == 3
    assert np.array_equal(aug.triple.derived_bracket.bracket_tensor,
                          sl2.structure_constants)


def test_ideal_crossed_module_round_trip():
    heis = catalog.heisenberg()
    sub = catalog.ideal_subspace("heisenberg", "plane")
    cm = ideal_crossed_module(heis, sub)
    assert check_lie_crossed_module(cm).passed
    aug = triple_from_crossed_module(cm)
    assert is_strict(aug.triple)
    # the derived bracket on the plane ideal of the Heisenberg algebra is 0
    assert np.max(np.abs(aug.triple.derived_bracket.bracket_tensor)) == 0.0


@pytest.mark.parametrize("lam", LAMBDA_GRID)
def test_scaling_crossed_module(lam):
    cm = scaling_crossed_module(lam)
    report = check_lie_crossed_module(cm)
    assert report.passed
    failures = report.info["equivariance_failures_unrestricted"]
    if lam == 1.0:
        assert cm.n_prime is None
        assert failures == []
    else:
        assert cm.n_prime is not None
        assert failures and all(i == 0 for i, _, _ in failures)
    aug = triple_from_crossed_module(cm)
    assert aug.h_basis.dim == (2 if lam == 1.0 else 1)


def test_broken_crossed_module_peiffer_named():
    sl2 = catalog.sl2()
    dead = ModuleAction(sl2, 3, np.zeros((3, 3, 3)))
    cm = LieAlgebraCrossedModule(sl2, sl2, np.eye(3), dead)
    report = check_lie_crossed_module(cm)
    assert not report.passed
    laws = {v.law for v in report.violations}
    assert "peiffer" in laws
    assert "equivariance" in laws
    with pytest.raises(AxiomError) as err:
        triple_from_crossed_module(cm)
    assert err.value.law == "lie-crossed-module"


def test_the_derived_bracket_is_not_a_constructor_argument():
    t = scaling_triple(2.0)
    with pytest.raises(TypeError):
        LieLeibnizTriple(t.algebra, t.action, t.theta,
                         derived_bracket=t.derived_bracket)


def test_crossed_module_conversion_checks_each_law_once(monkeypatch):
    # check_lie_crossed_module already evaluates the restriction and
    # equivariance laws that check_relaxed_augmentation would repeat
    from leibrack import triples
    calls = []
    monkeypatch.setattr(triples, "check_relaxed_augmentation",
                        lambda *args, **kw: calls.append(args))
    heis = catalog.heisenberg()
    for cm in (identity_crossed_module(catalog.sl2()),
               ideal_crossed_module(heis, catalog.ideal_subspace("heisenberg",
                                                                 "plane")),
               scaling_crossed_module(1.0), scaling_crossed_module(2.0)):
        assert triple_from_crossed_module(cm).triple.dim_g == cm.n.dim
    sl2 = catalog.sl2()
    dead = LieAlgebraCrossedModule(sl2, sl2, np.eye(3),
                                   ModuleAction(sl2, 3, np.zeros((3, 3, 3))))
    cm = scaling_crossed_module(2.0)
    off_image = LieAlgebraCrossedModule(cm.m, cm.n, cm.mu, cm.eta,
                                        n_prime=SubspaceBasis(2, [[1.0, 0.0]]))
    for broken in (dead, off_image):
        with pytest.raises(AxiomError) as err:
            triple_from_crossed_module(broken)
        assert err.value.law == "lie-crossed-module"
    assert calls == []


def test_restriction_must_be_subalgebra_and_contain_image():
    cm = scaling_crossed_module(2.0)
    bad = LieAlgebraCrossedModule(cm.m, cm.n, cm.mu, cm.eta,
                                  n_prime=SubspaceBasis(2, [[1.0, 0.0]]))
    report = check_lie_crossed_module(bad)
    assert not report.passed
    assert any(v.law == "restriction-contains-image"
               for v in report.violations)


def test_random_triples_are_deterministic_and_valid():
    for family in ("strict_from_ideal", "scaling_family"):
        for seed in range(8):
            t1 = random_triple(seed, family)
            t2 = random_triple(seed, family)
            assert np.array_equal(t1.theta.matrix, t2.theta.matrix)
            assert np.array_equal(t1.action.action_matrices,
                                  t2.action.action_matrices)
            report = check_triple(t1.algebra, t1.action, t1.theta)
            assert report.passed, (family, seed)


def test_random_family_unknown_name():
    from leibrack import StructuralError
    with pytest.raises(StructuralError):
        random_triple(0, "no-such-family")


def test_random_triple_parameters_are_keywords_it_knows():
    with pytest.raises(TypeError):          # a misspelt scale is no default
        random_triple(1, "strict_from_ideal", algebra="sl2", ideal="full",
                      scal=2.0)
    with pytest.raises(TypeError):
        random_triple(1, "strict_from_ideal", "sl2", "full")
    tri = random_triple(1, "strict_from_ideal", algebra="sl2", ideal="full",
                        scale=2.0)
    assert np.array_equal(tri.theta.matrix, 2.0 * np.eye(3))


def test_triple_reports_are_plain_data():
    triple = scaling_triple(0.5)
    report = check_triple(triple.algebra, triple.action, triple.theta)
    d = report.to_dict()
    assert d["passed"] is True
    assert isinstance(d["info"]["max_defect"], float)
    import json
    json.dumps(d)


# ---------------------------------------------------------------------------
# Loop oracles: the per-element forms of the stacked checkers, compared on
# seeded float inputs in dense random bases, valid and broken
# ---------------------------------------------------------------------------

def distance_by_lstsq(W, v):
    if len(W) == 0:
        return float(np.linalg.norm(v))
    coeff, *_ = np.linalg.lstsq(W.T, v, rcond=None)
    return float(np.linalg.norm(W.T @ coeff - v))


def bracket_by_loops(alg, x, y):
    """[x, y] of two coordinate vectors, entry by entry."""
    C, n = alg.structure_constants, alg.dim
    return np.array([sum(x[i] * y[j] * C[i, j, k] for i in range(n)
                         for j in range(n)) for k in range(n)])


def act_by_loops(action, x):
    """The action matrix of the algebra element x, summed over the basis."""
    A = action.action_matrices
    return sum(x[i] * A[i] for i in range(len(A)))


def closure_by_loops(alg, sub, tol=1e-9):
    W = sub.vectors
    return all(distance_by_lstsq(W, bracket_by_loops(alg, x, y)) <= tol
               for x in W for y in W)


def ideal_action_by_loops(alg, sub):
    W, k = sub.vectors, sub.dim
    A = np.zeros((alg.dim, k, k))
    for i, e in enumerate(np.eye(alg.dim)):
        for q in range(k):
            z = bracket_by_loops(alg, e, W[q])
            coeff, *_ = np.linalg.lstsq(W.T, z, rcond=None)
            if np.linalg.norm(W.T @ coeff - z) > 1e-9:
                raise StructuralError("subspace is not an ideal")
            A[i, :, q] = coeff
    m_C = np.zeros((k, k, k))
    for p in range(k):
        for q in range(k):
            z = bracket_by_loops(alg, W[p], W[q])
            coeff, *_ = np.linalg.lstsq(W.T, z, rcond=None)
            if np.linalg.norm(W.T @ coeff - z) > 1e-9:
                raise StructuralError("subspace is not closed under the bracket")
            m_C[p, q] = coeff
    return A, m_C


def relaxed_augmentation_by_loops(aug, tol=1e-9):
    triple, W = aug.triple, aug.h_basis.vectors
    col = Collector(tol)
    col.scan("contains-embedding-image",
             [distance_by_lstsq(W, triple.theta.matrix[:, j])
              for j in range(triple.dim_v)])
    col.scan("subalgebra-closure",
             [[distance_by_lstsq(W, bracket_by_loops(triple.algebra, x, y))
               for y in W] for x in W])
    col.scan("defect-vanishes",
             [np.max(np.abs(equivariance_defect(triple, x))) for x in W])
    return col.report({"h_dim": aug.h_basis.dim})


def morphism_by_loops(mor, tol=1e-9):
    src, tgt, phi, psi = mor.source, mor.target, mor.phi, mor.psi
    col = Collector(tol)
    Cs, Ct = src.algebra.structure_constants, tgt.algebra.structure_constants
    col.scan("algebra-homomorphism", np.einsum("ijm,am->ija", Cs, phi)
             - np.einsum("ai,bj,abk->ijk", phi, phi, Ct))
    col.scan("embedding-intertwined",
             phi @ src.theta.matrix - tgt.theta.matrix @ psi)
    act = np.empty((src.dim_g, tgt.dim_v, src.dim_v))
    for i, e in enumerate(np.eye(src.dim_g)):
        act[i] = psi @ act_by_loops(src.action, e) \
            - act_by_loops(tgt.action, phi @ e) @ psi
    col.scan("action-intertwined", act)
    return col.report()


def crossed_module_by_loops(cm, tol=1e-9):
    M, N, mu, eta = cm.m, cm.n, cm.mu, cm.eta
    col = Collector(tol)
    for part in (check_lie_algebra(M, tol), check_lie_algebra(N, tol),
                 check_module(eta, tol)):
        col.merge(part)
    col.scan("boundary-homomorphism",
             np.einsum("abm,nm->abn", M.structure_constants, mu)
             - np.einsum("ia,jb,ijn->abn", mu, mu, N.structure_constants))
    if cm.n_prime is not None:
        scope = cm.n_prime.vectors
        if not closure_by_loops(N, cm.n_prime, tol):
            col.add("restriction-subalgebra")
        col.scan("restriction-contains-image", max(
            distance_by_lstsq(scope, mu[:, j]) for j in range(M.dim)))
    else:
        scope = np.eye(N.dim)
    Bm = M.structure_constants

    def derivation(x):
        E = act_by_loops(eta, x)
        return np.abs(np.einsum("abm,km->abk", Bm, E)
                      - np.einsum("ia,ibk->abk", E, Bm)
                      - np.einsum("jb,ajk->abk", E, Bm))

    def equivariance(x):
        return np.abs(mu @ act_by_loops(eta, x) - N.ad(x) @ mu)

    col.scan("action-by-derivations", [np.max(derivation(x)) for x in scope])
    col.scan("equivariance", [np.max(equivariance(x)) for x in scope])
    outside = Collector(tol)
    outside.scan("equivariance",
                 [np.max(equivariance(x), axis=0) for x in np.eye(N.dim)])
    col.scan("peiffer", np.stack([act_by_loops(eta, mu @ e) - M.ad(e)
                                  for e in np.eye(M.dim)]))
    return col.report({
        "restricted": cm.n_prime is not None,
        "equivariance_failures_unrestricted": [
            v.where + (v.residual,) for v in outside.violations]})


def assert_close(new, old):
    assert abs(new - old) <= 1e-12 * max(1.0, abs(old)), (new, old)


def assert_same_report(new, old):
    assert new.passed == old.passed
    assert [(v.law, v.where) for v in new.violations] == \
        [(v.law, v.where) for v in old.violations]
    assert_close(new.max_residual, old.max_residual)
    for a, b in zip(new.violations, old.violations):
        assert_close(a.residual, b.residual)
    assert set(new.info) == set(old.info)
    for key, value in old.info.items():
        if key == "equivariance_failures_unrestricted":
            assert [f[:-1] for f in new.info[key]] == [f[:-1] for f in value]
            for a, b in zip(new.info[key], value):
                assert_close(a[-1], b[-1])
        elif isinstance(value, float):
            assert_close(new.info[key], value)
        else:
            assert new.info[key] == value


def dense_basis(rng, d):
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return Q * rng.uniform(0.8, 1.25, size=d)


def algebra_in(alg, P):
    return lie_algebra(np.einsum("ia,jb,ijk,ck->abc", P, P,
                                 alg.structure_constants, np.linalg.inv(P)))


def action_in(alg, A, P, R):
    """Action matrices A of the old basis for the basis P of g, R of V."""
    mats = np.linalg.inv(R) @ np.einsum("ia,iuv->auv", P, A) @ R
    return ModuleAction(alg, R.shape[0], mats)


def rows_in(P, rows):
    return (np.linalg.inv(P) @ np.asarray(rows, float).T).T


def triple_in(triple, P, R, shake=0.0, rng=None):
    """The triple in the bases P of g and R of V; ``shake`` tilts the action
    by random noise, so the result breaks the triple laws."""
    alg = algebra_in(triple.algebra, P)
    A = triple.action.action_matrices
    if shake:
        A = A + shake * rng.standard_normal(A.shape)
    theta = EmbeddingTensor(np.linalg.inv(P) @ triple.theta.matrix @ R)
    return LieLeibnizTriple(alg, action_in(alg, A, P, R), theta)


ORACLE_TRIPLES = [("scaling", lam) for lam in LAMBDA_GRID] + \
    [("ideal", name) for name in ("heisenberg", "ut3", "sl2")]


def base_triple(kind, arg):
    if kind == "scaling":
        return scaling_triple(arg)
    ideal = {"heisenberg": "plane", "ut3": "strict_upper", "sl2": "full"}[arg]
    return ideal_triple(catalog.algebra_by_name(arg),
                        catalog.ideal_subspace(arg, ideal))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind,arg", ORACLE_TRIPLES)
def test_relaxed_augmentation_matches_loops(kind, arg, seed):
    rng = np.random.default_rng(seed)
    base = base_triple(kind, arg)
    n, d = base.dim_g, base.dim_v
    P, R = dense_basis(rng, n), dense_basis(rng, d)
    max_h = max_strictness_subalgebra(base).vectors
    for shake in (0.0, 1e-2):
        triple = triple_in(base, P, R, shake, rng)
        for rows in (max_h, np.eye(n), max_h[:1], rng.standard_normal((2, n)),
                     np.zeros((0, n))):
            mixed = rng.standard_normal((len(rows),) * 2) + 2 * np.eye(len(rows))
            h = SubspaceBasis(n, mixed @ rows_in(P, rows))
            aug = RelaxedAugmentation(triple, h)
            assert_same_report(check_relaxed_augmentation(aug),
                               relaxed_augmentation_by_loops(aug))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind,arg", ORACLE_TRIPLES)
def test_morphism_matches_loops(kind, arg, seed):
    rng = np.random.default_rng(seed)
    base = base_triple(kind, arg)
    n, d = base.dim_g, base.dim_v
    P1, R1, P2, R2 = (dense_basis(rng, k) for k in (n, d, n, d))
    src, tgt = triple_in(base, P1, R1), triple_in(base, P2, R2)
    phi = np.linalg.inv(P2) @ P1
    psi = np.linalg.inv(R2) @ R1
    for dphi, dpsi in ((0.0, 0.0), (1e-2, 0.0), (0.0, 1e-2), (1e-1, 1e-1)):
        mor = TripleMorphism(src, tgt,
                             phi + dphi * rng.standard_normal(phi.shape),
                             psi + dpsi * rng.standard_normal(psi.shape))
        new, old = check_morphism(mor), morphism_by_loops(mor)
        assert_same_report(new, old)
        assert new.passed == (dphi == dpsi == 0.0)


def defect_by_loops(triple, a):
    """The defect matrix [a, theta(.)] - theta(a . .) of one vector a."""
    Th = triple.theta.matrix
    return triple.algebra.ad(a) @ Th - Th @ act_by_loops(triple.action, a)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind,arg", ORACLE_TRIPLES)
def test_equivariance_defect_matches_loops(kind, arg, seed):
    rng = np.random.default_rng(seed)
    base = base_triple(kind, arg)
    n, d = base.dim_g, base.dim_v
    for shake in (0.0, 1e-2):
        triple = triple_in(base, dense_basis(rng, n), dense_basis(rng, d),
                           shake, rng)
        rows = np.vstack([np.eye(n), rng.standard_normal((3, n))])
        stack = equivariance_defect(triple, rows)
        assert stack.shape == (len(rows), n, d)
        for a, row in zip(rows, stack):
            old = defect_by_loops(triple, a)
            single = equivariance_defect(triple, a)
            assert single.shape == (n, d)
            for new in (single, row):
                assert np.all(np.abs(new - old)
                              <= 1e-12 * np.maximum(1.0, np.abs(old)))


def crossed_module_in(cm, R, P, n_prime=None):
    """The crossed module in the bases R of m and P of n."""
    m, n = algebra_in(cm.m, R), algebra_in(cm.n, P)
    return LieAlgebraCrossedModule(
        m, n, np.linalg.inv(P) @ cm.mu @ R,
        action_in(n, cm.eta.action_matrices, P, R), n_prime)


ORACLE_CROSSED = [("identity", "sl2"), ("identity", "heisenberg"),
                  ("identity", "ut3"), ("ideal", "heisenberg"),
                  ("ideal", "ut3")] + [("scaling", lam) for lam in LAMBDA_GRID]


def base_crossed_module(kind, arg):
    if kind == "scaling":
        return scaling_crossed_module(arg)
    alg = catalog.algebra_by_name(arg)
    if kind == "identity":
        return identity_crossed_module(alg)
    ideal = {"heisenberg": "plane", "ut3": "strict_upper"}[arg]
    return ideal_crossed_module(alg, catalog.ideal_subspace(arg, ideal))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind,arg", ORACLE_CROSSED)
def test_lie_crossed_module_matches_loops(kind, arg, seed):
    rng = np.random.default_rng(seed)
    base = base_crossed_module(kind, arg)
    R, P = dense_basis(rng, base.m.dim), dense_basis(rng, base.n.dim)
    n = base.n.dim
    restrictions = [None, rng.standard_normal((1, n)),
                    rng.standard_normal((min(2, n), n))]
    if base.n_prime is not None:
        restrictions.append(rows_in(P, base.n_prime.vectors))
    for shake in (0.0, 1e-2, "dead"):
        cm = crossed_module_in(base, R, P)
        if shake == "dead":
            eta = ModuleAction(cm.n, cm.m.dim, np.zeros_like(cm.eta.action_matrices))
        else:
            A = cm.eta.action_matrices
            eta = ModuleAction(cm.n, cm.m.dim, A + shake * rng.standard_normal(A.shape))
        for rows in restrictions:
            sub = None if rows is None else SubspaceBasis(n, rows)
            broken = LieAlgebraCrossedModule(cm.m, cm.n, cm.mu, eta, sub)
            assert_same_report(check_lie_crossed_module(broken),
                               crossed_module_by_loops(broken))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name,ideal", catalog.IDEAL_CHOICES)
def test_ideal_checks_match_loops(name, ideal, seed):
    rng = np.random.default_rng(seed)
    base = catalog.algebra_by_name(name)
    n = base.dim
    P = dense_basis(rng, n)
    alg = algebra_in(base, P)
    rows = catalog.ideal_subspace(name, ideal).vectors
    k = len(rows)
    for sub_rows in (rows_in(P, rows), rng.standard_normal((k, n)),
                     rng.standard_normal((1, n))):
        mixed = rng.standard_normal((len(sub_rows),) * 2) + 2 * np.eye(len(sub_rows))
        sub = SubspaceBasis(n, mixed @ sub_rows)
        assert bracket_closure_check(alg, sub) == closure_by_loops(alg, sub)
        try:
            want = ideal_action_by_loops(alg, sub)
        except StructuralError as exc:
            with pytest.raises(StructuralError, match=str(exc)):
                _ideal_action(alg, sub)
            continue
        action, m_C = _ideal_action(alg, sub)
        for got, ref in ((action.action_matrices, want[0]), (m_C, want[1])):
            assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
    _ideal_action(alg, SubspaceBasis(n, rows_in(P, rows)))    # no error: an ideal
