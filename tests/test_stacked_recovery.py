"""The stacked recovery against the scalar oracle in recovery_oracle.py.

Every recovered number must be bit for bit the oracle's: the tangent
tensors (theta, action, bracket) and the stack of the n d defects of basis
pairs, on the builtins, the catalog ideal triples and gl(2)..gl(5) under
both schemes, on steps at which some or all stencils shrink, and on a step
so small that the defect's mixed stencil gives NaN.  Where a stencil fails again
after shrinking, both must raise the same error with the same message, and
the stacked recovery must shrink as many directions as the oracle retried.
The first-derivative action and bracket must also agree with the oracle's
mixed second derivatives of the action and the rack product to within
rounding, and the recovery must not exponentiate more matrices than it
needs.
"""

from __future__ import annotations

import numpy as np
import pytest

import recovery_oracle as oracle
from leibrack import (DiffConfig, DomainError, EmbeddingTensor, GroupElement,
                      MatrixRep, StructuralError, build_model, build_triple,
                      catalog, embed_point, ideal_triple, integrate,
                      lie_algebra, local_action, localgroup, rack_product,
                      recover_equivariance_defect, recover_tangent_triple,
                      run_integration_suites)
from leibrack.cli import builtin_parts
from leibrack.integrate import _act, _tangent_triple

BUILTINS = ("sl2-adjoint", "heisenberg-ideal", "scaling:2.0", "scaling:1.0",
            "scaling:-1.0", "scaling:-0.7")
SCHEMES = (("central", 1e-4), ("richardson", 2e-3))


def builtin_triple(name):
    _, parts = builtin_parts(name)
    return (build_triple(parts["algebra"], parts["action"], parts["theta"]),
            parts["rep"])


def ideal_model_parts(name, ideal):
    alg = catalog.algebra_by_name(name)
    return (ideal_triple(alg, catalog.ideal_subspace(name, ideal)),
            MatrixRep(alg, catalog.faithful_rep_matrices(name)))


def gl_parts(n):
    """gl(n) in the matrix-unit basis E_ij -> i n + j, as its adjoint triple
    with the natural representation: [E_ij, E_kl] = d_jk E_il - d_li E_kj."""
    d = n * n
    C, units = np.zeros((d, d, d)), np.zeros((d, n, n))
    for i in range(n):
        for j in range(n):
            units[i * n + j, i, j] = 1.0
            for k in range(n):
                C[i * n + j, j * n + k, i * n + k] += 1.0
                C[i * n + j, k * n + i, k * n + j] -= 1.0
    alg = lie_algebra(C)
    return (build_triple(alg, alg.adjoint_action(), EmbeddingTensor(np.eye(d))),
            MatrixRep(alg, units))


TARGETS = {name: (lambda name=name: builtin_triple(name)) for name in BUILTINS}
TARGETS.update({f"{n}/{i}": (lambda n=n, i=i: ideal_model_parts(n, i))
                for n, i in catalog.IDEAL_CHOICES})
TARGETS.update({f"gl{n}": (lambda n=n: gl_parts(n)) for n in (2, 3, 4, 5)})

RUNS = [pytest.param(target, scheme, step, id=f"{target}/{scheme}")
        for scheme, step in SCHEMES for target in TARGETS]
RUNS += [pytest.param(target, scheme, step, id=f"{target}@{step}/{scheme}")
         for target, scheme, step in (
             ("scaling:2.0", "richardson", 0.5),     # every stencil shrinks
             ("sl2-adjoint", "central", 0.25),       # 3 pairs on the chart edge
             ("sl2-adjoint", "central", 0.4),
             ("sl2-adjoint", "central", 1e-200))]    # a NaN defect
FAILING = [pytest.param(target, scheme, step, id=f"{target}@{step}/{scheme}")
           for target, scheme, step in (
               ("sl2-adjoint", "central", 5.0),
               ("sl2-adjoint", "richardson", 3.5),
               ("scaling:2.0", "central", 4.0),
               ("heisenberg-ideal", "central", 4.0))]


def model_for(target, scheme, step):
    triple, rep = TARGETS[target]()
    return build_model(triple, rep=rep, cfg=DiffConfig(step, scheme))


def basis_pairs(model):
    """Every (a, v) of basis vectors, a outer, as two stacks."""
    n, d = model.triple.dim_g, model.triple.dim_v
    return np.repeat(np.eye(n), d, axis=0), np.tile(np.eye(d), (n, 1))


def oracle_shrinks(model, monkeypatch):
    """The oracle's tangent tensors and defects, and how many of its stencils
    ran again at a smaller step."""
    shrunk = []
    for name in ("derivative_at_identity", "mixed_second_derivative"):
        def counted(*args, stencil=getattr(oracle, name)):
            shrunk.append(args[-1].step < model.cfg.step)
            return stencil(*args)
        monkeypatch.setattr(oracle, name, counted)
    tangent = oracle.recover_tangent_triple(model)
    defects = np.array([oracle.recover_equivariance_defect(model, a, v)
                        for a, v in zip(*basis_pairs(model))])
    return tangent, defects, sum(shrunk)


@pytest.mark.parametrize("target, scheme, step", RUNS)
def test_stacked_recovery_matches_the_scalar_oracle(target, scheme, step,
                                                    monkeypatch):
    model = model_for(target, scheme, step)
    with np.errstate(divide="ignore", invalid="ignore"):
        want_tangent, want_defects, want_shrunk = oracle_shrinks(
            model, monkeypatch)
        tangent, shrank = _tangent_triple(model)
        defects, defect_shrank = recover_equivariance_defect(
            model, *basis_pairs(model))
    for got, want in zip(tangent, want_tangent):
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(defects, want_defects, equal_nan=True)
    assert int(shrank.sum() + defect_shrank.sum()) == want_shrunk
    a, v = basis_pairs(model)
    with np.errstate(divide="ignore", invalid="ignore"):
        one = recover_equivariance_defect(model, a[-1], v[-1])
    assert np.array_equal(one, want_defects[-1], equal_nan=True)


@pytest.mark.parametrize("target, scheme, step", [
    pytest.param(target, scheme, step, id=f"{target}/{scheme}")
    for scheme, step in SCHEMES for target in TARGETS])
def test_first_derivatives_match_the_mixed_oracle(target, scheme, step):
    # the mixed stencil of a map linear in one argument is the first
    # derivative plus rounding of size eps h over 4 h^2: about eps / h
    model = model_for(target, scheme, step)
    action, bracket = _tangent_triple(model)[0][1:]
    mixed_action, mixed_bracket = oracle.mixed_action_bracket(model)
    bound = np.finfo(float).eps / step
    assert np.max(np.abs(action - mixed_action)) <= bound
    assert np.max(np.abs(bracket - mixed_bracket)) <= bound


def test_every_stencil_and_a_mixed_set_shrink():
    for target, step, scheme, count in (("scaling:2.0", 0.5, "richardson", 6),
                                        ("sl2-adjoint", 0.26, "central", 5)):
        model = model_for(target, scheme, step)
        shrank = np.concatenate([_tangent_triple(model)[1],
                                 recover_equivariance_defect(
                                     model, *basis_pairs(model))[1]])
        assert int(shrank.sum()) == count


@pytest.mark.parametrize("target, scheme, step", FAILING)
def test_a_second_failure_raises_the_oracles_error(target, scheme, step):
    model = model_for(target, scheme, step)
    pairs = basis_pairs(model)
    for stacked, scalar in (
            (lambda: recover_tangent_triple(model),
             lambda: oracle.recover_tangent_triple(model)),
            (lambda: recover_equivariance_defect(model, *pairs),
             lambda: [oracle.recover_equivariance_defect(model, a, v)
                      for a, v in zip(*pairs)])):
        with pytest.raises(DomainError) as want:
            scalar()
        with pytest.raises(DomainError) as got:
            stacked()
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


def test_recovery_exponentiates_each_matrix_once(monkeypatch):
    # gl(3): n = d = 9, group elements 3 x 3.  The defect's central stencil
    # exponentiates one group matrix per stencil point, exp(-theta(rho_g v)),
    # besides the tables exp(+-h a) and Phi(+-h v), and one transport rho
    # per table row of +-h a; the tangent two per direction
    slices, expm = {3: 0, 9: 0}, localgroup.expm

    def counted(A):
        slices[A.shape[-1]] += len(A)
        return expm(A)
    monkeypatch.setattr(localgroup, "expm", counted)
    model = model_for("gl3", "central", 1e-4)
    n, d = model.triple.dim_g, model.triple.dim_v
    defects, shrank = recover_equivariance_defect(model, *basis_pairs(model))
    assert not shrank.any()
    assert slices[3] <= 4 * n * d + 2 * n + 2 * d == 360
    assert slices[9] == 2 * n
    slices.update({3: 0, 9: 0})
    assert not _tangent_triple(model)[1].any()
    assert slices == {3: 2 * d, 9: 2 * (n + d)}     # theta; action, bracket


def test_group_arithmetic_stays_in_the_faithful_representation(monkeypatch):
    # gl(3) with its natural representation: every logarithm and pull-back
    # is of 3 x 3 matrices, every exponential 3 x 3 (the group) or 9 x 9
    # (the module's transport), never of a 12 x 12 block of both
    seen = {"log": set(), "coords": set(), "expm": set()}
    log, coords_of, expm = localgroup.log_matrix, MatrixRep.coords_of, \
        localgroup.expm

    def logged(M):
        seen["log"].add(np.shape(M)[1:])
        return log(M)

    def pulled(rep, mats, tol):
        seen["coords"].add(np.shape(mats)[1:])
        return coords_of(rep, mats, tol)

    def exponentiated(A):
        seen["expm"].add(np.shape(A)[-2:])
        return expm(A)
    for module in (localgroup, integrate):
        monkeypatch.setattr(module, "log_matrix", logged)
    monkeypatch.setattr(MatrixRep, "coords_of", pulled)
    monkeypatch.setattr(localgroup, "expm", exponentiated)
    assert run_integration_suites(model_for("gl3", "central", 1e-4), 20).passed
    assert seen == {"log": {(3, 3)}, "coords": {(3, 3)},
                    "expm": {(3, 3), (9, 9)}}


def test_the_single_point_edge_is_the_stacked_action_bit_for_bit():
    # rho comes from the coordinates of g; the faithful matrix only embeds
    model = model_for("gl3", "central", 1e-4)
    rng = np.random.default_rng(2)
    g = GroupElement.exp(model.rep, 0.05 * rng.standard_normal(9))
    x, y = (model.point(0.02 * rng.standard_normal(9)) for _ in range(2))
    for element, p in ((g, y), (embed_point(model, x), y)):
        rho = model.transport.element(element.coords[None])[0]
        moved, shadow, why = _act(model, rho, p.v[None])
        assert why["reason"][0] == 0
        q = local_action(model, element, p)
        assert np.array_equal(q.v, moved[0]) and np.array_equal(q.u, shadow[0])
    phi = embed_point(model, x)
    assert np.array_equal(phi.coords, x.u)
    assert np.array_equal(phi.matrix, model.rep.element(x.u[None])[0][0])
    assert phi.matrix.shape == (3, 3)
    assert np.array_equal(rack_product(model, x, y).v, moved[0])


def test_defect_directions_follow_the_value_rule():
    model = model_for("sl2-adjoint", "central", 1e-4)
    for a, v, what in (("ab", "cd", "direction a"),
                       ([1.0, 0, 0], "cd", "direction v"),
                       ([[1.0, 0]], [[1.0, 0, 0]], "direction a"),
                       ([[1.0, 0, 0]], [[1.0, 0, 0]] * 2, "direction v"),
                       ([np.nan, 0, 0], [1.0, 0, 0], "direction a")):
        with pytest.raises(StructuralError, match=f"^{what}: "):
            recover_equivariance_defect(model, a, v)


def test_defect_tables_index_repeated_and_general_directions():
    # the exponential tables are built over the distinct directions of the
    # stack: repeated, reordered and non-basis ones, and rows that differ
    # only in the sign of a zero
    model = model_for("sl2-adjoint", "richardson", 2e-3)
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3))[[2, 0, 2, 1, 0, 0]]
    v = rng.standard_normal((6, 3))
    v[4] = v[1]
    a[4, 1], a[5, 1] = 0.0, -0.0
    defects, shrank = recover_equivariance_defect(model, a, v)
    assert not shrank.any()
    for k in range(len(a)):
        want = oracle.recover_equivariance_defect(model, a[k], v[k])
        assert np.array_equal(defects[k], want)
        assert np.array_equal(
            recover_equivariance_defect(model, a[k], v[k]), want)


@pytest.mark.parametrize("target", ["sl2-adjoint", "scaling:2.0"])
def test_defect_of_no_directions_is_an_empty_stack(target):
    model = model_for(target, "central", 1e-4)
    n, d = model.triple.dim_g, model.triple.dim_v
    defects, shrank = recover_equivariance_defect(
        model, np.zeros((0, n)), np.zeros((0, d)))
    assert defects.shape == (0, n) and shrank.shape == (0,)
    assert shrank.dtype == bool
