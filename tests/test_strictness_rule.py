"""One rule decides strictness.

The report's ``strict``, ``is_strict`` and the dimension of the equivariant
subalgebra that ``build_model`` samples must agree with each other and with
the known answer in every basis of V, and ``verify`` and ``integrate`` must
print the same verdict.  A singular value of the defect counts as zero when
it is at most the absolute tolerance of every other law, so the rounding
noise of a strict triple in a random basis stays zero.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from leibrack import (EmbeddingTensor, MatrixRep, ModuleAction, build_model,
                      build_triple, catalog, check_triple, ideal_triple,
                      is_strict, lie_algebra, scaling_triple)
from leibrack.cli import EXIT_PASS, main
from test_cli import write_doc
from test_levi_triples import levi_projection
from test_stacked_recovery import gl_parts


def known_cases() -> dict:
    """name -> (algebra, action, theta, representation, dim of h)."""
    sl2 = catalog.sl2()
    cases = {"sl2-adjoint": (sl2, sl2.adjoint_action(), np.eye(3), None, 3)}
    for n in (2, 3):
        gl, rep = gl_parts(n)
        cases[f"gl{n}-adjoint"] = (gl.algebra, gl.action, np.eye(n * n), rep,
                                   n * n)
    heis = ideal_triple(catalog.heisenberg(),
                        catalog.ideal_subspace("heisenberg", "plane"))
    cases["heisenberg-ideal"] = (
        heis.algebra, heis.action, heis.theta.matrix,
        MatrixRep(heis.algebra, catalog.faithful_rep_matrices("heisenberg")), 3)
    for lam in (-2.0, 0.0, 0.5, 1.0, 3.0):
        tri = scaling_triple(lam)
        cases[f"scaling:{lam:g}"] = (tri.algebra, tri.action, tri.theta.matrix,
                                     None, 2 if lam == 1.0 else 1)
    gl3, rep3 = gl_parts(3)
    cases["levi(1,2)"] = (gl3.algebra, gl3.action, levi_projection((1, 2)),
                          rep3, 5)
    return cases


CASES = known_cases()


def in_basis(action: ModuleAction, theta: np.ndarray, P: np.ndarray):
    """The action and embedding in the basis P of V: A -> P^-1 A P and
    theta -> theta P."""
    A = np.linalg.inv(P) @ action.action_matrices @ P
    return ModuleAction(action.algebra, action.dim_v, A), EmbeddingTensor(theta @ P)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(CASES)), seed=st.integers(0, 2 ** 16))
@example(name="sl2-adjoint", seed=0)
@example(name="gl3-adjoint", seed=0)
@example(name="levi(1,2)", seed=0)
def test_every_reading_of_strict_agrees_in_every_basis_of_v(name, seed):
    alg, action, theta, rep, h_dim = CASES[name]
    P = np.random.default_rng(seed).standard_normal((action.dim_v,) * 2)
    action, theta = in_basis(action, theta, P)
    report = check_triple(alg, action, theta)
    # A basis whose rounding noise exceeds the absolute tolerance of the
    # triple laws is skipped: check_triple rejects it before any strictness
    # is read, and scale-aware verdicts are a matter of their own.
    assume(report.passed)
    triple = build_triple(alg, action, theta)
    strict = h_dim == alg.dim
    assert report.info["strict"] is strict
    assert is_strict(triple) is strict
    assert build_model(triple, rep=rep).h_basis.dim == h_dim


def sl2_doc(P: np.ndarray) -> dict:
    """The adjoint triple of sl2 in the basis P of V, as a spec file."""
    alg = catalog.sl2()
    C = alg.structure_constants
    action, theta = in_basis(alg.adjoint_action(), np.eye(3), P)
    return {"lie_algebra": {"dim": 3, "structure_constants": [
                [int(i), int(j), int(k), float(C[i, j, k])]
                for i, j, k in zip(*np.nonzero(C))]},
            "module": {"dim_v": 3,
                       "action_matrices": action.action_matrices.tolist()},
            "theta": {"matrix": theta.matrix.tolist()}}


def strictness_lines(argv, capsys) -> list:
    assert main(argv) == EXIT_PASS
    return [line for line in capsys.readouterr().out.splitlines()
            if line.startswith(("strict", "largest"))]


def test_sl2_in_a_random_basis_of_v_is_strict(tmp_path, capsys):
    # its defect's singular values are rounding noise, about 1e-15
    spec = write_doc(tmp_path, "sl2.json", sl2_doc(
        np.random.default_rng(0).standard_normal((3, 3))))
    assert strictness_lines(["verify", spec], capsys) == [
        "strict: yes", "largest equivariant subalgebra: dim 3 of 3"]
    assert strictness_lines(["integrate", spec, "--samples", "20"], capsys) == [
        "strict: yes (equivariant subalgebra dim 3 of 3)"]


def test_verify_and_integrate_read_strictness_alike(capsys):
    # the defect of scaling:1.0000000001 is 1e-10, below the tolerance
    builtin = ["--builtin", "scaling:1.0000000001"]
    assert strictness_lines(["verify", *builtin], capsys) == [
        "strict: yes", "largest equivariant subalgebra: dim 2 of 2"]
    assert strictness_lines(["integrate", *builtin, "--samples", "20"],
                            capsys) == [
        "strict: yes (equivariant subalgebra dim 2 of 2)"]


@pytest.mark.parametrize("builtin,h_dim,dim", [
    ("sl2-adjoint", 3, 3), ("heisenberg-ideal", 3, 3), ("scaling:1.0", 2, 2),
    ("scaling:2.0", 1, 2), ("scaling:1.0000000001", 2, 2),
    ("scaling:1.001", 1, 2)])
def test_strict_means_the_subalgebra_is_everything(builtin, h_dim, dim, capsys):
    assert main(["verify", "--builtin", builtin, "--format", "json"]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["h_dim"] == h_dim
    assert payload["strict"] is payload["triple"]["info"]["strict"] is \
        (h_dim == dim)


def test_an_overflowed_defect_has_no_equivariant_elements():
    # [a, b] = 1e200 b, a acting by 1e200 and theta(v) = 1e200 b keep the
    # derived bracket finite, but the defect is inf - inf, on which the SVD
    # does not converge: the report reads not strict instead of raising
    C = np.zeros((2, 2, 2))
    C[0, 1, 1], C[1, 0, 1] = 1e200, -1e200
    alg = lie_algebra(C)
    with np.errstate(over="ignore", invalid="ignore"):
        report = check_triple(alg, ModuleAction(alg, 1, [[[1e200]], [[0.0]]]),
                              EmbeddingTensor([[0.0], [1e200]]))
    assert not report.passed
    assert report.info["strict"] is False
