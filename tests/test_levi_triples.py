"""The paper's theorem on non-strict triples of every size it can reach.

g = V = gl(n) with the adjoint action, and theta the projection onto the
block-diagonal Levi subalgebra h = gl(p_1) + ... + gl(p_k) along the
off-block part m.  Since [h, m] lies in m, theta is h-equivariant and the
embedding condition theta(theta(u) . v) = [theta u, theta v] holds; for
k >= 2 the triple is not strict, its defect on m is not zero, and its
maximal strictness subalgebra is h, of dimension p_1^2 + ... + p_k^2.
The integration must pass on it, and a theta tilted off the projection
must fail the triple axioms.

The kernel-module family adds the natural module: V = gl(n) + R^n, with
gl(n) acting adjointly on the first summand and by matrices on the second,
and theta(x, w) = pi_h(x), so R^n lies in the kernel of theta.  The same
computation shows the same theorem for it; its module has dimension
n^2 + n, so it is the family whose transport rho is neither the adjoint
representation nor the size of the group's.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from leibrack import (EmbeddingTensor, ModuleAction, build_model, build_triple,
                      check_triple, run_integration_suites)
from test_stacked_recovery import gl_parts


@st.composite
def compositions(draw, top=4):
    """The block sizes (p_1, ..., p_k) of a composition of n <= top, k >= 2."""
    n = draw(st.integers(2, top))
    cuts = draw(st.sets(st.integers(1, n - 1), min_size=1))
    return tuple(np.diff([0, *sorted(cuts), n]).tolist())


def levi_projection(parts):
    """theta on gl(n) in the matrix-unit basis E_ij -> i n + j: E_ij is kept
    when i and j lie in the same block, and sent to zero otherwise."""
    block = np.repeat(np.arange(len(parts)), parts)
    return np.diag((block[:, None] == block[None, :]).ravel().astype(float))


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(parts=compositions(), seed=st.integers(0, 2 ** 16))
@example(parts=(1, 1), seed=0)
@example(parts=(1, 2), seed=0)
@example(parts=(2, 2), seed=0)
@example(parts=(1, 1, 1), seed=0)
@example(parts=(1, 3), seed=0)
@example(parts=(2, 1, 1), seed=0)
@example(parts=(1, 1, 1, 1), seed=0)
def test_levi_triples_integrate_and_a_tilted_theta_fails(parts, seed):
    gl, rep = gl_parts(sum(parts))
    alg, action, theta = gl.algebra, gl.action, levi_projection(parts)
    report = check_triple(alg, action, EmbeddingTensor(theta))
    assert report.passed and report.info["strict"] is False

    result = run_integration_suites(
        build_model(build_triple(alg, action, EmbeddingTensor(theta)), rep=rep),
        samples=50)
    assert result.h_dim == sum(p * p for p in parts)
    assert not result.strict
    assert result.passed
    assert all(law.info["samples_used"] > 0 for law in result.laws.values())

    tilt = np.random.default_rng(seed).standard_normal(theta.shape)
    tilt *= 1e-3 * np.linalg.norm(theta) / np.linalg.norm(tilt)
    assert not check_triple(alg, action, EmbeddingTensor(theta + tilt)).passed


def kernel_module_parts(parts):
    """gl(n) acting on V = gl(n) + R^n, adjointly and by matrices, with theta
    the Levi projection of ``parts`` on gl(n) and zero on R^n; the algebra,
    the action, theta and the natural representation."""
    n = sum(parts)
    gl, rep = gl_parts(n)
    A = np.zeros((n * n, n * n + n, n * n + n))
    A[:, :n * n, :n * n] = gl.action.action_matrices
    A[:, n * n:, n * n:] = rep.matrices
    theta = np.hstack([levi_projection(parts), np.zeros((n * n, n))])
    return gl.algebra, ModuleAction(gl.algebra, n * n + n, A), theta, rep


@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(parts=compositions(top=3), seed=st.integers(0, 2 ** 16))
@example(parts=(1, 1), seed=0)
@example(parts=(1, 2), seed=0)
@example(parts=(2, 1), seed=0)
@example(parts=(1, 1, 1), seed=0)
def test_kernel_module_triples_integrate_and_a_tilted_theta_fails(parts, seed):
    alg, action, theta, rep = kernel_module_parts(parts)
    report = check_triple(alg, action, EmbeddingTensor(theta))
    assert report.passed and report.info["strict"] is False

    model = build_model(build_triple(alg, action, EmbeddingTensor(theta)),
                        rep=rep)
    assert (model.rep.matrix_dim, model.transport.matrix_dim) == \
        (sum(parts), sum(parts) ** 2 + sum(parts))
    result = run_integration_suites(model, samples=50)
    assert result.h_dim == sum(p * p for p in parts)
    assert not result.strict
    assert result.passed
    assert all(law.info["samples_used"] > 0 for law in result.laws.values())

    tilt = np.random.default_rng(seed).standard_normal(theta.shape)
    tilt *= 1e-3 * np.linalg.norm(theta) / np.linalg.norm(tilt)
    assert not check_triple(alg, action, EmbeddingTensor(theta + tilt)).passed
