"""The stacked Taylor exponential against scipy, the truncation bound its
degree thresholds come from, and its slice-by-slice contract.

Degree m covers the 1-norms up to theta_m, the largest theta at which

    -log(1 - rho_m(theta)) <= u theta,    u = 2^-53,

where rho_m(x) sums |c_k| x^k over the coefficients c_k of
1 - exp(-x) T_m(x), T_m the degree-m Taylor polynomial.  Then for
||X||_1 <= theta_m, T_m(X) = exp(X + dX) with ||dX||_1 <= u ||X||_1, and
squaring keeps that relative backward error: T_m(2^-s A)^(2^s) = exp(A + E)
with ||E||_1 <= u ||A||_1.

Against scipy the property allows a relative 1-norm difference of RTOL,
about ten times the largest seen in 6,000 random draws of the property's
inputs (2.8e-12, a 3x3 matrix of 1-norm 41).  That difference is mostly
scipy's own error: on 2x2 and 3x3 matrices of 1-norm 5 to 60, scipy 1.17 was
up to 4.9e4 u from an mpmath reference, the Taylor exponential at most 160 u.
Where the exact exponential is known (diagonal matrices, whose powers stay
diagonal, and 1x1 ones), the relative bound is EXACT_RTOL * (1 + s) for s
squarings, against np.exp; the largest seen was 24 u * (1 + s).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt, log1p

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from leibrack.localgroup import _DEGREES, _TERMS, _THETAS, expm

U = 2.0 ** -53
RTOL = 2.0 ** -35
EXACT_RTOL = 64 * U
KINDS = ("dense", "triangular", "nilpotent", "zero", "diagonal")


def truncation_threshold(m: int, terms: int = 200) -> float:
    """The largest theta meeting the bound of the module docstring at
    degree m, by bisection on [0, 10]; rho_m summed over its first ``terms``
    terms (|c_k| <= 2^k / k!, so at theta <= 10 the rest is below 1e-100)."""
    coeffs = [(k, abs(float(sum(Fraction((-1) ** (k - j), factorial(j) * factorial(k - j))
                                for j in range(m + 1)))))
              for k in range(m + 1, m + terms)]
    lo, hi = 0.0, 10.0
    for _ in range(100):
        mid = (lo + hi) / 2
        rho = sum(c * mid ** k for k, c in coeffs)
        lo, hi = (mid, hi) if rho < 1 and -log1p(-rho) <= U * mid else (lo, mid)
    return lo


def test_degree_thresholds_follow_from_the_truncation_bound():
    # each threshold is the derived one rounded down to three digits
    for m, theta in zip(_DEGREES, _THETAS):
        bound = truncation_threshold(m)
        assert 0.99 * bound <= theta <= bound, (m, theta, bound)
    assert np.array_equal(_THETAS, sorted(_THETAS))


def test_each_degree_costs_one_product_more_and_sums_every_term_once():
    for cost, (m, terms) in enumerate(zip(_DEGREES, _TERMS)):
        p = isqrt(m)
        assert m % p == 0 and p + m // p - 2 == cost
        coeffs = np.zeros(m + 1)
        for i, row in enumerate(terms):
            coeffs[i * p:i * p + p + 1] += row
        assert np.array_equal(coeffs, [1 / factorial(j) for j in range(m + 1)])


def sample(kind: str, n: int, norm: float, seed: int) -> np.ndarray:
    """An n x n matrix of the kind, scaled to 1-norm ``norm``."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n))
    if kind == "triangular":        # non-normal: the diagonal is small
        X = np.triu(X) - 0.9 * np.diag(np.diag(X))
    elif kind == "nilpotent":
        X = np.triu(X, 1)
    elif kind == "diagonal":
        X = np.diag(np.diag(X))
    size = np.abs(X).sum(axis=0).max(initial=0.0)
    return X * (norm / size) if kind != "zero" and size > 0 else 0.0 * X


def one_norm(X) -> float:
    return np.abs(X).sum(axis=0).max(initial=0.0)


def exact_tol(X) -> float:
    """EXACT_RTOL * (1 + s), s the squarings of X."""
    return EXACT_RTOL * (1 + np.ceil(np.log2(max(1.0, one_norm(X) / _THETAS[-1]))))


NORMS = st.one_of(st.just(0.0), st.floats(0.0, 60.0),
                  st.floats(-20.0, np.log(60.0)).map(np.exp))
SLICE = st.tuples(st.sampled_from(KINDS), NORMS, st.integers(0, 2 ** 32 - 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 30), slices=st.lists(SLICE, min_size=1, max_size=5),
       bad=st.sampled_from([None, np.nan, np.inf, -np.inf]), at=st.integers(0, 5))
def test_expm_matches_scipy_and_each_slice_alone(n, slices, bad, at):
    A = np.stack([sample(kind, n, norm, seed) for kind, norm, seed in slices])
    if bad is not None:             # a non-finite slice among finite ones
        at = min(at, len(A))
        A = np.insert(A, at, 0.0, axis=0)
        A[at, n // 2, (n - 1) // 2] = bad
    with np.errstate(invalid="raise", over="raise"):   # no cast of a NaN exponent
        E = expm(A)
    assert E.shape == A.shape
    for i, X in enumerate(A):
        if bad is not None and i == at:
            assert np.isnan(E[i]).all()
            continue
        assert np.array_equal(E[i], expm(X)) and np.array_equal(E[i], expm(X[None])[0])
        S = scipy.linalg.expm(X)
        assert one_norm(E[i] - S) <= RTOL * one_norm(S)
        if not np.count_nonzero(X - np.diag(np.diag(X))):
            D = np.diag(np.exp(np.diag(X)))
            assert one_norm(E[i] - D) <= exact_tol(X) * one_norm(D)


@pytest.mark.parametrize("m", [0, 1, 6, 30])
def test_empty_stack_keeps_its_shape(m):
    assert expm(np.zeros((0, m, m))).shape == (0, m, m)


def test_scalars_match_the_exponential_across_the_degrees():
    # one 1x1 slice at and just below each threshold, and ones that square
    x = np.concatenate([_THETAS, np.nextafter(_THETAS, 0), [3.0, 40.0, -40.0, 0.0]])
    E = expm(x[:, None, None])[:, 0, 0]
    for got, want, at in zip(E, np.exp(x), x):
        assert abs(got - want) <= exact_tol(np.array([[at]])) * want
