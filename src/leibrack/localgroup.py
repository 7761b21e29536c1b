"""Local Lie group computations in exponential coordinates.

A group element is a coordinate vector xi with ||xi|| < CHART_RADIUS together
with the matrix exp(sum_i xi_i R_i) of a faithful representation.
Products (``chart_products``) are computed honestly: multiply the matrices,
take the principal logarithm, and recover coordinates by least squares
against the stacked representation basis; a product that leaves the chart or
the representation span is flagged instead of returning garbage.  A
module's action matrices as a ``MatrixRep`` exponentiate to its transport.

``log_matrix``, ``MatrixRep.coords_of``, ``MatrixRep.element`` and
``chart_products`` take stacks only, (k, m, m) or (k, n), and return per
slice a FAILURE record: a reason (0 for none) and the size its message
quotes.  ``FAILURES`` maps each reason to its exception and message; the
single-input edge (``GroupElement.exp``) is a stack of one and one
``raise_failure``.  The inverse is the element of the negated coordinates.

The logarithm uses inverse scaling and squaring: Denman-Beavers square roots
until ||M - I||_F < 0.25, then the alternating series for log(I + X), then
multiply back by 2^k; each slice of a stack stops when it converges.
Matrices outside the principal-log domain fail the square-root phase within
the iteration cap.  The exponential is a truncated Taylor polynomial with
scaling and squaring, in matrix products only (Higham, SIAM J. Matrix Anal.
Appl. 26(4), 2005; Bader, Blanes & Casas, Mathematics 7(12):1174, 2019): each
slice takes the lowest degree whose 1-norm threshold, set by a relative
backward error of 2^-53, bounds its 1-norm, and slices of one degree run as
one stack; ``expm`` gives its accuracy against scipy and its cost.

The finite-difference engine lives here too: central differences (O(h^2)
truncation) and a Richardson-extrapolated variant (O(h^4) truncation, eight
evaluations for mixed derivatives), each evaluating all its offsets in one
call.  They are pure formulas: they return the derivative alone, and a
caller whose values can fail keeps its own failure records.  With float64,
central first derivatives at h = 1e-4 carry roughly 1e-8 total error; the
Richardson scheme prefers a larger step (around 1e-3..1e-2) so rounding
noise eps/h^2 stays small.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import factorial, isqrt

import numpy as np

from .algebra import DEFAULT_TOL, LieAlgebraData, frozen_array, full_rank, \
    homomorphism_residuals, scan_rows, set_frozen
from .errors import CapabilityError, ChartError, DomainError, MembershipError, \
    StructuralError
from .report import Collector, ValidityReport

CHART_RADIUS = 0.5
SCHEMES = ("central", "richardson")
_SERIES_THRESHOLD = 0.25
_MAX_SQUARE_ROOTS = 40
_SQRT_TOL = 1e-15
_SQRT_MAX_ITER = 64

# why a slice failed, by reason (0: none): name, exception, message (its size, radius)
FAILURES = (None, ("log-singular", ChartError, "square-root iteration hit a singular "
                   "iterate; matrix is outside the principal-log domain"),
            ("log-diverged", ChartError, "square-root iteration diverged"),
            ("log-stalled", ChartError, "square-root iteration did not converge"),
            ("log-far", ChartError, "matrix stayed far from the identity after "
             f"{_MAX_SQUARE_ROOTS} square roots"),
            ("chart-ball", ChartError, "coordinates of norm {size:.3e} are "
             f"outside the chart ball of radius {CHART_RADIUS}"),
            ("span", ChartError,
             "matrix left the representation span (residual {size:.3e})"),
            ("product-chart", ChartError, "product left the coordinate chart"),
            ("model-radius", MembershipError,
             "theta(v) has norm {size:.3e}, outside the model radius {radius}"),
            ("moved-point", DomainError,
             "the moved point left the model neighbourhood"))
(SINGULAR, DIVERGED, STALLED, FAR, CHART_BALL, SPAN, PRODUCT_CHART,
 MODEL_RADIUS, MOVED) = range(1, len(FAILURES))
FAILURE = np.dtype([("reason", np.int8), ("size", float)])


def failures(reason, failed, size=0.0) -> np.ndarray:
    """FAILURE records of a stack: ``reason`` and ``size`` where ``failed``."""
    why = np.empty(len(failed), FAILURE)
    why["reason"], why["size"] = np.where(failed, reason, 0), size
    return why


def first_failure(*whys) -> np.ndarray:
    """Per slice, the first failure among stacks of FAILURE records."""
    first = whys[0].copy()
    for why in whys[1:]:
        np.copyto(first, why, where=first["reason"] == 0)
    return first


def raise_failure(why, radius=None):
    """Raise the exception of one FAILURE record, if it failed."""
    if why["reason"]:
        _, error, message = FAILURES[why["reason"]]
        raise error(message.format(size=why["size"], radius=radius))


@dataclass(frozen=True, eq=False)
class GroupElement:
    """Exponential-chart coordinates with the cached representation matrix."""

    coords: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        m = frozen_array(self.matrix, (None, None), "group element matrix")
        if m.shape[0] != m.shape[1]:
            raise StructuralError("group element matrix must be square")
        set_frozen(self, coords=frozen_array(self.coords, (None,), "coords"), matrix=m)

    @classmethod
    def exp(cls, rep: MatrixRep, coords) -> GroupElement:
        """exp of one coordinate vector; ChartError outside the chart ball."""
        mats, why = rep.element([coords])
        raise_failure(why[0])
        return cls(coords, mats[0])


@dataclass(frozen=True, eq=False)
class MatrixRep:
    """A stack of representation matrices for the basis of a Lie algebra."""

    algebra: LieAlgebraData
    matrices: np.ndarray
    basis_stack: np.ndarray = field(init=False, repr=False)  # basis mats as columns

    def __post_init__(self):
        n = self.algebra.dim
        M = frozen_array(self.matrices, (n, None, None), "representation matrices")
        if M.shape[1] != M.shape[2]:
            raise StructuralError(f"need {n} square matrices, got shape {M.shape}")
        set_frozen(self, matrices=M, basis_stack=M.reshape(n, -1).T)

    @property
    def matrix_dim(self) -> int:
        return self.matrices.shape[1]

    @cached_property
    def _pinv(self) -> np.ndarray:      # for coords_of; a transport never needs it
        return np.linalg.pinv(self.basis_stack)

    def coords_of(self, mats, tol: float):
        """Least-squares preimages of a stack (k, m, m): the coordinates and
        SPAN failures, with the residual where it exceeds tol * max(1, ||mat||)."""
        m = self.matrix_dim
        vec = frozen_array(mats, (None, m, m), "matrices").reshape(-1, m * m)
        coords = np.matvec(self._pinv, vec)
        residual = norms(np.matvec(self.basis_stack, coords) - vec)
        return coords, failures(
            SPAN, residual > tol * np.maximum(1.0, norms(vec)), residual)

    def element(self, coords):
        """exp(sum_i c_i R_i) of each row c of a stack (k, n) of coordinates:
        the matrices, the identity outside the chart ball, and CHART_BALL
        failures with the norm."""
        c = frozen_array(coords, (None, self.algebra.dim), "coordinates")
        size = norms(c)
        out = size >= CHART_RADIUS
        return (expm(np.einsum("...i,iab->...ab", np.where(out[:, None], 0.0, c),
                               self.matrices)), failures(CHART_BALL, out, size))


def check_rep(rep: MatrixRep, tol: float = DEFAULT_TOL) -> ValidityReport:
    """Representation homomorphism law plus faithfulness (full-rank stack)."""
    C, A = rep.algebra.structure_constants, rep.matrices
    col = Collector(tol)
    scan_rows(col, "representation-homomorphism", len(A), A.size,
              lambda s: homomorphism_residuals(C, A, s))
    faithful, ratio = full_rank(rep.basis_stack, rep.algebra.dim)
    if not faithful:
        col.add("faithful")
    return col.report({"matrix_dim": rep.matrix_dim,
                       "smallest_singular_ratio": ratio})


def adjoint_rep(algebra: LieAlgebraData) -> MatrixRep:
    """The adjoint representation; CapabilityError when it is not faithful
    (nontrivial center), in which case a representation must be supplied."""
    mats = np.stack([algebra.ad(e) for e in np.eye(algebra.dim)])
    if not full_rank(mats.reshape(algebra.dim, -1), algebra.dim)[0]:
        raise CapabilityError(
            "adjoint representation is not faithful (the algebra has a "
            "nontrivial center); supply a faithful matrix representation")
    return MatrixRep(algebra, mats)


# ---------------------------------------------------------------------------
# Matrix exponential and logarithm
# ---------------------------------------------------------------------------

def _taylor_terms(m: int) -> np.ndarray:
    """Coefficients of the degree-m Taylor polynomial of exp in
    Paterson-Stockmeyer form, p = isqrt(m) (which divides every degree
    used): row i holds 1/(ip + j)! for the powers X^j, j < p, and the last
    row also 1/m! for X^p."""
    p = isqrt(m)
    terms = np.zeros((m // p, p + 1))
    terms[:, :p] = [[1 / factorial(i * p + j) for j in range(p)]
                    for i in range(m // p)]
    terms[-1, p] = 1 / factorial(m)
    return terms


# the degrees at which the product count rises by one, from 0 products at
# degree 1 to 7 at degree 20, and the largest 1-norm at which each meets the
# truncation bound of ``expm``
_DEGREES = (1, 2, 4, 6, 9, 12, 16, 20)
_THETAS = np.array([2.22e-16, 2.58e-8, 3.39e-4, 9.06e-3, 8.95e-2, 2.99e-1,
                    7.80e-1, 1.43])
_TERMS = tuple(_taylor_terms(m) for m in _DEGREES)


def _taylor(X: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """sum_{j <= m} X^j / j! of each matrix of a stack (k, n, n), ``terms``
    the degree-m coefficients, by Paterson-Stockmeyer: the powers up to X^p,
    and Horner's rule in X^p over m / p blocks, each block one product of a
    row of ``terms`` with the powers; m / p + p - 2 matrix products in all."""
    (k, n, _), p = X.shape, terms.shape[1] - 1
    P = np.empty((k, p + 1, n, n))
    P[:, 0], P[:, 1] = np.eye(n), X
    for j in range(2, p + 1):
        np.matmul(P[:, j - 1], X, out=P[:, j])
    powers = P.reshape(k, p + 1, n * n)
    # T, its product with X^p and the next block reuse three buffers: on
    # large stacks fresh temporaries cost more in page faults than in products
    T, TX, block = terms[-1] @ powers, np.empty((k, n * n)), np.empty((k, n * n))
    for row in terms[-2::-1]:
        np.matmul(T.reshape(k, n, n), P[:, p], out=TX.reshape(k, n, n))
        np.matmul(row, powers, out=block)
        np.add(TX, block, out=T)
    return T.reshape(k, n, n)


def expm(A) -> np.ndarray:
    """exp of one real matrix or of each of a stack (k, m, m), by a Taylor
    polynomial with scaling and squaring: matrix products only.

    Each slice takes the lowest degree of ``_DEGREES`` (1, 2, 4, 6, 9, 12, 16,
    20; 0 to 7 products by Paterson-Stockmeyer) whose threshold bounds its
    1-norm.  The threshold of degree m is the largest 1-norm theta at which
    the truncation is a relative backward error of at most u = 2^-53:
    T_m(X) = exp(X + dX) with ||dX|| <= u ||X||, which squaring keeps
    (tests/test_expm.py derives the thresholds from this bound).  Above
    theta_20 = 1.43 a slice is scaled by 2^-s into it and squared s times.
    Each degree is one ``_taylor`` call on its slices, and every slice gets
    the same bits alone as in any stack.  A slice with a non-finite entry
    comes out NaN, and is never scaled or squared.

    Against scipy's expm the relative 1-norm difference stays below 2^-35 on
    1x1 to 30x30 matrices of 1-norm up to 60, mostly scipy's own error; on
    the exponentials of the benchmark's integrate workloads it is at most
    2.2e-16 absolute.  Per slice, on one BLAS thread of a 2-vCPU VM: 2.5 us
    on the law suites' stacks of 3x3 to 6x6 matrices (scipy 16 us), 13 us on
    the recovery's 25x25 transports of gl(5) (scipy 43 us), but 61 us for a
    single 6x6 matrix (scipy 20 us), about a dozen NumPy calls whatever the
    stack size.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim == 2:
        return expm(A[None])[0]
    size = np.abs(A).sum(axis=1).max(axis=1, initial=0.0)      # 1-norms
    finite = np.isfinite(size)
    level = np.minimum(np.searchsorted(_THETAS, size), len(_THETAS) - 1)
    squarings = np.zeros(len(A), dtype=int)
    over = finite & (size > _THETAS[-1])
    squarings[over] = np.ceil(np.log2(size[over] / _THETAS[-1]))
    levels = set(level.tolist())
    if len(levels) <= 1 and finite.all() and not over.any():
        # one degree, nothing to scale: the stack as it is, without the
        # gather, scaling and scatter below (most calls of the integrate
        # workloads; 10-26 % of their exponential time, CHANGES.md)
        return _taylor(A, _TERMS[max(levels, default=0)])
    out = np.full(A.shape, np.nan)
    for j in set(level[finite].tolist()):
        # most squarings first, so the slices still squaring are a prefix
        at = np.flatnonzero(finite & (level == j))
        at = at[np.argsort(-squarings[at], kind="stable")]
        s = squarings[at]
        E = _taylor(A[at] * 0.5 ** s[:, None, None], _TERMS[j])
        for i in range(s[0]):
            live = np.count_nonzero(s > i)
            E[:live] = E[:live] @ E[:live]
        out[at] = E
    return out


def norms(X, matrices: bool = False):
    """2-norms of the vectors of a stack, or Frobenius norms of its matrices,
    each the root of one dot product: bit for bit ``np.linalg.norm``."""
    if matrices:
        X = X.reshape(X.shape[:-2] + (X.shape[-2] * X.shape[-1],))
    return np.sqrt(np.vecdot(X, X))


def _inverses(Y: np.ndarray):
    """Inverse of each matrix of a stack and the mask of singular ones, left
    as they are; ``np.linalg.inv`` raises for a whole stack, so halve it."""
    try:
        return np.linalg.inv(Y), np.zeros(len(Y), dtype=bool)
    except np.linalg.LinAlgError:
        if len(Y) == 1:
            return Y, np.ones(1, dtype=bool)
        halves = _inverses(Y[:len(Y) // 2]), _inverses(Y[len(Y) // 2:])
        return tuple(np.concatenate(part) for part in zip(*halves))


def _sqrt_denman_beavers(A: np.ndarray):
    """Principal square roots of a stack by the Denman-Beavers iteration, each
    slice until it converges; the roots and a failure reason per slice."""
    roots, code = A.copy(), np.full(len(A), STALLED)
    live, Y, Z = np.arange(len(A)), A, np.broadcast_to(np.eye(A.shape[1]), A.shape)
    for _ in range(_SQRT_MAX_ITER):
        (Yi, sy), (Zi, sz) = _inverses(Y), _inverses(Z)
        Yn, Z = 0.5 * (Y + Zi), 0.5 * (Z + Yi)
        delta, Y = norms(Yn - Y, matrices=True), Yn
        scale = np.maximum(1.0, norms(Y, matrices=True))
        # each slice's code after this step; -1 while it still iterates
        now = np.select([sy | sz, ~np.isfinite(Y).all(axis=(1, 2)),
                         delta <= _SQRT_TOL * scale], [SINGULAR, DIVERGED, 0], -1)
        stop = now >= 0
        if stop.any():
            code[live[stop]], roots[live[stop]] = now[stop], Y[stop]
            live, Y, Z = live[~stop], Y[~stop], Z[~stop]
            if not live.size:
                break
    return roots, code


def log_matrix(M):
    """Principal logarithm by inverse scaling and squaring, of each matrix
    of a stack (k, m, m).

    Square-roots the input until it is within Frobenius distance 0.25 of the
    identity, runs the alternating series for log(I + X), and scales back.
    Outside the principal-log domain (such as eigenvalues on the closed
    negative real axis) the square roots stop contracting toward the
    identity: such a slice keeps the log 0 and fails with a log reason.
    """
    S = frozen_array(M, (None, None, None), "logarithm matrices")
    m = S.shape[1]
    if S.shape[2] != m:
        raise StructuralError(f"logarithm matrices: not square, shape {S.shape}")
    S.flags.writeable = True            # the value rule's copy is our own
    roots, code = np.zeros(len(S), dtype=int), np.zeros(len(S), dtype=int)
    X = S.copy()
    X.reshape(len(S), m * m)[:, ::m + 1] -= 1.0     # S - I, bit for bit
    far = (norms(X, matrices=True) >= _SERIES_THRESHOLD).nonzero()[0]
    scaled = far.size > 0
    while far.size:
        code[far[roots[far] >= _MAX_SQUARE_ROOTS]] = FAR
        far = far[code[far] == 0]
        S[far], code[far] = _sqrt_denman_beavers(S[far])
        roots[far] += 1
        X[far] = S[far] - np.eye(m)
        X[code > 0] = 0.0                   # a failed slice keeps the log 0
        far = far[(code[far] == 0) &
                  (norms(X[far], matrices=True) >= _SERIES_THRESHOLD)]
    # ||X|| < 0.25 bounds every partial sum by -log(0.75) < 1 and gives at
    # least a factor-4 decay per term, so a term stops the series once it is
    # below 1e-17 in absolute size
    live, term, total = np.arange(len(S)), X, X.copy()
    logs = total
    for p in range(2, 64):
        term = term @ X
        total += ((-1.0) ** (p - 1) / p) * term
        size = norms(term, matrices=True).tolist()
        if max(size, default=0.0) / p <= 1e-17:
            break
        if min(size) / p <= 1e-17:
            done = np.array(size) / p <= 1e-17
            logs[live[done]] = total[done]
            live, X, term, total = live[~done], X[~done], term[~done], total[~done]
    if total is not logs:
        logs[live] = total
    if scaled:
        logs *= (2.0 ** roots)[:, None, None]
    return logs, failures(code, code > 0)


# ---------------------------------------------------------------------------
# Group operations
# ---------------------------------------------------------------------------

def chart_products(A, B, rep: MatrixRep):
    """Products of two stacks of group matrices in the chart: the products,
    their coordinates, and the first failure of log, span and chart ball."""
    M = A @ B
    L, failed = log_matrix(M)
    coords, off = rep.coords_of(L, DEFAULT_TOL)
    return M, coords, first_failure(
        failed, off, failures(PRODUCT_CHART, norms(coords) >= CHART_RADIUS))


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiffConfig:
    """Step size and scheme for numerical derivatives."""

    step: float = 1e-4
    scheme: str = "central"

    def __post_init__(self):
        step = float(frozen_array(self.step, (), "step"))
        if not step > 0:
            raise StructuralError("step must be positive")
        set_frozen(self, step=step)
        if not isinstance(self.scheme, str) or self.scheme not in SCHEMES:
            raise StructuralError("scheme must be 'central' or 'richardson'")


def derivative_at_identity(curve, cfg: DiffConfig = DiffConfig()):
    """d/dt curve(t) at t = 0, from one call of ``curve`` on the array of
    stencil offsets, which gives the values, offsets first.

    central:    (f(h) - f(-h)) / 2h, truncation O(h^2)
    richardson: (-f(2h) + 8 f(h) - 8 f(-h) + f(-2h)) / 12h, truncation O(h^4)
    """
    h, rich = cfg.step, cfg.scheme == "richardson"
    f = curve(h * np.array([2.0, 1.0, -1.0, -2.0] if rich else [1.0, -1.0]))
    if rich:
        return (-f[0] + 8.0 * f[1] - 8.0 * f[2] + f[3]) / (12.0 * h)
    return (f[0] - f[1]) / (2.0 * h)


def mixed_second_derivative(surface, cfg: DiffConfig = DiffConfig()):
    """d^2/dt1 dt2 surface(t1, t2) at the origin, from one call of
    ``surface`` on the arrays of offsets, as :func:`derivative_at_identity`.

    The central stencil uses four evaluations with O(h^2) truncation; the
    Richardson variant combines two stencil widths (eight evaluations) for
    O(h^4).  Rounding error grows like eps / h^2, so very small steps hurt.
    """
    hs = [cfg.step, 2.0 * cfg.step][:1 + (cfg.scheme == "richardson")]
    f = surface(np.outer(hs, [1.0, 1.0, -1.0, -1.0]).ravel(),
                np.outer(hs, [1.0, -1.0, 1.0, -1.0]).ravel())
    cross = [(f[i] - f[i + 1] - f[i + 2] + f[i + 3]) / (4.0 * h * h)
             for i, h in zip((0, 4), hs)]
    if len(hs) == 2:
        return (4.0 * cross[0] - cross[1]) / 3.0
    return cross[0]
