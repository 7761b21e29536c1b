"""Local Lie group computations in exponential coordinates.

A group element is a coordinate vector xi with ||xi|| < CHART_RADIUS together
with the matrix exp(sum_i xi_i R_i) of a faithful representation.
Products are computed honestly: multiply the matrices, take the principal
logarithm, and recover coordinates by least squares against the stacked
representation basis; a product that leaves the chart or the representation
span raises ChartError instead of returning garbage.

The logarithm uses inverse scaling and squaring: Denman-Beavers square roots
until ||M - I||_F < 0.25, then the alternating series for log(I + X), then
multiply back by 2^k.  Matrices outside the principal-log domain fail the
square-root phase within the iteration cap.

The finite-difference engine lives here too: central differences (O(h^2)
truncation) and a Richardson-extrapolated variant (O(h^4) truncation, eight
evaluations for mixed derivatives).  With float64, central first derivatives
at h = 1e-4 carry roughly 1e-8 total error; the Richardson scheme prefers a
larger step (around 1e-3..1e-2) so rounding noise eps/h^2 stays small.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import DEFAULT_TOL, LieAlgebraData, ModuleAction, SubspaceBasis, \
    full_rank, homomorphism_residuals
from .errors import AxiomError, CapabilityError, ChartError, MembershipError, \
    StructuralError
from .report import Collector, ValidityReport

CHART_RADIUS = 0.5
_SERIES_THRESHOLD = 0.25
_MAX_SQUARE_ROOTS = 40
_SQRT_TOL = 1e-15
_SQRT_MAX_ITER = 64


@dataclass(frozen=True, eq=False)
class GroupElement:
    """Exponential-chart coordinates with the cached representation matrix."""

    coords: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        c = np.array(self.coords, dtype=float)
        m = np.array(self.matrix, dtype=float)
        if c.ndim != 1 or m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StructuralError("bad group element shapes")
        c.flags.writeable = False
        m.flags.writeable = False
        object.__setattr__(self, "coords", c)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class MatrixRep:
    """A stack of representation matrices for the basis of a Lie algebra."""

    algebra: LieAlgebraData
    matrices: np.ndarray
    basis_stack: np.ndarray = field(init=False, repr=False)
    _pinv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.algebra.dim
        M = np.array(self.matrices, dtype=float)
        if M.ndim != 3 or M.shape[0] != n or M.shape[1] != M.shape[2]:
            raise StructuralError(
                f"need {n} square matrices, got shape {M.shape}")
        M.flags.writeable = False
        stack = M.reshape(n, -1).T          # (m*m, n), columns are basis mats
        stack.flags.writeable = False
        object.__setattr__(self, "matrices", M)
        object.__setattr__(self, "basis_stack", stack)
        object.__setattr__(self, "_pinv", np.linalg.pinv(stack))

    @property
    def matrix_dim(self) -> int:
        return self.matrices.shape[1]

    def algebra_matrix(self, coords) -> np.ndarray:
        """The represented algebra element sum_i coords_i R_i."""
        return np.einsum("i,iab->ab", np.asarray(coords, float), self.matrices)

    def coords_of(self, mat, tol: float) -> np.ndarray:
        """Least-squares preimage of a matrix; ChartError when the projection
        residual exceeds tol * max(1, ||mat||), i.e. the matrix left the span."""
        vec = np.asarray(mat, float).ravel()
        coords = self._pinv @ vec
        residual = float(np.linalg.norm(self.basis_stack @ coords - vec))
        if residual > tol * max(1.0, float(np.linalg.norm(vec))):
            raise ChartError(
                f"matrix left the representation span (residual {residual:.3e})")
        return coords

    def element(self, coords) -> GroupElement:
        """exp of an algebra element; ChartError outside the chart ball."""
        c = np.asarray(coords, dtype=float)
        if c.shape != (self.algebra.dim,):
            raise StructuralError(
                f"expected {self.algebra.dim} coordinates, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise StructuralError("coordinates must be finite")
        if np.linalg.norm(c) >= CHART_RADIUS:
            raise ChartError(
                f"coordinates of norm {np.linalg.norm(c):.3f} are outside the "
                f"chart ball of radius {CHART_RADIUS}")
        return GroupElement(c, expm(self.algebra_matrix(c)))

    def identity(self) -> GroupElement:
        return GroupElement(np.zeros(self.algebra.dim),
                            np.eye(self.matrix_dim))


def check_rep(rep: MatrixRep, tol: float = DEFAULT_TOL) -> ValidityReport:
    """Representation homomorphism law plus faithfulness (full-rank stack)."""
    col = Collector(tol)
    col.scan("representation-homomorphism", homomorphism_residuals(
        rep.algebra.structure_constants, rep.matrices))
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


def working_rep(rep: MatrixRep, action: ModuleAction) -> MatrixRep:
    """Block-diagonal sum of a faithful representation with a module action.

    The bottom-right block of the represented group element is the module
    transport used by the local action; faithfulness is inherited from the
    top-left block.
    """
    if action.algebra.dim != rep.algebra.dim:
        raise StructuralError("representation and action algebras differ")
    n, m, d = rep.algebra.dim, rep.matrix_dim, action.dim_v
    big = np.zeros((n, m + d, m + d))
    big[:, :m, :m] = rep.matrices
    big[:, m:, m:] = action.action_matrices
    return MatrixRep(rep.algebra, big)


# ---------------------------------------------------------------------------
# Matrix exponential and logarithm
# ---------------------------------------------------------------------------

def expm(A) -> np.ndarray:
    """scipy's matrix exponential, imported on the first call (never in verify)."""
    from scipy.linalg import expm as scipy_expm
    return scipy_expm(A)


def _sqrt_denman_beavers(A: np.ndarray) -> np.ndarray:
    """Principal matrix square root by the Denman-Beavers iteration."""
    Y = A.copy()
    Z = np.eye(A.shape[0])
    for _ in range(_SQRT_MAX_ITER):
        try:
            Yi = np.linalg.inv(Y)
            Zi = np.linalg.inv(Z)
        except np.linalg.LinAlgError as exc:
            raise ChartError("square-root iteration hit a singular iterate; "
                             "matrix is outside the principal-log domain") from exc
        Yn = 0.5 * (Y + Zi)
        Zn = 0.5 * (Z + Yi)
        delta = np.linalg.norm(Yn - Y, "fro")
        Y, Z = Yn, Zn
        if not np.all(np.isfinite(Y)):
            raise ChartError("square-root iteration diverged")
        if delta <= _SQRT_TOL * max(1.0, np.linalg.norm(Y, "fro")):
            return Y
    raise ChartError("square-root iteration did not converge")


def log_matrix(M) -> np.ndarray:
    """Principal logarithm by inverse scaling and squaring.

    Square-roots the input until it is within Frobenius distance 0.25 of the
    identity, runs the alternating series for log(I + X), and scales back.
    Raises ChartError for inputs outside the principal-log domain (such as
    matrices with eigenvalues on the closed negative real axis), where the
    square roots stop contracting toward the identity.
    """
    A = np.array(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise StructuralError("logarithm needs a square matrix")
    if not np.all(np.isfinite(A)):
        raise StructuralError("logarithm needs finite entries")
    I = np.eye(A.shape[0])
    roots = 0
    while np.linalg.norm(A - I, "fro") >= _SERIES_THRESHOLD:
        if roots >= _MAX_SQUARE_ROOTS:
            raise ChartError("matrix stayed far from the identity after "
                             f"{_MAX_SQUARE_ROOTS} square roots")
        A = _sqrt_denman_beavers(A)
        roots += 1
    X = A - I
    term = X.copy()
    total = X.copy()
    # ||X|| < 0.25 gives at least a factor-4 decay per term
    for p in range(2, 64):
        term = term @ X
        total += ((-1.0) ** (p - 1) / p) * term
        if np.linalg.norm(term, "fro") / p <= 1e-17 * max(1.0, np.linalg.norm(total, "fro")):
            break
    return float(2 ** roots) * total


# ---------------------------------------------------------------------------
# Group operations
# ---------------------------------------------------------------------------

def group_mul(g1: GroupElement, g2: GroupElement, rep: MatrixRep) -> GroupElement:
    """Product in the chart: multiply matrices, log, recover coordinates."""
    M = g1.matrix @ g2.matrix
    coords = rep.coords_of(log_matrix(M), DEFAULT_TOL)
    if np.linalg.norm(coords) >= CHART_RADIUS:
        raise ChartError("product left the coordinate chart")
    return GroupElement(coords, M)


def group_inverse(g: GroupElement, rep: MatrixRep) -> GroupElement:
    """Inversion is coordinate negation in the exponential chart."""
    return GroupElement(-g.coords, expm(rep.algebra_matrix(-g.coords)))


def adjoint(g: GroupElement, xi, rep: MatrixRep) -> np.ndarray:
    """Adjoint action of g on an algebra vector, via exp(ad of log g).

    The result is cross-checked against the independent route through the
    representation: conjugate the represented xi by the group matrix and
    pull back by least squares.  Disagreement raises AxiomError since it
    means the two routes diverged.
    """
    xi = np.asarray(xi, dtype=float)
    out = expm(rep.algebra.ad(g.coords)) @ xi
    gap = float(np.max(np.abs(out - adjoint_via_rep(g, xi, rep))))
    if gap > DEFAULT_TOL * max(1.0, float(np.linalg.norm(out))):
        raise AxiomError("adjoint-route-agreement", gap)
    return out


def adjoint_via_rep(g: GroupElement, xi, rep: MatrixRep) -> np.ndarray:
    """Adjoint action computed by matrix conjugation in the representation."""
    R = rep.algebra_matrix(np.asarray(xi, float))
    return rep.coords_of(g.matrix @ R @ np.linalg.inv(g.matrix), 1e-8)


def chart_section(g: GroupElement,
                  subspace: SubspaceBasis | None = None) -> np.ndarray:
    """Read off chart coordinates, optionally checking subspace membership.

    In exponential coordinates the section of the chart over a subalgebra is
    the identity on coordinates; the content is the membership check.
    """
    if subspace is not None:
        r = subspace.distance(g.coords)
        if r > DEFAULT_TOL * max(1.0, float(np.linalg.norm(g.coords))):
            raise MembershipError(
                f"coordinates are {r:.3e} away from the section subspace")
    return np.array(g.coords)


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiffConfig:
    """Step size and scheme for numerical derivatives."""

    step: float = 1e-4
    scheme: str = "central"

    def __post_init__(self):
        if not (self.step > 0):
            raise StructuralError("step must be positive")
        if self.scheme not in ("central", "richardson"):
            raise StructuralError("scheme must be 'central' or 'richardson'")


def derivative_at_identity(curve, cfg: DiffConfig = DiffConfig()) -> np.ndarray:
    """d/dt curve(t) at t = 0.

    central:    (f(h) - f(-h)) / 2h, truncation O(h^2)
    richardson: (-f(2h) + 8 f(h) - 8 f(-h) + f(-2h)) / 12h, truncation O(h^4)
    """
    h = cfg.step
    f = lambda t: np.asarray(curve(t), dtype=float)
    if cfg.scheme == "richardson":
        return (-f(2 * h) + 8.0 * f(h) - 8.0 * f(-h) + f(-2 * h)) / (12.0 * h)
    return (f(h) - f(-h)) / (2.0 * h)


def mixed_second_derivative(surface, cfg: DiffConfig = DiffConfig()) -> np.ndarray:
    """d^2/dt1 dt2 surface(t1, t2) at the origin.

    The central stencil uses four evaluations with O(h^2) truncation; the
    Richardson variant combines two stencil widths (eight evaluations) for
    O(h^4).  Rounding error grows like eps / h^2, so very small steps hurt.
    """
    f = lambda a, b: np.asarray(surface(a, b), dtype=float)

    def cross(h):
        return (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4.0 * h * h)

    if cfg.scheme == "richardson":
        return (4.0 * cross(cfg.step) - cross(2.0 * cfg.step)) / 3.0
    return cross(cfg.step)
