"""Dense structure-constant Lie algebras, modules over them, Leibniz brackets.

Conventions
-----------
A Lie algebra of dimension n is stored as a float64 tensor C of shape
(n, n, n) with

    [e_i, e_j] = sum_k C[i, j, k] e_k.

A module action of the algebra on a d-dimensional space is a stack A of n
matrices of shape (d, d); the action of a general element x is
sum_i x_i A[i].  A Leibniz algebra is a bare bracket tensor of the same
layout as C with no antisymmetry requirement.

Every constructor of the package checks its values by the two rules stated
here, :func:`frozen_array` for arrays and tables and :func:`integer` for
sizes and indices, and raises StructuralError naming the argument at fault;
the defining identities are checked by the ``check_*`` functions, which
return a :class:`~leibrack.report.ValidityReport` instead of raising.  A
three-index law is one residual array over all its basis tuples.  A
four-index law (Jacobi, Leibniz, the module law) is a sum of matrix
products, evaluated in blocks of rows of its first index of at most _BLOCK
entries, so no whole table of it is ever alive.  The Leibniz identity is
scanned row by row (:func:`scan_rows`).  Jacobi is evaluated once per
cyclic orbit of its index tuple and the module law once per pair of
indices (:func:`scan_boxes`): a block's products serve every rotation or
order of its tuples, each summed in the order of its own tuple, so every
residual is the one the whole table holds.  A block's sums come as boxes
of the table, one at a time, each screened by its largest and smallest
residual and searched only when it fails.  Either way violations are
listed in row-major order at their global index: the orbit scans hand
their failing entries to :meth:`Collector.entries` by position, which
keeps the smallest positions.
The brackets of whole stacks of vectors come from :func:`brackets`, and
subspace membership from :meth:`SubspaceBasis.distance` on a stack.  All
residuals are absolute and compared against a configurable tolerance
(default 1e-9, adequate for the integer-derived catalog data and well above
float64 noise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .report import Collector, ValidityReport

DEFAULT_TOL = 1e-9
_BLOCK = 1 << 17        # float64 entries (1 MB) per block of rows or of a stack


def full_rank(M: np.ndarray, rank: int) -> tuple:
    """Whether M has rank ``rank``, and the ratio of its smallest to its
    largest singular value that decides it: the rank is full when the ratio
    exceeds max(M.shape) * eps.  The ratio is 0.0 when M is zero or has
    fewer than ``rank`` singular values (fewer rows or columns)."""
    s = np.linalg.svd(M, compute_uv=False)
    ratio = float(s[-1] / s[0]) if s.size == rank and s[0] > 0 else 0.0
    return ratio > max(M.shape) * np.finfo(float).eps, ratio


def _holds_bool(value) -> bool:
    """Whether ``value`` is a boolean or a list or tuple holding one at any
    depth; a list's entries are read by type, and only nested lists recurse."""
    if type(value) not in (list, tuple):
        return type(value) in (bool, np.bool_)
    kinds = set(map(type, value))
    if kinds & {bool, np.bool_}:
        return True
    return bool(kinds & {list, tuple}) and any(map(_holds_bool, value))


def _depth(value) -> int:
    """How many lists or tuples deep ``value`` nests."""
    return 1 + max(map(_depth, value), default=0) if type(value) in (list, tuple) else 0


def frozen_array(values, shape=None, what="array", bound=None) -> np.ndarray:
    """``values`` as a read-only copy: finite float64 numbers, or with
    ``bound`` int64 integers in [0, bound).  A ``None`` entry of ``shape``
    accepts any length; an empty input fits a shape with one such entry, as
    length 0.  Strings, objects and booleans are not numbers, also inside a
    list that NumPy would read as numbers."""
    try:
        if _holds_bool(values):
            raise StructuralError(f"{what}: entries must be numbers")
        arr = np.asarray(values)
    except RecursionError:
        raise StructuralError(f"{what}: lists nested too deep") from None
    except ValueError:      # ragged rows, or more than NumPy's 64 dimensions
        fault = "lists nested too deep" if _depth(values) > 64 else \
            "rows must have equal lengths"
        raise StructuralError(f"{what}: {fault}") from None
    if arr.dtype.kind not in "iuf":
        raise StructuralError(f"{what}: entries must be numbers")
    if shape is not None:
        if arr.size == 0 and shape.count(None) == 1:
            arr = arr.reshape([s or 0 for s in shape])
        if arr.ndim != len(shape) or any(s not in (None, a)
                                         for s, a in zip(shape, arr.shape)):
            raise StructuralError(
                f"{what}: expected shape {tuple(shape)}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise StructuralError(f"{what}: entries must be finite")
    if bound is not None and arr.size and (arr.min() < 0 or arr.max() >= bound):
        raise StructuralError(f"{what}: entries must lie in [0, {bound})")
    out = arr.astype(float if bound is None else np.int64)
    if bound is not None and not np.array_equal(out, arr):  # a fraction cast to int
        raise StructuralError(f"{what}: entries must be integers")
    out.flags.writeable = False
    return out


def integer(value, what: str, low: int = 1, high: int | None = None) -> int:
    """``value`` as an int: a Python or NumPy integer, never a boolean, in
    [low, high), or at least ``low`` when ``high`` is None."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise StructuralError(f"{what} must be an integer, got {type(value).__name__}")
    if value < low or (high is not None and value >= high):
        raise StructuralError(f"{what} out of range: {value} is not in "
                              f"[{low}, {'inf' if high is None else high})")
    return int(value)


def set_frozen(obj, **fields):
    """Store validated ``fields`` on a frozen dataclass instance."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)


def same_algebra(a: LieAlgebraData, b: LieAlgebraData, what: str):
    """StructuralError unless ``a`` and ``b`` are one algebra: the same object
    or the same structure constants."""
    if a is not b and not np.array_equal(a.structure_constants, b.structure_constants):
        raise StructuralError(f"{what} is over a different algebra")


@dataclass(frozen=True, eq=False)
class LieAlgebraData:
    """A finite-dimensional Lie algebra in a fixed basis."""

    dim: int
    basis_labels: tuple
    structure_constants: np.ndarray

    def __post_init__(self):
        n = integer(self.dim, "dim")
        labels = self.basis_labels
        labels = tuple(map(str, labels)) if np.iterable(labels) else ()
        if len(labels) != n:
            raise StructuralError(f"need {n} basis labels, got {len(labels)}")
        C = frozen_array(self.structure_constants, (n, n, n), "structure constants")
        set_frozen(self, dim=n, basis_labels=labels, structure_constants=C)

    def ad(self, x) -> np.ndarray:
        """Matrix of y -> [x, y] in the chosen basis."""
        return np.einsum("i,ijk->kj", np.asarray(x, float), self.structure_constants)

    def adjoint_action(self) -> "ModuleAction":
        """The algebra acting on itself by ad."""
        return ModuleAction(self, self.dim,
                            np.swapaxes(self.structure_constants, 1, 2))


def lie_algebra(structure_constants, labels=None) -> LieAlgebraData:
    """Build a LieAlgebraData from a raw tensor, defaulting labels to e0.. ."""
    C = frozen_array(structure_constants, (None,) * 3, "structure constants")
    n = C.shape[0]
    if labels is None:
        labels = tuple(f"e{i}" for i in range(n))
    return LieAlgebraData(n, labels, C)


@dataclass(frozen=True, eq=False)
class ModuleAction:
    """A linear action of a Lie algebra on a d-dimensional space."""

    algebra: LieAlgebraData
    dim_v: int
    action_matrices: np.ndarray

    def __post_init__(self):
        d = integer(self.dim_v, "dim_v")
        set_frozen(self, dim_v=d, action_matrices=frozen_array(
            self.action_matrices, (self.algebra.dim, d, d), "action matrices"))


@dataclass(frozen=True, eq=False)
class LeibnizAlgebraData:
    """A (left) Leibniz algebra given by a bare bracket tensor."""

    dim: int
    bracket_tensor: np.ndarray

    def __post_init__(self):
        d = integer(self.dim, "dim")
        set_frozen(self, dim=d, bracket_tensor=frozen_array(
            self.bracket_tensor, (d, d, d), "bracket tensor"))


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """A subspace of R^ambient_dim spanned by linearly independent rows.

    The zero subspace is allowed (an empty row list).  Linear independence is
    enforced at construction via the singular values of the row stack.
    """

    ambient_dim: int
    vectors: np.ndarray

    def __post_init__(self):
        n = integer(self.ambient_dim, "ambient_dim")
        V = frozen_array(self.vectors, (None, n), "subspace vectors")
        if V.shape[0] and not full_rank(V, V.shape[0])[0]:
            raise StructuralError("subspace vectors are linearly dependent")
        set_frozen(self, ambient_dim=n, vectors=V)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def distance(self, vecs):
        """Euclidean distance to the subspace (least squares): a float for
        one vector, an array of shape ``vecs.shape[:-1]`` for a stack."""
        v = np.asarray(vecs, dtype=float)
        if v.ndim == 0 or v.shape[-1] != self.ambient_dim:
            raise StructuralError(f"expected vector of length {self.ambient_dim}")
        cols = v.reshape(-1, self.ambient_dim).T
        if self.dim and cols.size:
            coeff, *_ = np.linalg.lstsq(self.vectors.T, cols, rcond=None)
            cols = self.vectors.T @ coeff - cols
        dist = np.linalg.norm(cols, axis=0).reshape(v.shape[:-1])
        return float(dist) if v.ndim == 1 else dist


def rows_per_block(row_size: int) -> int:
    """Rows of ``row_size`` entries in one block: _BLOCK entries, at least one."""
    return max(1, _BLOCK // row_size)


def scan_rows(col: Collector, law: str, rows: int, row_size: int, block):
    """Scan the residual table of ``law`` into ``col`` a block of first-index
    rows at a time: ``block(s)`` is the table's rows ``s``, each of
    ``row_size`` entries.  A block holds at most _BLOCK entries and at least
    one row, and is dropped once its violations are listed."""
    k = rows_per_block(row_size)
    for a in range(0, rows, k):
        res = np.abs(block(slice(a, a + k)))
        col.tables((law, res > col.tol, res), start=a)


def scan_boxes(col: Collector, law: str, shape: tuple, boxes):
    """Scan the residual table of ``law``, of ``shape``, into ``col`` from
    ``boxes``: pairs ``(corner, residuals)``, the table's entries from the
    index tuple ``corner`` on, which hold each entry of the table once.  A
    box is screened by the largest and smallest of its residuals, a NaN
    sticking, and searched for failing entries only when its largest
    absolute residual exceeds the tolerance or is NaN."""
    def failing():
        for corner, res in boxes:
            top = max(np.max(res, initial=0.0), -np.min(res, initial=0.0))
            col.fold(float(top))
            if top <= col.tol:
                continue
            res = np.abs(res)
            at = np.nonzero(res > col.tol)
            yield (np.ravel_multi_index([i + c for i, c in zip(at, corner)], shape),
                   res[at])

    col.entries(law, shape, failing())


def workspace():
    """``at(p, *shape)``: an array of ``shape`` in slot p, new on the slot's
    first call and a view of that array after it, so the first call asks
    for the most.  A scan's blocks shrink, so its first block's arrays hold
    every later block's, and their pages are touched once per scan and not
    once per block."""
    slots = {}

    def at(p, *shape):
        size = math.prod(shape)
        if p not in slots:
            slots[p] = np.empty(size)
        return slots[p][:size].reshape(shape)
    return at


def jacobi_boxes(C: np.ndarray):
    """The Jacobi residuals [[i, j], k] + [[j, k], i] + [[k, i], j] of the
    bracket C, as boxes of their (d, d, d, d) table, three for each block of
    first-index rows i; a box lives until the next is drawn.  A block forms
    the three products T(i, j, k) = [[i, j], k], T(j, k, i) and T(k, i, j)
    for its rows i and all j, k from its first row on, and sums each
    rotation of a tuple from them: the rows after the block at the first
    index, then those with the first two indices after it, then its own
    rows.  So each tuple comes from the block of its smallest index, and the
    three rotations from one set of products, each sum in the order of its
    own tuple.  Cyclic invariance holds for any bilinear bracket; C need not
    be antisymmetric."""
    d = len(C)
    step = rows_per_block(d ** 3)
    at = workspace()
    for start in range(0, d, step):
        stop = min(start + step, d)
        k, m = stop - start, d - start
        right = C[:, start:].reshape(d, m * d)
        ijk = np.matmul(C[start:stop, start:].reshape(k * m, d), right,
                        out=at(0, k * m, m * d)).reshape(k, m, m, d)
        jki = np.matmul(C[start:, start:], C[:, start:stop].reshape(d, k * d),
                        out=at(1, m, m, k * d)).reshape(m, m, k, d).transpose(2, 0, 1, 3)
        kij = np.matmul(C[start:, start:stop].reshape(m * k, d), right,
                        out=at(2, m * k, m * d)).reshape(m, k, m, d).transpose(1, 2, 0, 3)
        if stop < d:
            third = np.add(kij[:, :, k:], ijk[:, :, k:], out=at(3, k, m, m - k, d))
            third += jki[:, :, k:]
            yield (stop, start, start, 0), third.transpose(2, 0, 1, 3)     # (k, i, j)
            second = np.add(jki[:, k:, k:], kij[:, k:, k:], out=at(3, k, m - k, m - k, d))
            second += ijk[:, k:, k:]
            yield (stop, stop, start, 0), second.transpose(1, 2, 0, 3)     # (j, k, i)
        first = ijk
        first += jki
        first += kij
        yield (start, start, start, 0), first                            # (i, j, k)


def check_lie_algebra(alg: LieAlgebraData, tol: float = DEFAULT_TOL) -> ValidityReport:
    """Antisymmetry and the Jacobi identity, checked on all basis tuples."""
    C, d = alg.structure_constants, alg.dim
    col = Collector(tol)
    col.scan("antisymmetry", C + np.swapaxes(C, 0, 1))
    scan_boxes(col, "jacobi", (d,) * 4, jacobi_boxes(C))
    return col.report()


def homomorphism_boxes(C: np.ndarray, A: np.ndarray):
    """The residuals sum_k C[i,j,k] A_k - (A_i A_j - A_j A_i) of the module
    law, as boxes of their (n, n, m, m) table, two for each block of rows i:
    row i from column ``start`` on, then column i below the block; a box
    lives until the next is drawn.  Each pair's commutator is formed once,
    for the block of its smaller index, and serves both orders:
    x - y = -(y - x) exactly."""
    n, m = len(A), A.shape[1]
    flat = A.reshape(n, m * m)
    step = rows_per_block(A.size)
    at = workspace()
    for start in range(0, n, step):
        stop = min(start + step, n)
        k, rows = stop - start, A[start:stop, None]
        comm = np.matmul(rows, A[None, start:], out=at(0, k, n - start, m, m))
        row = at(1, *comm.shape)            # A_j A_i until it takes the sums
        np.copyto(row[:, :k], comm[:, :k].swapaxes(0, 1))
        np.matmul(A[None, stop:], rows, out=row[:, k:])
        comm -= row
        np.matmul(C[start:stop, start:].reshape(-1, n), flat, out=row.reshape(-1, m * m))
        row -= comm
        yield (start, start, 0, 0), row
        if stop < n:
            column = at(1, n - stop, k, m, m)
            np.matmul(C[stop:, start:stop].reshape(-1, n), flat,
                      out=column.reshape(-1, m * m))
            column += comm[:, k:].swapaxes(0, 1)
            yield (stop, start, 0, 0), column


def derivation_residuals(B: np.ndarray, D: np.ndarray, rows: slice) -> np.ndarray:
    """D [a, b] - ([D a, b] + [a, D b]) over all basis pairs (a, b), for each
    matrix D of the stack ``D[rows]``, where [a, b] = B[a, b, :]."""
    d, Dk = len(B), D[rows]
    k, left = len(Dk), Dk.transpose(0, 2, 1).reshape(-1, d)
    image = B.reshape(d * d, d) @ Dk.transpose(2, 0, 1).reshape(d, k * d)
    first = (left @ B.reshape(d, d * d)).reshape(k, d, d, d)
    second = (left @ B.transpose(1, 0, 2).reshape(d, d * d)).reshape(k, d, d, d)
    return image.reshape(d, d, k, d).transpose(2, 0, 1, 3) - (
        first + second.transpose(0, 2, 1, 3))


def check_module(action: ModuleAction, tol: float = DEFAULT_TOL) -> ValidityReport:
    """A is a homomorphism: sum_k C[i,j,k] A_k = A_i A_j - A_j A_i."""
    C, A = action.algebra.structure_constants, action.action_matrices
    col = Collector(tol)
    scan_boxes(col, "module-homomorphism", C.shape[:2] + A.shape[1:],
               homomorphism_boxes(C, A))
    return col.report()


def check_leibniz(leib: LeibnizAlgebraData, tol: float = DEFAULT_TOL) -> ValidityReport:
    """Left Leibniz identity [u,[v,w]] = [[u,v],w] + [v,[u,w]] on basis triples.

    Antisymmetry is *not* required; the report notes in ``info`` whether the
    bracket happens to be antisymmetric (i.e. is a Lie bracket).
    """
    B, d = leib.bracket_tensor, leib.dim
    col = Collector(tol)
    # the identity says that each [u, -], the matrix B[u].T, is a derivation
    scan_rows(col, "leibniz-identity", d, d ** 3,
              lambda s: derivation_residuals(B, B.transpose(0, 2, 1), s))
    anti = float(np.max(np.abs(B + B.swapaxes(0, 1)))) if B.size else 0.0
    return col.report({"antisymmetric": bool(anti <= tol),
                       "antisymmetry_residual": anti})


def brackets(C: np.ndarray, X, Y) -> np.ndarray:
    """[x, y] for every row x of X and row y of Y, shape (len X, len Y, n)."""
    return np.einsum("pi,qj,ijk->pqk", X, Y, C, optimize=True)


def bracket_map_residuals(B: np.ndarray, C: np.ndarray, f) -> np.ndarray:
    """f([x, y]_B) - [f x, f y]_C over all basis pairs (x, y) of the source,
    for a linear map f stored as a (target dim, source dim) matrix."""
    return np.einsum("ijm,am->ija", B, f) - brackets(C, f.T, f.T)


def bracket_closure_check(alg: LieAlgebraData, sub: SubspaceBasis,
                          tol: float = DEFAULT_TOL) -> bool:
    """True when every distance of [sub, sub] to sub is at most ``tol``."""
    if sub.ambient_dim != alg.dim:
        raise StructuralError("subspace lives in a different ambient space")
    W = sub.vectors
    return bool(np.all(sub.distance(brackets(alg.structure_constants, W, W)) <= tol))
