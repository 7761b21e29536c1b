"""Named small Lie algebras, their ideals and faithful matrix representations,
and a collection of finite groups.  These anchor the random generators, the
command line builtins, and the test corpus.

Each named algebra is stated once, by the matrices of its basis in a faithful
representation; its structure constants are read off their commutators.
Group elements are dense indices with the unit at index 0; permutation groups
list the identity first and the remaining elements in lexicographic order, so
every table here is reproducible.
"""

from __future__ import annotations

from functools import partial
from itertools import permutations

import numpy as np

from .algebra import LieAlgebraData, SubspaceBasis, lie_algebra
from .errors import StructuralError
from .racks import FiniteGroup


# ---------------------------------------------------------------------------
# Lie algebras
# ---------------------------------------------------------------------------

def _units(m: int, *cells) -> np.ndarray:
    """Stack of the m x m matrix units E_rc at the given cells."""
    E = np.zeros((len(cells), m, m))
    for k, (r, c) in enumerate(cells):
        E[k, r, c] = 1.0
    return E


# name: (basis labels, faithful representation matrices of the basis)
_REPRESENTATIONS = {
    "abelian3": (("e0", "e1", "e2"), _units(3, (0, 0), (1, 1), (2, 2))),
    "nonabelian2": (("a", "b"), _units(2, (0, 0), (0, 1))),
    "heisenberg": (("x", "y", "z"), _units(3, (0, 1), (1, 2), (0, 2))),
    "sl2": (("h", "e", "f"), np.array([[[1.0, 0.0], [0.0, -1.0]],
                                       [[0.0, 1.0], [0.0, 0.0]],
                                       [[0.0, 0.0], [1.0, 0.0]]])),
    "ut3": (("d1", "d2", "d3", "u12", "u13", "u23"),
            _units(3, (0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))),
}


def algebra_by_name(name: str) -> LieAlgebraData:
    """A catalog algebra, its structure constants read off the commutators of
    its representation matrices.

    Each basis matrix R_k is the only nonzero one at some cell (r, c), so the
    k-th coordinate of a commutator is its entry there divided by R_k[r, c].
    """
    if name not in ALGEBRA_BUILDERS:
        raise StructuralError(f"unknown algebra {name!r}; "
                              f"known: {sorted(ALGEBRA_BUILDERS)}")
    labels, R = _REPRESENTATIONS[name]
    nonzero = R != 0
    only = nonzero & (nonzero.sum(axis=0) == 1)
    r, c = np.divmod(only.reshape(len(R), -1).argmax(axis=1), R.shape[1])
    P = R[:, None] @ R[None, :]
    C = (P - np.swapaxes(P, 0, 1))[:, :, r, c] / R[np.arange(len(R)), r, c]
    return LieAlgebraData(len(R), labels, C + 0.0)    # + 0.0 clears -0.0


ALGEBRA_BUILDERS = {name: partial(algebra_by_name, name)
                    for name in _REPRESENTATIONS}


def faithful_rep_matrices(name: str) -> np.ndarray:
    """A faithful matrix representation for each catalog algebra.

    For sl2 and nonabelian2 the adjoint representation already works; the
    natural low-dimensional ones returned here keep the group matrices small.
    """
    if name not in _REPRESENTATIONS:
        raise StructuralError(f"no faithful representation on file for {name!r}")
    return _REPRESENTATIONS[name][1].copy()


def abelian(n: int = 3) -> LieAlgebraData:
    """The abelian Lie algebra of dimension n."""
    return lie_algebra(np.zeros((n, n, n)))


def nonabelian2() -> LieAlgebraData:
    """The unique nonabelian two-dimensional algebra: [a, b] = b."""
    return algebra_by_name("nonabelian2")


def heisenberg() -> LieAlgebraData:
    """The three-dimensional Heisenberg algebra: [x, y] = z."""
    return algebra_by_name("heisenberg")


def sl2() -> LieAlgebraData:
    """sl(2) in the (h, e, f) basis: [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return algebra_by_name("sl2")


# Ideals are given by rows of coordinates; each was hand checked to satisfy
# [g, ideal] in ideal and is re-verified by the test suite.
IDEAL_VECTORS = {
    "abelian3": {
        "line": [[1.0, 0.0, 0.0]],
        "full": list(np.eye(3)),
    },
    "nonabelian2": {
        "span_b": [[0.0, 1.0]],
    },
    "heisenberg": {
        "center": [[0.0, 0.0, 1.0]],
        "plane": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    },
    "sl2": {
        "full": list(np.eye(3)),
    },
    "ut3": {
        "center": [[1.0, 1.0, 1.0, 0.0, 0.0, 0.0]],   # scalar matrices
        "strict_upper": [[0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
                         [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]],
    },
}

IDEAL_CHOICES = tuple(
    (name, ideal) for name in sorted(IDEAL_VECTORS) for ideal in sorted(IDEAL_VECTORS[name])
)


def ideal_subspace(name: str, ideal: str) -> SubspaceBasis:
    try:
        rows = IDEAL_VECTORS[name][ideal]
    except KeyError:
        raise StructuralError(f"unknown ideal {ideal!r} of {name!r}") from None
    alg = algebra_by_name(name)
    return SubspaceBasis(alg.dim, np.array(rows, dtype=float))


# ---------------------------------------------------------------------------
# Finite groups
# ---------------------------------------------------------------------------

def cyclic_group(n: int) -> FiniteGroup:
    """Z/n with addition, unit 0."""
    return FiniteGroup(np.add.outer(np.arange(n), np.arange(n)) % n)


def _keys(P: np.ndarray) -> np.ndarray:
    """Rows of P as byte strings, which sort as the rows do (entries >= 0)."""
    P = np.ascontiguousarray(P, dtype=">u8")
    return P.view(f"S{P.itemsize * P.shape[-1]}")[..., 0]


def _distinct(P: np.ndarray) -> np.ndarray:
    """The distinct rows of P in lexicographic order."""
    P = P[np.argsort(_keys(P))]
    keys = _keys(P)
    return P[np.r_[True, keys[1:] != keys[:-1]]]


def group_from_permutations(perms) -> FiniteGroup:
    """Finite group from a closed set of permutations: the rows of P, the
    identity first; the product of elements i and j is P[:, P][i, j]."""
    P = _distinct(np.asarray(list(perms)))
    if np.any(np.sort(P, axis=1) != np.arange(P.shape[1])):
        raise StructuralError("permutation set holds a non-permutation")
    if np.any(P[0] != np.arange(P.shape[1])):       # the least permutation
        raise StructuralError("permutation set lacks the identity")
    keys, products = _keys(P), _keys(P[:, P])
    mul = np.searchsorted(keys, products).clip(max=len(P) - 1)
    if np.any(keys[mul] != products):
        raise StructuralError("permutation set is not closed")
    return FiniteGroup(mul)


def group_from_generators(gens) -> FiniteGroup:
    """Close a generating set P of permutations under composition: the set G
    takes in its products G[:, P] until it stops growing."""
    P = np.asarray(list(gens))
    G = np.arange(P.shape[1])[None]
    while True:
        grown = _distinct(np.concatenate([G, G[:, P].reshape(-1, P.shape[1])]))
        if len(grown) == len(G):
            return group_from_permutations(G)
        G = grown


def symmetric3() -> FiniteGroup:
    return group_from_permutations(permutations(range(3)))


def alternating4() -> FiniteGroup:
    """The even permutations of four points, generated by two 3-cycles."""
    return group_from_generators([(1, 2, 0, 3), (0, 2, 3, 1)])


def dihedral4() -> FiniteGroup:
    """Symmetries of the square as permutations of its corners."""
    return group_from_generators([(1, 2, 3, 0), (1, 0, 3, 2)])   # rotate, flip


def quaternion8() -> FiniteGroup:
    """The quaternion group {1, -1, i, -i, j, -j, k, -k} in that order, as
    the left multiplications of the quaternions on the basis (1, i, j, k)."""
    i = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    j = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
    mats = np.stack([s * u for u in (np.eye(4, dtype=int), i, j, i @ j)
                     for s in (1, -1)])
    products = mats[:, None] @ mats[None, :]
    same = np.all(products[:, :, None] == mats, axis=(-2, -1))
    return FiniteGroup(np.argmax(same, axis=-1))


def group_catalog() -> dict:
    """All catalog groups keyed by name."""
    groups = {f"z{n}": cyclic_group(n) for n in range(1, 13)}
    groups["s3"] = symmetric3()
    groups["d4"] = dihedral4()
    groups["q8"] = quaternion8()
    groups["a4"] = alternating4()
    return groups
