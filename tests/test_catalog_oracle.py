"""The catalog against hand-entered data: bracket entries, representation
matrices, the quaternion product rule, the even permutations of four points
and the scaling family's arrays, compared bit for bit (sign of zero too).
The permutation group builders are compared with a pair-by-pair oracle."""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest

from leibrack import FiniteGroup, StructuralError, catalog, random_triple, \
    scaling_crossed_module, scaling_triple

# name: (labels, [(i, j, k, C[i,j,k]), ...]); C[j,i,k] = -C[i,j,k]
BRACKETS = {
    "abelian3": (("e0", "e1", "e2"), []),
    "nonabelian2": (("a", "b"), [(0, 1, 1, 1.0)]),
    "heisenberg": (("x", "y", "z"), [(0, 1, 2, 1.0)]),
    "sl2": (("h", "e", "f"), [(0, 1, 1, 2.0), (0, 2, 2, -2.0), (1, 2, 0, 1.0)]),
    "ut3": (("d1", "d2", "d3", "u12", "u13", "u23"),
            [(0, 3, 3, 1.0), (0, 4, 4, 1.0), (1, 3, 3, -1.0), (1, 5, 5, 1.0),
             (2, 4, 4, -1.0), (2, 5, 5, -1.0), (3, 5, 4, 1.0)]),
}


def _units(m, cells):
    E = np.zeros((len(cells), m, m))
    for k, (r, c) in enumerate(cells):
        E[k, r, c] = 1.0
    return E


REPRESENTATIONS = {
    "abelian3": _units(3, [(0, 0), (1, 1), (2, 2)]),
    "nonabelian2": np.array([[[1.0, 0.0], [0.0, 0.0]],
                             [[0.0, 1.0], [0.0, 0.0]]]),
    "heisenberg": _units(3, [(0, 1), (1, 2), (0, 2)]),
    "sl2": np.array([[[1.0, 0.0], [0.0, -1.0]],
                     [[0.0, 1.0], [0.0, 0.0]],
                     [[0.0, 0.0], [1.0, 0.0]]]),
    "ut3": _units(3, [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]),
}

QUATERNION_PRODUCTS = {
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"),
    ("1", "k"): (1, "k"), ("i", "1"): (1, "i"), ("j", "1"): (1, "j"),
    ("k", "1"): (1, "k"), ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"),
    ("k", "k"): (-1, "1"), ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
    ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"), ("k", "i"): (1, "j"),
    ("i", "k"): (-1, "j"),
}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def oracle_constants(name):
    labels, entries = BRACKETS[name]
    n = len(labels)
    C = np.zeros((n, n, n))
    for i, j, k, value in entries:
        C[i, j, k] = value
        C[j, i, k] = -value
    return C


def test_algebras_and_representations_match_hand_data():
    assert sorted(catalog.ALGEBRA_BUILDERS) == sorted(BRACKETS)
    for name, (labels, _) in BRACKETS.items():
        for alg in (catalog.algebra_by_name(name), catalog.ALGEBRA_BUILDERS[name]()):
            assert alg.dim == len(labels) and alg.basis_labels == labels, name
            assert same_bits(alg.structure_constants, oracle_constants(name)), name
        assert same_bits(catalog.faithful_rep_matrices(name),
                         REPRESENTATIONS[name]), name
    named = {"nonabelian2": catalog.nonabelian2(), "heisenberg": catalog.heisenberg(),
             "sl2": catalog.sl2(), "abelian3": catalog.abelian(3)}
    for name, alg in named.items():
        assert alg.basis_labels == BRACKETS[name][0], name
        assert same_bits(alg.structure_constants, oracle_constants(name)), name


def test_quaternion_group_matches_the_product_rule():
    elems = [(s, u) for u in "1ijk" for s in (1, -1)]
    mul = np.empty((8, 8), dtype=np.int64)
    for i, (s1, u1) in enumerate(elems):
        for j, (s2, u2) in enumerate(elems):
            s3, u3 = QUATERNION_PRODUCTS[(u1, u2)]
            mul[i, j] = elems.index((s1 * s2 * s3, u3))
    q8 = catalog.quaternion8()
    assert same_bits(q8.mul_table, mul)
    assert same_bits(q8.inverse_table, [0, 1, 3, 2, 5, 4, 7, 6])


def test_alternating_group_matches_the_even_permutations():
    evens = [p for p in permutations(range(4))
             if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0]
    oracle = catalog.group_from_permutations(evens)
    a4 = catalog.alternating4()
    assert same_bits(a4.mul_table, oracle.mul_table)
    assert same_bits(a4.inverse_table, oracle.inverse_table)


def test_scaling_family_arrays_match_hand_data():
    C = oracle_constants("nonabelian2")
    for lam in (-1.0, 0.0, 0.5, 1.0, 2.0, -0.0):
        act = np.array([[[float(lam)]], [[0.0]]])
        tri = scaling_triple(lam)
        assert same_bits(tri.algebra.structure_constants, C)
        assert same_bits(tri.action.action_matrices, act)
        assert same_bits(tri.theta.matrix, [[0.0], [1.0]])
        cm = scaling_crossed_module(lam)
        assert same_bits(cm.m.structure_constants, np.zeros((1, 1, 1)))
        assert same_bits(cm.n.structure_constants, C)
        assert same_bits(cm.mu, [[0.0], [1.0]])
        assert same_bits(cm.eta.action_matrices, act)
        if lam == 1.0:
            assert cm.n_prime is None
        else:
            assert same_bits(cm.n_prime.vectors, [[0.0, 1.0]])
        for eps in (0.1, -0.0, 0.0):
            alg, action, theta = random_triple(
                0, "perturbed_invalid", lam=lam, eps=eps)
            assert same_bits(alg.structure_constants, C)
            assert same_bits(action.action_matrices, act)
            assert same_bits(theta.matrix, [[float(eps)], [1.0]])


def compose(p: tuple, q: tuple) -> tuple:
    """Composition of permutations acting on the left: (p q)(i) = p[q[i]]."""
    return tuple(p[i] for i in q)


def oracle_from_permutations(perms) -> FiniteGroup:
    """The group of a closed set of permutations, built pair by pair: the
    identity first, then the rest in lexicographic order."""
    elems = sorted(set(tuple(p) for p in perms))
    ident = tuple(range(len(elems[0])))
    if ident not in elems:
        raise StructuralError("permutation set lacks the identity")
    elems.remove(ident)
    elems.insert(0, ident)
    index = {p: i for i, p in enumerate(elems)}
    mul = np.empty((len(elems), len(elems)), dtype=np.int64)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            if compose(p, q) not in index:
                raise StructuralError("permutation set is not closed")
            mul[i, j] = index[compose(p, q)]
    return FiniteGroup(mul)


def oracle_from_generators(gens) -> FiniteGroup:
    """Close a generating set under composition, one frontier at a time."""
    gens = [tuple(g) for g in gens]
    seen = {tuple(range(len(gens[0])))}
    frontier = list(seen)
    while frontier:
        frontier = [q for q in {compose(g, p) for p in frontier for g in gens}
                    if q not in seen]
        seen.update(frontier)
    return oracle_from_permutations(seen)


def same_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    return same_bits(a.mul_table, b.mul_table) and \
        same_bits(a.inverse_table, b.inverse_table) and a.unit == b.unit


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetric_groups_match_the_pairwise_oracle(n):
    perms = list(permutations(range(n)))
    assert same_group(catalog.group_from_permutations(perms),
                      oracle_from_permutations(perms))
    assert same_group(catalog.group_from_permutations(reversed(perms)),
                      oracle_from_permutations(perms))


@pytest.mark.parametrize("name", sorted(catalog.group_catalog()))
def test_catalog_groups_match_the_pairwise_oracle(name):
    # the rows of a product table are the permutations x -> gx of the left
    # regular representation; two of them generate a subgroup
    group = catalog.group_catalog()[name]
    rows = [tuple(row) for row in group.mul_table.tolist()]
    gens = rows[1:3] or rows
    assert same_group(catalog.group_from_permutations(rows),
                      oracle_from_permutations(rows))
    assert same_group(catalog.group_from_generators(gens),
                      oracle_from_generators(gens))


@pytest.mark.parametrize("gens", [
    pytest.param([(1, 2, 0, 3), (0, 2, 3, 1)], id="a4"),
    pytest.param([(1, 2, 3, 0), (1, 0, 3, 2)], id="d4"),
    pytest.param([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], id="s5"),
    pytest.param([(1, 2, 3, 4, 5, 6, 0), (0, 2, 4, 6, 1, 3, 5)], id="frobenius21"),
])
def test_generated_groups_match_the_pairwise_oracle(gens):
    assert same_group(catalog.group_from_generators(gens),
                      oracle_from_generators(gens))


def test_catalog_permutation_groups_are_the_oracle_groups():
    assert same_group(catalog.alternating4(),
                      oracle_from_generators([(1, 2, 0, 3), (0, 2, 3, 1)]))
    assert same_group(catalog.dihedral4(),
                      oracle_from_generators([(1, 2, 3, 0), (1, 0, 3, 2)]))
    assert same_group(catalog.symmetric3(),
                      oracle_from_permutations(permutations(range(3))))


@pytest.mark.parametrize("perms,message", [
    pytest.param([(0, 1, 2), (1, 0, 2), (0, 2, 1)], "is not closed", id="not-closed"),
    pytest.param([(1, 0, 2), (0, 2, 1)], "lacks the identity", id="no-identity"),
])
def test_bad_permutation_sets_are_structural_errors(perms, message):
    for build in (catalog.group_from_permutations, oracle_from_permutations):
        with pytest.raises(StructuralError, match=f"^permutation set {message}$"):
            build(perms)


def test_a_non_permutation_is_a_structural_error():
    # the pairwise construction sorted (0, 0, 0) before the identity and
    # raised AxiomError for its missing inverse; a set of maps that are not
    # permutations is now refused as input
    with pytest.raises(StructuralError, match="holds a non-permutation"):
        catalog.group_from_permutations([(0, 0, 0), (0, 1, 2)])
    with pytest.raises(StructuralError, match="holds a non-permutation"):
        catalog.group_from_generators([(1, 1, 2)])
