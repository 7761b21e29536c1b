"""Finite racks, groups, and their triples against exhaustive loop oracles."""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest

from leibrack import (AxiomError, FiniteGroup, FiniteRack, GroupCrossedModule,
                      GroupRackTriple, StructuralError,
                      augmented_rack_from_crossed_module, check_group,
                      check_group_crossed_module, check_group_rack_triple,
                      check_rack, check_rack_triple_morphism,
                      conjugation_crossed_module, conjugation_rack,
                      conjugation_triple)
from leibrack import catalog, racks
from leibrack.examples import (inclusion_crossed_module_z3_s3,
                               relaxed_crossed_module_z3_s3)
from leibrack.report import MAX_LISTED_VIOLATIONS
from test_blocked_laws import traced_peak


def self_distributivity_failures_by_loops(T: np.ndarray) -> list:
    """Independent oracle: check x > (y > z) == (x > y) > (x > z) by loops."""
    n = T.shape[0]
    bad = []
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if T[x, T[y, z]] != T[T[x, y], T[x, z]]:
                    bad.append((x, y, z))
    return bad


def group_law_failures_by_loops(M: np.ndarray) -> list:
    n = M.shape[0]
    return [(a, b, c) for a in range(n) for b in range(n) for c in range(n)
            if M[M[a, b], c] != M[a, M[b, c]]]


@pytest.mark.parametrize("name", sorted(catalog.group_catalog()))
def test_catalog_groups_satisfy_group_axioms(name):
    group = catalog.group_catalog()[name]
    report = check_group(group)
    assert report.passed
    assert report.max_residual == 0.0
    assert group_law_failures_by_loops(group.mul_table) == []


@pytest.mark.parametrize("name", ["s3", "d4", "q8", "a4"])
def test_conjugation_rack_is_a_rack(name):
    group = catalog.group_catalog()[name]
    rack = conjugation_rack(group)
    report = check_rack(rack)
    assert report.passed
    assert self_distributivity_failures_by_loops(rack.op_table) == []
    assert rack.basepoint == group.unit


def test_s3_structure():
    s3 = catalog.symmetric3()
    assert s3.size == 6
    evens = {g for g in range(6) if _sign_of(s3, g) == 0}
    assert evens == {0, 3, 4}                  # identity plus two rotations
    for t in (1, 2, 5):                        # transpositions are involutions
        assert s3.mul_table[t, t] == s3.unit
    for r in (3, 4):
        assert s3.mul_table[r, s3.mul_table[r, r]] == s3.unit


def _sign_of(s3: FiniteGroup, g: int) -> int:
    """Parity via the permutation action on cosets, computed from scratch."""
    # reconstruct the permutation of {0,1,2} from the regular representation
    # by tracking how g conjugates the three transpositions {1, 2, 5}
    trans = [1, 2, 5]
    perm = [trans.index(s3.conj(g, t)) for t in trans]
    inversions = sum(1 for i in range(3) for j in range(i + 1, 3)
                     if perm[i] > perm[j])
    return inversions % 2


def test_rack_violation_is_named_and_real():
    s3 = catalog.symmetric3()
    T = np.array(conjugation_rack(s3).op_table)
    T[1, 2] = 3 if T[1, 2] != 3 else 4
    report = check_rack(FiniteRack(6, T, basepoint=0))
    assert not report.passed
    found = [v for v in report.violations if v.law == "self-distributivity"]
    oracle = self_distributivity_failures_by_loops(T)
    assert oracle
    for v in found:
        assert v.where in oracle
        assert v.residual == 1.0


def test_rack_bijectivity_violation():
    T = np.zeros((3, 3), dtype=int)        # constant rows are not bijections
    report = check_rack(FiniteRack(3, T))
    assert not report.passed
    assert any(v.law == "left-translation-bijective" for v in report.violations)


def test_group_missing_inverse_rejected():
    # min(i + j, 2) is associative with unit 0 but element 2 has no inverse
    M = np.minimum(np.add.outer(np.arange(3), np.arange(3)), 2)
    with pytest.raises(AxiomError) as err:
        FiniteGroup(M)
    assert "group-inverse-law" in str(err.value)


def test_group_unit_out_of_range_is_a_structural_error():
    # checked before the inverses are looked for, which would find none
    M = np.array(catalog.symmetric3().mul_table)
    for unit in (6, 7, -1):
        with pytest.raises(StructuralError, match="unit out of range"):
            FiniteGroup(M, unit)


def test_group_associativity_violation_named():
    # a changed unit entry loses an inverse pair: 5 is its own inverse in S3
    M = np.array(catalog.symmetric3().mul_table)
    M[5, 5] = 1 if M[5, 5] != 1 else 2
    with pytest.raises(AxiomError, match="group-inverse-law"):
        FiniteGroup(M)
    # two swapped entries of one row keep every inverse pair, but the table
    # is no Latin square, so associativity fails
    M = np.array(catalog.symmetric3().mul_table)
    assert 0 not in M[1, [2, 3]]
    M[1, [2, 3]] = M[1, [3, 2]]
    group = FiniteGroup(M)
    assert np.array_equal(group.inverse_table,
                          catalog.symmetric3().inverse_table)
    report = check_group(group)
    assert not report.passed
    oracle = group_law_failures_by_loops(M)
    bad = [v.where for v in report.violations if v.law == "associativity"]
    assert bad and set(bad) <= set(oracle)


@pytest.mark.parametrize("name", ["z4", "s3", "d4", "q8", "a4"])
def test_conjugation_triple_passes_and_is_strict(name):
    group = catalog.group_catalog()[name]
    triple = conjugation_triple(group)
    report = check_group_rack_triple(triple)
    assert report.passed
    assert report.max_residual == 0.0
    assert report.info["strict"] is True
    assert report.info["equivariant_elements"] == list(range(group.size))


def test_derived_rack_of_conjugation_triple_is_conjugation():
    s3 = catalog.symmetric3()
    triple = conjugation_triple(s3)
    assert np.array_equal(triple.action_table[triple.theta_table],
                          conjugation_rack(s3).op_table)


def test_embedding_conjugation_violation_named_and_real():
    s3 = catalog.symmetric3()
    triple = conjugation_triple(s3)
    theta = np.array(triple.theta_table)
    theta[2] = 3                              # no longer the identity map
    broken = GroupRackTriple(s3, 6, triple.action_table, theta, basepoint=0)
    report = check_group_rack_triple(broken)
    assert not report.passed
    named = [v for v in report.violations if v.law == "embedding-conjugation"]
    assert named
    M, inv, act = s3.mul_table, s3.inverse_table, broken.action_table
    for v in named:
        x, y = v.where
        lhs = theta[act[theta[x], y]]
        rhs = M[M[theta[x], theta[y]], inv[theta[x]]]
        assert lhs != rhs                     # the named witness really fails


def group_defect(triple: GroupRackTriple, g: int) -> list:
    """Independent oracle: the per-point defect (g theta(x) g^-1)
    theta(g.x)^-1 as group indices, by loops; constantly the unit exactly
    when g acts equivariantly."""
    G, th, act = triple.group, triple.theta_table, triple.action_table
    return [G.mul_table[G.conj(g, th[x]), G.inverse_table[th[act[g, x]]]]
            for x in range(triple.x_size)]


def test_group_defect_and_strict_elements_for_relaxed_triple():
    cm = relaxed_crossed_module_z3_s3()
    triple = augmented_rack_from_crossed_module(cm)
    report = check_group_rack_triple(triple)
    assert report.passed
    assert report.info["strict"] is False
    assert report.info["equivariant_elements"] == [0, 3, 4]
    s3 = cm.n
    for g in range(s3.size):                  # rotations act trivially here
        defect = group_defect(triple, g)
        assert (set(defect) == {s3.unit}) == (g in (0, 3, 4)), g


def test_conjugation_crossed_module_q8():
    q8 = catalog.group_catalog()["q8"]
    report = check_group_crossed_module(conjugation_crossed_module(q8))
    assert report.passed
    assert report.info["equivariance_failures_unrestricted"] == []


def test_inclusion_crossed_module_z3_s3():
    cm = inclusion_crossed_module_z3_s3()
    report = check_group_crossed_module(cm)
    assert report.passed
    assert report.info["equivariance_failures_unrestricted"] == []
    triple = augmented_rack_from_crossed_module(cm)
    assert check_group_rack_triple(triple).passed


def test_relaxed_crossed_module_unrestricted_failures_are_transpositions():
    cm = relaxed_crossed_module_z3_s3()
    report = check_group_crossed_module(cm)
    assert report.passed                       # valid under the restriction
    failures = report.info["equivariance_failures_unrestricted"]
    offenders = sorted({g for g, _ in failures})
    assert offenders == [1, 2, 5]              # exactly the transpositions
    # and each recorded pair genuinely violates mu(g.m) = g mu(m) g^(-1)
    s3, mu = cm.n, cm.mu
    for g, m in failures:
        assert mu[cm.eta[g, m]] != s3.conj(g, mu[m])


def test_broken_crossed_module_rejected():
    cm = relaxed_crossed_module_z3_s3()
    mu = np.array(cm.mu)
    mu[1] = 1                                  # 1 -> transposition: not a hom
    broken = GroupCrossedModule(cm.m, cm.n, mu, cm.eta, n_prime=cm.n_prime)
    report = check_group_crossed_module(broken)
    assert not report.passed
    assert any(v.law == "boundary-homomorphism" for v in report.violations)
    with pytest.raises(AxiomError):
        augmented_rack_from_crossed_module(broken)


def test_restriction_must_contain_boundary_image():
    cm = relaxed_crossed_module_z3_s3()
    shrunk = GroupCrossedModule(cm.m, cm.n, cm.mu, cm.eta, n_prime=(0,))
    report = check_group_crossed_module(shrunk)
    assert not report.passed
    assert any(v.law == "restriction-contains-image"
               for v in report.violations)


def test_rack_triple_morphism_from_group_homomorphism():
    z3 = catalog.group_catalog()["z3"]
    s3 = catalog.symmetric3()
    phi = np.array([0, 3, 4])                  # the inclusion Z3 -> A3 < S3
    source = conjugation_triple(z3)
    target = conjugation_triple(s3)
    report = check_rack_triple_morphism(source, target, phi, phi)
    assert report.passed
    assert report.max_residual == 0.0


def test_rack_triple_morphism_sign_map():
    s3 = catalog.symmetric3()
    z2 = catalog.group_catalog()["z2"]
    sign = np.array([_sign_of(s3, g) for g in range(6)])
    report = check_rack_triple_morphism(conjugation_triple(s3),
                                        conjugation_triple(z2), sign, sign)
    assert report.passed


def test_rack_triple_morphism_failure_named():
    s3 = catalog.symmetric3()
    triple = conjugation_triple(s3)
    phi = np.arange(6)
    psi = np.array([0, 1, 2, 4, 3, 5])         # swaps the two rotations
    report = check_rack_triple_morphism(triple, triple, phi, psi)
    assert not report.passed
    laws = {v.law for v in report.violations}
    assert "embedding-intertwined" in laws


def test_non_homomorphism_phi_is_a_structural_error():
    s3 = catalog.symmetric3()
    triple = conjugation_triple(s3)
    phi = np.array([0, 1, 2, 4, 3, 5])         # not a group homomorphism
    with pytest.raises(StructuralError):
        check_rack_triple_morphism(triple, triple, phi, np.arange(6))


def test_non_integer_table_entries_are_structural_errors():
    for bad in ([[0, "x"], [1, 0]], [[0, None], [1, 0]], [[0, 1], [1]]):
        with pytest.raises(StructuralError):
            FiniteRack(2, bad)
        with pytest.raises(StructuralError):
            FiniteGroup(bad)
    for bad in ([[0, 1], [1]], [[0, 1.5], [1, 0]]):
        with pytest.raises(StructuralError):
            FiniteRack(2, bad)


def test_table_shape_validation():
    with pytest.raises(StructuralError):
        FiniteRack(3, np.zeros((3, 2), dtype=int))
    with pytest.raises(StructuralError):
        FiniteRack(3, np.full((3, 3), 7))      # entries out of range
    with pytest.raises(StructuralError):
        GroupRackTriple(catalog.symmetric3(), 3,
                        np.zeros((6, 3), dtype=int),
                        np.zeros(4, dtype=int))


# ---------------------------------------------------------------------------
# loop oracles: the element-by-element forms of the discrete checkers, kept
# to pin the listing order, failure counts and info of the table forms
# ---------------------------------------------------------------------------

class LoopScan:
    """Records discrete failures the way a loop-based checker lists them."""

    def __init__(self):
        self.listed: list = []
        self.failures = 0

    def record(self, law, where):
        self.failures += 1
        if len(self.listed) < MAX_LISTED_VIOLATIONS:
            self.listed.append({"law": law, "where": [int(i) for i in where],
                                "residual": 1.0})

    def to_dict(self, **info) -> dict:
        info["failures"] = self.failures
        return {"passed": self.failures == 0,
                "max_residual": 0.0 if self.failures == 0 else 1.0,
                "violations": self.listed,
                "info": {k: info[k] for k in sorted(info)}}


def rack_by_loops(rack: FiniteRack) -> dict:
    scan, T, s = LoopScan(), rack.op_table, rack.size
    for x in range(s):
        if sorted(T[x]) != list(range(s)):
            scan.record("left-translation-bijective", (x,))
    for x, y, z in self_distributivity_failures_by_loops(T):
        scan.record("self-distributivity", (x, y, z))
    if rack.basepoint is not None:
        p = rack.basepoint
        for y in range(s):
            if T[p, y] != y:
                scan.record("basepoint-acts-trivially", (y,))
        for x in range(s):
            if T[x, p] != p:
                scan.record("basepoint-fixed", (x,))
    return scan.to_dict(pointed=rack.basepoint is not None)


def rack_triple_by_loops(triple: GroupRackTriple) -> dict:
    scan, G = LoopScan(), triple.group
    act, th, xs = triple.action_table, triple.theta_table, triple.x_size
    for x in range(xs):
        if act[G.unit, x] != x:
            scan.record("unit-acts-trivially", (x,))
    for g in range(G.size):
        for h in range(G.size):
            for x in range(xs):
                if act[G.mul_table[g, h], x] != act[g, act[h, x]]:
                    scan.record("group-set-composition", (g, h, x))
    if th[triple.basepoint] != G.unit:
        scan.record("basepoint-embeds-to-unit", (triple.basepoint,))
    for x in range(xs):
        for y in range(xs):
            if th[act[th[x], y]] != G.conj(th[x], th[y]):
                scan.record("embedding-conjugation", (x, y))
    for x in range(xs):
        if act[th[x], triple.basepoint] != triple.basepoint:
            scan.record("basepoint-fixed", (x,))
    equivariant = [g for g in range(G.size)
                   if all(G.conj(g, th[x]) == th[act[g, x]] for x in range(xs))]
    return scan.to_dict(strict=len(equivariant) == G.size,
                        equivariant_elements=equivariant)


def crossed_module_by_loops(cm: GroupCrossedModule) -> dict:
    scan, M, N, mu, eta = LoopScan(), cm.m, cm.n, cm.mu, cm.eta
    for a in range(M.size):
        for b in range(M.size):
            if mu[M.mul_table[a, b]] != N.mul_table[mu[a], mu[b]]:
                scan.record("boundary-homomorphism", (a, b))
    for m in range(M.size):
        if eta[N.unit, m] != m:
            scan.record("action-unit", (m,))
    for n1 in range(N.size):
        for n2 in range(N.size):
            for m in range(M.size):
                if eta[N.mul_table[n1, n2], m] != eta[n1, eta[n2, m]]:
                    scan.record("action-composition", (n1, n2, m))
    for n in range(N.size):
        if sorted(eta[n]) != list(range(M.size)):
            scan.record("action-bijective", (n,))
        for a in range(M.size):
            for b in range(M.size):
                if eta[n, M.mul_table[a, b]] != M.mul_table[eta[n, a], eta[n, b]]:
                    scan.record("action-by-automorphisms", (n, a, b))
    scope = range(N.size)
    if cm.n_prime is not None:
        sub = set(cm.n_prime)
        if N.unit not in sub:
            scan.record("restriction-subgroup", (N.unit,))
        for a in sorted(sub):
            if N.inverse_table[a] not in sub:
                scan.record("restriction-subgroup", (a,))
            for b in sorted(sub):
                if N.mul_table[a, b] not in sub:
                    scan.record("restriction-subgroup", (a, b))
        for m in range(M.size):
            if mu[m] not in sub:
                scan.record("restriction-contains-image", (m,))
        scope = sorted(sub)
    unrestricted = []
    for n in range(N.size):
        for m in range(M.size):
            if mu[eta[n, m]] != N.conj(n, mu[m]):
                if n in scope:
                    scan.record("equivariance", (n, m))
                if len(unrestricted) < MAX_LISTED_VIOLATIONS:
                    unrestricted.append((n, m))
    for a in range(M.size):
        for b in range(M.size):
            if eta[mu[a], b] != M.conj(a, b):
                scan.record("peiffer", (a, b))
    return scan.to_dict(restricted=cm.n_prime is not None,
                        equivariance_failures_unrestricted=unrestricted)


def morphism_by_loops(source, target, phi, psi) -> dict:
    Gs, Gt = source.group, target.group
    for a in range(Gs.size):
        for b in range(Gs.size):
            if phi[Gs.mul_table[a, b]] != Gt.mul_table[phi[a], phi[b]]:
                raise StructuralError(
                    f"phi is not a group homomorphism at ({a}, {b})")
    scan = LoopScan()
    if psi[source.basepoint] != target.basepoint:
        scan.record("basepoint-preserved", (source.basepoint,))
    for x in range(source.x_size):
        if target.theta_table[psi[x]] != phi[source.theta_table[x]]:
            scan.record("embedding-intertwined", (x,))
    for g in range(Gs.size):
        for x in range(source.x_size):
            if psi[source.action_table[g, x]] != \
                    target.action_table[phi[g], psi[x]]:
                scan.record("action-intertwined", (g, x))
    return scan.to_dict()


def symmetric_group(n: int) -> FiniteGroup:
    return catalog.group_from_permutations(permutations(range(n)))


def conjugation_by_loops(group: FiniteGroup) -> np.ndarray:
    s = group.size
    return np.array([[group.conj(g, x) for x in range(s)] for g in range(s)])


def sign_system(n: int) -> GroupCrossedModule:
    """Z2 acting on S_n by conjugation with the transposition at index 1,
    with the sign map as boundary."""
    sign = [sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)) % 2
            for p in sorted(permutations(range(n)))]
    G = symmetric_group(n)
    eta = np.stack([np.arange(G.size), conjugation_by_loops(G)[1]])
    return GroupCrossedModule(G, catalog.cyclic_group(2), np.array(sign), eta)


def broken_system(n: int, family: str, kind: str):
    """A crossed module over S_n broken in one named way, its unbroken
    form, and a psi for morphisms between their rack triples.
    ``conjugation`` is S_n acting on itself; ``sign`` is
    :func:`sign_system`, whose few action-composition failures leave room
    to list the interleaved laws."""
    clean = (sign_system(n) if family == "sign" else
             conjugation_crossed_module(symmetric_group(n)))
    M, N = clean.m, clean.n
    eta, psi = np.array(clean.eta), np.arange(M.size)
    if kind == "rolled-eta-row":
        eta[1] = np.roll(eta[1], 1)
    elif kind == "trivial-eta":
        eta[:] = np.arange(M.size)
    elif kind == "eta-row-not-bijective":
        eta[0, 1] = eta[0, 0]
        eta[1, 2] = eta[1, 3]
    elif kind == "swapped-mul-entry":
        table = np.array(M.mul_table)
        table[1, 2], table[1, 3] = table[1, 3], table[1, 2]
        M = FiniteGroup(table)
        N = M if clean.n is clean.m else N    # also breaks phi = id
    elif kind == "rolled-action-row":
        eta[0] = np.roll(eta[0], 2)
    elif kind == "swapped-psi":
        psi[[1, 2]] = psi[[2, 1]]
    return GroupCrossedModule(M, N, clean.mu, eta), clean, psi


def rack_triple_of(cm: GroupCrossedModule) -> GroupRackTriple:
    return GroupRackTriple(cm.n, cm.m.size, cm.eta, cm.mu, basepoint=0)


def outcome(check, *args):
    """The report as a dict, or the message of the StructuralError."""
    try:
        result = check(*args)
    except StructuralError as exc:
        return f"StructuralError: {exc}"
    return result if isinstance(result, dict) else result.to_dict()


BROKEN = ["rolled-eta-row", "trivial-eta", "eta-row-not-bijective",
          "swapped-mul-entry", "rolled-action-row", "swapped-psi"]
SYSTEMS = [(n, family, kind) for n in (3, 4) for family in ("conjugation", "sign")
           for kind in BROKEN]


def restrictions(n: int, size: int) -> list:
    """No restriction, a subgroup, a set that is not a subgroup, and one
    whose set iteration order is not sorted (its violations are listed in
    ascending order all the same), for N = Z2 or N = S_n."""
    if size == 2:
        return [None, (0,), (1,), (0, 1)]
    fixing_last = tuple(i for i, p in enumerate(sorted(permutations(range(n))))
                        if p[-1] == n - 1)
    return [None, fixing_last, (0, 1, 3), (0, 5, 9) if size > 9 else (1, 2)]


@pytest.mark.parametrize("n, family, kind", SYSTEMS)
def test_crossed_module_matches_loop_oracle(n, family, kind):
    cm, _, _ = broken_system(n, family, kind)
    for n_prime in restrictions(n, cm.n.size):
        restricted = GroupCrossedModule(cm.m, cm.n, cm.mu, cm.eta, n_prime)
        assert check_group_crossed_module(restricted).to_dict() == \
            crossed_module_by_loops(restricted), n_prime


@pytest.mark.parametrize("n, family, kind", SYSTEMS)
def test_rack_triple_and_morphism_match_loop_oracle(n, family, kind):
    cm, clean, psi = broken_system(n, family, kind)
    triple, clean = rack_triple_of(cm), rack_triple_of(clean)
    assert check_group_rack_triple(triple).to_dict() == \
        rack_triple_by_loops(triple)
    phi = np.arange(cm.n.size)
    for source, target in ((triple, clean), (clean, triple), (triple, triple)):
        assert outcome(check_rack_triple_morphism, source, target, phi, psi) \
            == outcome(morphism_by_loops, source, target, phi, psi)
    if kind == "swapped-mul-entry" and family == "conjugation":
        assert outcome(check_rack_triple_morphism, triple, clean, phi, psi) \
            .startswith("StructuralError: phi is not a group homomorphism")


@pytest.mark.parametrize("n, family, kind", SYSTEMS)
def test_rack_matches_loop_oracle(n, family, kind):
    # the derived table x > y = theta(x).y of each broken triple, as a rack
    triple = rack_triple_of(broken_system(n, family, kind)[0])
    for basepoint in (None, triple.basepoint):
        rack = FiniteRack(triple.x_size,
                          triple.action_table[triple.theta_table], basepoint)
        assert check_rack(rack).to_dict() == rack_by_loops(rack), basepoint


def test_loop_oracle_inputs_reach_the_interleaved_laws():
    cm, _, _ = broken_system(3, "sign", "eta-row-not-bijective")
    report = check_group_crossed_module(cm)
    laws = [v.law for v in report.violations]
    assert laws.index("action-bijective") < laws.index("action-by-automorphisms")
    assert laws.count("action-bijective") == 2
    assert report.info["failures"] > MAX_LISTED_VIOLATIONS


# ---------------------------------------------------------------------------
# the cubic laws gather their values from a copy of each table in the
# smallest unsigned type: uint8 up to 256 points, uint16 up to 65536, uint32
# beyond.  Each input below is checked clean and broken at sizes on both
# sides of a boundary.  The broken copy exchanges the values 0 and size - 1
# of one table row, or writes 0 where size - 1 belongs; at 257 and 65537
# points the two are equal modulo 256 (and 65536), so a copy one type too
# narrow would wrap them together and pass the broken input.
# ---------------------------------------------------------------------------

def int64_report(*laws, **info) -> dict:
    """The report of discrete laws that fail only at the given index
    tuples, listed law by law."""
    scan = LoopScan()
    for law, hits in laws:
        for where in hits:
            scan.record(law, where)
    return scan.to_dict(**info)


def reversal_triple(points: int, broken: bool) -> GroupRackTriple:
    """Z2 acting on ``points`` points by x -> points - 1 - x, with the
    trivial embedding; broken, the generator sends 0 to 0."""
    act = np.stack([np.arange(points), np.arange(points)[::-1]])
    if broken:
        act[1, 0] = 0
    return GroupRackTriple(catalog.cyclic_group(2), points, act,
                           np.zeros(points, dtype=int))


@pytest.mark.parametrize("points", [255, 256, 257])
@pytest.mark.parametrize("broken", [False, True])
def test_rack_triple_at_the_narrow_type_boundary(points, broken):
    triple = reversal_triple(points, broken)
    act, mul = triple.action_table, triple.group.mul_table
    expected = int64_report(("group-set-composition",
                             np.argwhere(act[mul] != act[:, act])),
                            strict=True, equivariant_elements=[0, 1])
    report = check_group_rack_triple(triple).to_dict()
    assert report == expected
    assert report["passed"] is not broken
    assert report == rack_triple_by_loops(triple)


@pytest.mark.parametrize("broken", [False, True])
def test_composition_table_past_65536_points(broken):
    # the whole triple check would also build its embedding-conjugation
    # table over 65537^2 pairs, 4.3 GB of booleans, so only the composition
    # law runs at this size
    triple = reversal_triple(65537, broken)
    act, mul = triple.action_table, triple.group.mul_table
    bad = racks._composition_table(act, mul)
    assert np.array_equal(bad, act[mul] != act[:, act])
    assert np.argwhere(bad).tolist() == ([[1, 1, 65536]] if broken else [])


def inversion_crossed_module(order: int, broken: bool) -> GroupCrossedModule:
    """Z2 acting by inversion on the cyclic group of ``order``, with the
    trivial boundary; broken, the generator exchanges the images of 0 and 1."""
    eta = np.stack([np.arange(order), -np.arange(order) % order])
    if broken:
        eta[1, [0, 1]] = eta[1, [1, 0]]
    return GroupCrossedModule(catalog.cyclic_group(order), catalog.cyclic_group(2),
                              np.zeros(order, dtype=int), eta)


@pytest.mark.parametrize("order", [256, 257])
@pytest.mark.parametrize("broken", [False, True])
def test_crossed_module_at_the_narrow_type_boundary(order, broken):
    cm = inversion_crossed_module(order, broken)
    eta, Mm, Nm = cm.eta, cm.m.mul_table, cm.n.mul_table
    expected = int64_report(
        ("action-composition", np.argwhere(eta[Nm] != eta[:, eta])),
        ("action-by-automorphisms",
         np.argwhere(eta[:, Mm] != Mm[eta[:, :, None], eta[:, None, :]])),
        restricted=False, equivariance_failures_unrestricted=[])
    report = check_group_crossed_module(cm).to_dict()
    assert report == expected
    assert report["passed"] is not broken
    assert report == crossed_module_by_loops(cm)


def dihedral_rack(points: int, broken: bool) -> FiniteRack:
    """x > y = 2x - y mod ``points``; broken, the row of 0 exchanges the
    images of 0 and 1."""
    x = np.arange(points)
    T = (2 * x[:, None] - x[None, :]) % points
    if broken:
        T[0, [0, 1]] = T[0, [1, 0]]
    return FiniteRack(points, T)


def self_distributivity_by_rows(T: np.ndarray):
    """The failures of x > (y > z) == (x > y) > (x > z) in int64, one row of
    x at a time, so that no whole cubic int64 table is held."""
    for x in range(len(T)):
        for y, z in np.argwhere(T[x, T] != T[T[x, :, None], T[x, None, :]]):
            yield x, y, z


@pytest.mark.parametrize("points", [256, 257])
@pytest.mark.parametrize("broken", [False, True])
def test_rack_at_the_narrow_type_boundary(points, broken):
    rack = dihedral_rack(points, broken)
    expected = int64_report(
        ("self-distributivity", self_distributivity_by_rows(rack.op_table)),
        pointed=False)
    report = check_rack(rack).to_dict()
    assert report == expected
    assert report["passed"] is not broken


CUBIC_CHECKS = [(check_group, lambda group: group),
                (check_group_rack_triple, conjugation_triple),
                (check_group_crossed_module, conjugation_crossed_module),
                (check_rack, conjugation_rack)]


@pytest.mark.parametrize("check, build", CUBIC_CHECKS,
                         ids=[check.__name__ for check, _ in CUBIC_CHECKS])
def test_s5_cubic_laws_hold_no_int64_table(check, build):
    # 120^3 triples: one int64 table is 13.8 MB, a uint8 one 1.7 MB
    system = build(symmetric_group(5))
    assert traced_peak(check, system) < 8 * 2 ** 20
