"""Finite racks, finite groups, augmented group triples, group crossed modules.

Everything here is table driven.  Each law is one boolean table over its
index tuple, built by numpy fancy indexing, so a cubic law on S5 (order 120,
1.7 million triples) is checked in milliseconds.  Discrete checks have no
meaningful residual, so a failed instance is recorded with residual 1.0 and
the report's ``max_residual`` is either 0.0 or 1.0; violations are listed in
row-major order of each table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AxiomError, StructuralError
from .report import Collector, ValidityReport


def int_table(values, shape, bound, what="table") -> np.ndarray:
    """Copy ``values`` into a read-only integer array with entries in [0, bound)."""
    try:
        arr = np.array(values)
        with np.errstate(invalid="ignore"):     # a huge float fails below
            cast = arr.astype(np.int64)
    except (TypeError, ValueError, OverflowError):
        raise StructuralError(f"{what}: entries must be integers") from None
    if arr.shape != tuple(shape):
        raise StructuralError(f"{what}: expected shape {tuple(shape)}, got {arr.shape}")
    if not np.array_equal(cast, arr):
        raise StructuralError(f"{what}: entries must be integers")
    if cast.size and (cast.min() < 0 or cast.max() >= bound):
        raise StructuralError(f"{what}: entries must lie in [0, {bound})")
    cast.flags.writeable = False
    return cast


@dataclass(frozen=True, eq=False)
class FiniteRack:
    """A finite rack as an operation table: op_table[x, y] = x > y."""

    size: int
    op_table: np.ndarray
    basepoint: int | None = None

    def __post_init__(self):
        if not isinstance(self.size, int) or self.size <= 0:
            raise StructuralError("size must be a positive integer")
        T = int_table(self.op_table, (self.size, self.size), self.size, "rack table")
        object.__setattr__(self, "op_table", T)
        if self.basepoint is not None:
            if not (0 <= int(self.basepoint) < self.size):
                raise StructuralError("basepoint out of range")
            object.__setattr__(self, "basepoint", int(self.basepoint))


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group as multiplication and inverse tables, unit at index 0."""

    size: int
    mul_table: np.ndarray
    inverse_table: np.ndarray
    unit: int = 0

    def __post_init__(self):
        if not isinstance(self.size, int) or self.size <= 0:
            raise StructuralError("size must be a positive integer")
        M = int_table(self.mul_table, (self.size, self.size), self.size, "mul table")
        I = int_table(self.inverse_table, (self.size,), self.size, "inverse table")
        if not (0 <= int(self.unit) < self.size):
            raise StructuralError("unit out of range")
        object.__setattr__(self, "mul_table", M)
        object.__setattr__(self, "inverse_table", I)
        object.__setattr__(self, "unit", int(self.unit))

    @classmethod
    def from_mul_table(cls, mul_table, unit: int = 0) -> "FiniteGroup":
        """Derive the inverse table by scanning; raises AxiomError if absent."""
        try:
            size = len(mul_table)
        except TypeError:
            raise StructuralError("mul table: expected a square table") from None
        mul = int_table(mul_table, (size, size), size, "mul table")
        if not 0 <= unit < size:
            raise StructuralError("unit out of range")
        inv = np.full(size, -1, dtype=np.int64)
        for g in range(size):
            hits = np.where((mul[g] == unit) & (mul[:, g] == unit))[0]
            if hits.size == 0:
                raise AxiomError("group-inverse-law", 1.0)
            inv[g] = hits[0]
        return cls(size, mul, inv, unit)

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse_table[a])

    def conj(self, g: int, x: int) -> int:
        """g x g^-1"""
        return self.mul(self.mul(g, x), self.inv(g))


@dataclass(frozen=True, eq=False)
class GroupRackTriple:
    """A group acting on a pointed set with an embedding into the group.

    Fields: the acting group, the set size, the action table
    (group.size x x_size), the embedding table (x_size entries of group
    indices) and the basepoint of the set.
    """

    group: FiniteGroup
    x_size: int
    action_table: np.ndarray
    theta_table: np.ndarray
    basepoint: int = 0

    def __post_init__(self):
        if not isinstance(self.x_size, int) or self.x_size <= 0:
            raise StructuralError("x_size must be a positive integer")
        A = int_table(self.action_table, (self.group.size, self.x_size),
                      self.x_size, "action_table")
        T = int_table(self.theta_table, (self.x_size,), self.group.size,
                      "theta_table")
        if not (0 <= int(self.basepoint) < self.x_size):
            raise StructuralError("basepoint out of range")
        object.__setattr__(self, "action_table", A)
        object.__setattr__(self, "theta_table", T)
        object.__setattr__(self, "basepoint", int(self.basepoint))

    def act(self, g: int, x: int) -> int:
        return int(self.action_table[g, x])

    def theta(self, x: int) -> int:
        return int(self.theta_table[x])


@dataclass(frozen=True, eq=False)
class GroupCrossedModule:
    """Groups M, N with a boundary map mu: M -> N and an N-action on M.

    ``n_prime`` optionally restricts the equivariance condition to a
    subgroup of N (given as a sorted tuple of element indices); it must
    contain the image of mu.
    """

    m: FiniteGroup
    n: FiniteGroup
    mu: np.ndarray
    eta: np.ndarray
    n_prime: tuple | None = None

    def __post_init__(self):
        mu = int_table(self.mu, (self.m.size,), self.n.size, "boundary table")
        eta = int_table(self.eta, (self.n.size, self.m.size), self.m.size,
                        "action table")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "eta", eta)
        if self.n_prime is not None:
            sub = tuple(sorted(int(i) for i in self.n_prime))
            if len(set(sub)) != len(sub):
                raise StructuralError("restriction subgroup has repeats")
            if any(i < 0 or i >= self.n.size for i in sub):
                raise StructuralError("restriction subgroup index out of range")
            object.__setattr__(self, "n_prime", sub)


def _conjugation_table(group: FiniteGroup) -> np.ndarray:
    """Table over (g, x) of g x g^-1."""
    M = group.mul_table
    return M[M, group.inverse_table[:, None]]


def _equivariance_table(group: FiniteGroup, act, th) -> np.ndarray:
    """Table over (g, x) of theta(g.x) != g theta(x) g^-1."""
    return th[act] != _conjugation_table(group)[:, th]


def check_group(group: FiniteGroup) -> ValidityReport:
    """Unit, associativity and inverse laws by brute force."""
    col = Collector()
    M, e, inv = group.mul_table, group.unit, group.inverse_table
    idx = np.arange(group.size)
    col.tables(("unit-law", (M[e] != idx) | (M[:, e] != idx)),
               ("inverse-law", (M[idx, inv] != e) | (M[inv, idx] != e)))
    col.table("associativity", M[M[:, :, None], idx] != M[idx[:, None, None], M])
    return col.report()


def check_rack(rack: FiniteRack) -> ValidityReport:
    """Left translations bijective, self-distributivity, pointed laws if set."""
    col = Collector()
    T = rack.op_table
    full = np.arange(rack.size)
    col.table("left-translation-bijective", np.any(np.sort(T, axis=1) != full, axis=1))
    lhs = T[full[:, None, None], T]                      # x > (y > z)
    rhs = T[T[:, :, None], T[:, None, :]]                # (x > y) > (x > z)
    col.table("self-distributivity", lhs != rhs)
    if rack.basepoint is not None:
        p = rack.basepoint
        col.table("basepoint-acts-trivially", T[p] != full)
        col.table("basepoint-fixed", T[:, p] != p)
    return col.report({"pointed": rack.basepoint is not None})


def conjugation_rack(group: FiniteGroup) -> FiniteRack:
    """The conjugation rack x > y = x y x^-1, pointed at the unit."""
    return FiniteRack(group.size, _conjugation_table(group), basepoint=group.unit)


def derived_rack(triple: GroupRackTriple) -> FiniteRack:
    """The rack structure x > y = theta(x) . y induced by the triple."""
    T = triple.action_table[triple.theta_table]
    return FiniteRack(triple.x_size, T, basepoint=triple.basepoint)


def group_defect(triple: GroupRackTriple, g: int) -> np.ndarray:
    """Per-point defect (g theta(x) g^-1) theta(g.x)^-1 as group indices.

    The trivial value everywhere is the group unit; the triple is strict at g
    exactly when this table is constantly the unit.
    """
    G = triple.group
    conj = _conjugation_table(G)[g, triple.theta_table]
    moved = triple.theta_table[triple.action_table[g]]
    return G.mul_table[conj, G.inverse_table[moved]]


def strict_elements(triple: GroupRackTriple) -> tuple:
    """Group elements whose defect table is trivial."""
    bad = _equivariance_table(triple.group, triple.action_table,
                              triple.theta_table)
    return tuple(int(g) for g in np.flatnonzero(~bad.any(axis=1)))


def check_group_rack_triple(triple: GroupRackTriple) -> ValidityReport:
    """Axioms of an augmented pointed rack presented by a group triple.

    Checks the action laws, the basepoint laws, and the conjugation identity
    theta(theta(x).y) = theta(x) theta(y) theta(x)^-1.  The self-distributivity
    of the derived rack is a consequence; it is re-verified exhaustively and
    reported under ``derived-*`` law names.  ``info`` records which group
    elements act equivariantly and whether that is all of them (strictness).
    """
    col = Collector()
    G = triple.group
    act, th = triple.action_table, triple.theta_table
    idg, idx = np.arange(G.size), np.arange(triple.x_size)

    col.table("unit-acts-trivially", act[G.unit] != idx)
    col.table("group-set-composition",
              act[G.mul_table[:, :, None], idx] != act[idg[:, None, None], act])
    if th[triple.basepoint] != G.unit:
        col.add("basepoint-embeds-to-unit", (triple.basepoint,))
    bad = _equivariance_table(G, act, th)
    col.table("embedding-conjugation", bad[th])

    rack_report = check_rack(derived_rack(triple))
    col.merge(rack_report, "derived-")
    equivariant = np.flatnonzero(~bad.any(axis=1))
    return col.report({
        "strict": len(equivariant) == G.size,
        "equivariant_elements": [int(g) for g in equivariant],
        "derived_rack_passed": rack_report.passed,
    })


def check_group_crossed_module(cm: GroupCrossedModule) -> ValidityReport:
    """Boundary homomorphism, action-by-automorphism laws, and the two
    crossed-module conditions; condition one is restricted to ``n_prime``
    when that subgroup is present.

    ``info`` always reports where condition one fails over all of N
    (``equivariance_failures_unrestricted``), so relaxed examples can point
    at genuine violations outside the restriction without failing the check.
    """
    col = Collector()
    M, N = cm.m, cm.n
    mu, eta = cm.mu, cm.eta
    Mm, Nm = M.mul_table, N.mul_table
    full_m = np.arange(M.size)

    col.table("boundary-homomorphism", mu[Mm] != Nm[mu[:, None], mu])
    col.table("action-unit", eta[N.unit] != full_m)
    col.table("action-composition",
              eta[Nm[:, :, None], full_m] != eta[np.arange(N.size)[:, None, None], eta])
    col.tables(("action-bijective", np.any(np.sort(eta, axis=1) != full_m, axis=1)),
               ("action-by-automorphisms",
                eta[:, Mm] != Mm[eta[:, :, None], eta[:, None, :]]))

    in_scope = np.ones(N.size, dtype=bool)
    if cm.n_prime is not None:
        sub = list(set(cm.n_prime))           # listed in set iteration order
        in_scope = np.isin(np.arange(N.size), sub)
        if not in_scope[N.unit]:
            col.add("restriction-subgroup", (N.unit,))
        for a in sub:
            if not in_scope[N.inverse_table[a]]:
                col.add("restriction-subgroup", (a,))
            for b in np.array(sub)[~in_scope[Nm[a, sub]]]:
                col.add("restriction-subgroup", (a, b))
        col.table("restriction-contains-image", ~in_scope[mu])

    outside = Collector()               # condition one: the triple (N, M, mu)
    bad = _equivariance_table(N, eta, mu)
    col.table("equivariance", bad & in_scope[:, None])
    outside.table("equivariance", bad)
    col.table("peiffer", eta[mu] != _conjugation_table(M))
    return col.report({
        "restricted": cm.n_prime is not None,
        "equivariance_failures_unrestricted": [v.where for v in outside.violations],
    })


def augmented_rack_from_crossed_module(cm: GroupCrossedModule) -> GroupRackTriple:
    """The triple (N, M, mu) with N acting on M through eta.

    The crossed module is verified first and the resulting triple is
    re-checked; either failure raises AxiomError.  For a relaxed crossed
    module the triple is still a genuine augmented rack because the image of
    the boundary map lies inside the restriction subgroup.
    """
    cm_report = check_group_crossed_module(cm)
    if not cm_report.passed:
        raise AxiomError("group-crossed-module", cm_report.max_residual, cm_report)
    triple = GroupRackTriple(cm.n, cm.m.size, cm.eta, cm.mu,
                             basepoint=cm.m.unit)
    tr_report = check_group_rack_triple(triple)
    if not tr_report.passed:
        raise AxiomError("group-rack-triple", tr_report.max_residual, tr_report)
    return triple


def conjugation_triple(group: FiniteGroup) -> GroupRackTriple:
    """The strict triple (G, G, id) with G acting on itself by conjugation."""
    return GroupRackTriple(group, group.size, _conjugation_table(group),
                           np.arange(group.size), basepoint=group.unit)


def conjugation_crossed_module(group: FiniteGroup) -> GroupCrossedModule:
    """(G, G, id) with the conjugation action; always a strict crossed module."""
    return GroupCrossedModule(group, group, np.arange(group.size),
                              _conjugation_table(group))


def check_rack_triple_morphism(source: GroupRackTriple, target: GroupRackTriple,
                               phi_table, psi_table) -> ValidityReport:
    """Morphism laws for (phi, psi) between two group-rack triples.

    ``phi`` must already be a group homomorphism; a non-homomorphism is a
    precondition failure and raises StructuralError rather than producing a
    failed report.  The induced rack-map property of psi is a consequence of
    the other laws; it is re-verified and reported under ``derived-rack-map``.
    """
    phi = int_table(phi_table, (source.group.size,), target.group.size, "phi")
    psi = int_table(psi_table, (source.x_size,), target.x_size, "psi")
    Ms, Mt = source.group.mul_table, target.group.mul_table
    not_hom = np.argwhere(phi[Ms] != Mt[phi[:, None], phi])
    if not_hom.size:
        a, b = not_hom[0]
        raise StructuralError(f"phi is not a group homomorphism at ({a}, {b})")

    col = Collector()
    if psi[source.basepoint] != target.basepoint:
        col.add("basepoint-preserved", (source.basepoint,))
    col.table("embedding-intertwined",
              target.theta_table[psi] != phi[source.theta_table])
    col.table("action-intertwined",
              psi[source.action_table] != target.action_table[phi[:, None], psi])
    Ts, Tt = derived_rack(source).op_table, derived_rack(target).op_table
    col.table("derived-rack-map", psi[Ts] != Tt[psi[:, None], psi])
    return col.report()
