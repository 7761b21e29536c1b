"""Finite racks, finite groups, augmented group triples, group crossed modules.

Everything here is table driven.  Each law is one boolean table over its
index tuple, and a law that composes maps is one composition of tables:
(gh).x = g.(h.x) is ``act[mul] == act[:, act]``, so a cubic law on S5 (order
120, 1.7 million triples) is checked in milliseconds.  A cubic law gathers
its values from a copy of the table in the smallest unsigned type that holds
them (uint8 up to 256 points), while its indices stay the validated int64
tables: one S5 table is then 1.7 MB, against 13.8 MB in int64.  Discrete
checks have no meaningful residual, so a failed instance is recorded with
residual 1.0 and the report's ``max_residual`` is 0.0 or 1.0; violations are
listed in row-major order of each table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import frozen_array, integer, set_frozen
from .errors import AxiomError, StructuralError
from .report import MAX_LISTED_VIOLATIONS, Collector, ValidityReport


@dataclass(frozen=True, eq=False)
class FiniteRack:
    """A finite rack as an operation table: op_table[x, y] = x > y."""

    size: int
    op_table: np.ndarray
    basepoint: int | None = None

    def __post_init__(self):
        n = integer(self.size, "size")
        set_frozen(self, size=n,
                   op_table=frozen_array(self.op_table, (n, n), "rack table", n))
        if self.basepoint is not None:
            set_frozen(self, basepoint=integer(self.basepoint, "basepoint", 0, n))


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group as its multiplication table, unit at index 0.  Its size
    and inverse table (each element's first two-sided inverse) are derived;
    an element without one raises AxiomError."""

    mul_table: np.ndarray
    unit: int = 0
    size: int = field(init=False)
    inverse_table: np.ndarray = field(init=False)

    def __post_init__(self):
        mul = frozen_array(self.mul_table, (None, None), "mul table")
        n = len(mul)
        mul = frozen_array(mul, (n, n), "mul table", n)
        e = integer(self.unit, "unit", 0, n)
        inverse = (mul == e) & (mul.T == e)             # [g, h]: gh = hg = e
        if not inverse.any(axis=1).all():
            raise AxiomError("group-inverse-law", 1.0)
        set_frozen(self, mul_table=mul, unit=e, size=n, inverse_table=frozen_array(
            inverse.argmax(axis=1), (n,), "inverse table", n))

    def conj(self, g: int, x: int) -> int:
        """g x g^-1"""
        return int(self.mul_table[self.mul_table[g, x], self.inverse_table[g]])


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
        x, g = integer(self.x_size, "x_size"), self.group.size
        set_frozen(self, x_size=x,
                   action_table=frozen_array(self.action_table, (g, x),
                                             "action_table", x),
                   theta_table=frozen_array(self.theta_table, (x,),
                                            "theta_table", g),
                   basepoint=integer(self.basepoint, "basepoint", 0, x))


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
        m, n = self.m.size, self.n.size
        set_frozen(self, mu=frozen_array(self.mu, (m,), "boundary table", n),
                   eta=frozen_array(self.eta, (n, m), "action table", m))
        if self.n_prime is not None:
            sub = sorted(frozen_array(self.n_prime, (None,),
                                      "restriction subgroup", n).tolist())
            if len(set(sub)) != len(sub):
                raise StructuralError("restriction subgroup has repeats")
            set_frozen(self, n_prime=tuple(sub))


def _conjugation_table(group):              # over (g, x): g x g^-1
    return group.mul_table[group.mul_table, group.inverse_table[:, None]]


def _equivariance_table(group, act, th):    # over (g, x): th(g.x) != g th(x) g^-1
    return th[act] != _conjugation_table(group)[:, th]


def _unit_table(act, e):                    # over x: e.x != x
    return act[e] != np.arange(act.shape[1])


def _narrow(table):                         # the same values, smallest unsigned type
    return table.astype(np.min_scalar_type(table.max(initial=0)))


def _composition_table(act, mul):           # over (g, h, x): (gh).x != g.(h.x)
    a = _narrow(act)        # values 1.7 MB on S5, not 13.8; indices int64
    return np.take(a, mul, axis=0) != np.take(a, act, axis=1)


def _bijective_rows(act):                   # over g: x -> g.x is not onto
    return np.any(np.sort(act, axis=1) != np.arange(act.shape[1]), axis=1)


def check_group(group: FiniteGroup) -> ValidityReport:
    """Unit and associativity laws by brute force (a FiniteGroup has inverses)."""
    col = Collector()
    M, e = group.mul_table, group.unit
    col.table("unit-law", _unit_table(M, e) | _unit_table(M.T, e))
    col.table("associativity", _composition_table(M, M))     # G acting on G
    return col.report()


def check_rack(rack: FiniteRack) -> ValidityReport:
    """Left translations bijective, self-distributivity, pointed laws if set."""
    col = Collector()
    T = rack.op_table
    col.table("left-translation-bijective", _bijective_rows(T))
    t = _narrow(T)
    col.table("self-distributivity",
              np.take(t, T, axis=1) != t[T[:, :, None], T[:, None, :]])
    if rack.basepoint is not None:
        p = rack.basepoint
        col.table("basepoint-acts-trivially", _unit_table(T, p))
        col.table("basepoint-fixed", T[:, p] != p)
    return col.report({"pointed": rack.basepoint is not None})


def conjugation_rack(group: FiniteGroup) -> FiniteRack:
    """The conjugation rack x > y = x y x^-1, pointed at the unit."""
    return FiniteRack(group.size, _conjugation_table(group), basepoint=group.unit)


def check_group_rack_triple(triple: GroupRackTriple) -> ValidityReport:
    """Axioms of an augmented pointed rack presented by a group triple.

    Checks the action laws, theta(p) = e and theta(x).p = p, and the
    conjugation identity theta(theta(x).y) = theta(x) theta(y) theta(x)^-1.
    The other laws of the derived rack x > y = theta(x).y follow by
    composition and the inverses of a FiniteGroup alone
    (tests/test_theorems.py), so no rack is built.  ``info`` records which
    group elements act equivariantly and whether that is all of them.
    """
    col = Collector()
    G, act, th = triple.group, triple.action_table, triple.theta_table

    col.table("unit-acts-trivially", _unit_table(act, G.unit))
    col.table("group-set-composition", _composition_table(act, G.mul_table))
    if th[triple.basepoint] != G.unit:
        col.add("basepoint-embeds-to-unit", (triple.basepoint,))
    bad = _equivariance_table(G, act, th)
    col.table("embedding-conjugation", bad[th])
    col.table("basepoint-fixed", act[th, triple.basepoint] != triple.basepoint)
    equivariant = np.flatnonzero(~bad.any(axis=1))
    return col.report({
        "strict": len(equivariant) == G.size,
        "equivariant_elements": [int(g) for g in equivariant],
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
    M, N, mu, eta = cm.m, cm.n, cm.mu, cm.eta
    Mm, Nm = M.mul_table, N.mul_table

    col.table("boundary-homomorphism", mu[Mm] != Nm[mu][:, mu])
    col.table("action-unit", _unit_table(eta, N.unit))
    col.table("action-composition", _composition_table(eta, Nm))
    col.tables(("action-bijective", _bijective_rows(eta)),
               ("action-by-automorphisms",
                np.take(_narrow(eta), Mm, axis=1)
                != _narrow(Mm)[eta[:, :, None], eta[:, None, :]]))

    in_scope = np.ones(N.size, dtype=bool)
    if cm.n_prime is not None:
        in_scope = np.isin(np.arange(N.size), cm.n_prime)
        if not in_scope[N.unit]:
            col.add("restriction-subgroup", (N.unit,))
        col.tables(("restriction-subgroup", in_scope & ~in_scope[N.inverse_table]),
                   ("restriction-subgroup",
                    in_scope[:, None] & in_scope[None] & ~in_scope[Nm]))
        col.table("restriction-contains-image", ~in_scope[mu])

    bad = _equivariance_table(N, eta, mu)   # condition one: the triple (N, M, mu)
    col.table("equivariance", bad & in_scope[:, None])
    col.table("peiffer", eta[mu] != _conjugation_table(M))
    return col.report({
        "restricted": cm.n_prime is not None,
        "equivariance_failures_unrestricted": [
            tuple(w) for w in np.argwhere(bad)[:MAX_LISTED_VIOLATIONS].tolist()],
    })


def augmented_rack_from_crossed_module(cm: GroupCrossedModule) -> GroupRackTriple:
    """The triple (N, M, mu) with N acting on M through eta.

    The crossed module is verified first, then the triple, whose basepoint
    laws need the associativity of N and the unit law of M, which the first
    check does not evaluate; either failure raises AxiomError.  For a relaxed
    crossed module the triple is still a genuine augmented rack because the
    image of the boundary map lies inside the restriction subgroup.
    """
    check_group_crossed_module(cm).require("group-crossed-module")
    triple = GroupRackTriple(cm.n, cm.m.size, cm.eta, cm.mu, basepoint=cm.m.unit)
    check_group_rack_triple(triple).require("group-rack-triple")
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
    failed report.  psi is then a map of the derived racks, a theorem that
    is not evaluated (tests/test_theorems.py): psi(theta(x).y) =
    phi(theta(x)).psi(y) = theta(psi(x)).psi(y).
    """
    phi = frozen_array(phi_table, (source.group.size,), "phi", target.group.size)
    psi = frozen_array(psi_table, (source.x_size,), "psi", target.x_size)
    Ms, Mt = source.group.mul_table, target.group.mul_table
    not_hom = np.argwhere(phi[Ms] != Mt[phi][:, phi])
    if not_hom.size:
        a, b = not_hom[0]
        raise StructuralError(f"phi is not a group homomorphism at ({a}, {b})")

    col = Collector()
    if psi[source.basepoint] != target.basepoint:
        col.add("basepoint-preserved", (source.basepoint,))
    col.table("embedding-intertwined",
              target.theta_table[psi] != phi[source.theta_table])
    col.table("action-intertwined",
              psi[source.action_table] != target.action_table[phi][:, psi])
    return col.report()
