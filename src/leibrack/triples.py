"""Triples (Lie algebra, module, embedding tensor) and their derived data.

An embedding tensor theta maps the module V back into the Lie algebra g.
The triple's derived bracket on V is

    [u, v] := theta(u) . v,

which is a (left) Leibniz bracket whenever theta intertwines it with the
bracket of g (the compatibility checked here).  The failure of an algebra
element a to act equivariantly on theta is measured by the defect map

    defect(a) : v  ->  [a, theta(v)] - theta(a . v),

a linear map V -> g for each a.  Strict triples have zero defect; the largest
subalgebra on which the defect vanishes always contains the image of theta.

This module also covers morphisms of triples, relaxed augmentations (a chosen
subalgebra with vanishing defect), Lie algebra crossed modules, and the
seeded random generators used by the corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import catalog
from .algebra import (DEFAULT_TOL, LeibnizAlgebraData, LieAlgebraData,
                      ModuleAction, SubspaceBasis, bracket_closure_check,
                      bracket_map_residuals, brackets, check_lie_algebra,
                      check_module, derivation_residuals, frozen_array,
                      lie_algebra, same_algebra, scan_rows, set_frozen)
from .errors import StructuralError
from .report import Collector, ValidityReport


@dataclass(frozen=True, eq=False)
class EmbeddingTensor:
    """A linear map V -> g stored as an (dim g, dim V) matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        set_frozen(self, matrix=frozen_array(self.matrix, (None, None),
                                             "embedding tensor"))


def derived_bracket_tensor(action: ModuleAction, theta: EmbeddingTensor) -> np.ndarray:
    """Tensor of [u, v] = theta(u) . v on the module."""
    return np.einsum("iu,ikv->uvk", theta.matrix, action.action_matrices)


@dataclass(frozen=True, eq=False)
class LieLeibnizTriple:
    """A triple with its derived data, each computed once: the Leibniz
    bracket at construction, the defect stack and its SVD on first use.
    :func:`build_triple` returns a checked one; the constructor only checks
    shapes."""

    algebra: LieAlgebraData
    action: ModuleAction
    theta: EmbeddingTensor
    derived_bracket: LeibnizAlgebraData = field(init=False)

    def __post_init__(self):
        n, d = self.algebra.dim, self.action.dim_v
        same_algebra(self.action.algebra, self.algebra, "action")
        if self.theta.matrix.shape != (n, d):
            raise StructuralError(
                f"embedding tensor must be {(n, d)}, got {self.theta.matrix.shape}")
        B = derived_bracket_tensor(self.action, self.theta)
        set_frozen(self, derived_bracket=LeibnizAlgebraData(d, B))

    @property
    def dim_g(self) -> int:
        return self.algebra.dim

    @property
    def dim_v(self) -> int:
        return self.action.dim_v

    @cached_property
    def defect_stack(self) -> np.ndarray:
        """Defect matrices of all basis elements, shape (n, n, d), read-only."""
        stack = _defect_stack(self.algebra, self.action, self.theta)
        stack.flags.writeable = False
        return stack

    @cached_property
    def _defect_svd(self) -> tuple:
        """Singular values and right singular vectors of a -> defect(a); none
        if it overflowed, where LAPACK's SVD raises, returns NaN or hangs."""
        L = self.defect_stack.reshape(self.dim_g, -1).T   # a column per element
        if not np.isfinite(L).all():
            return np.empty(0), L[:0]
        return np.linalg.svd(L, full_matrices=False)[1:]


def triple_reports(triple: LieLeibnizTriple, tol: float = DEFAULT_TOL) -> tuple:
    """The Lie algebra, module and :func:`check_triple` reports of an
    unchecked triple, each axiom evaluated once."""
    alg = triple.algebra
    alg_rep, mod_rep = check_lie_algebra(alg, tol), check_module(triple.action, tol)
    col = Collector(tol)
    col.merge(alg_rep)
    col.merge(mod_rep)
    col.scan("embedding-intertwines-brackets", bracket_map_residuals(
        triple.derived_bracket.bracket_tensor, alg.structure_constants,
        triple.theta.matrix))
    return alg_rep, mod_rep, col.report({
        "strict": is_strict(triple, tol),
        "max_defect": float(np.max(np.abs(triple.defect_stack)))})


def check_triple(algebra: LieAlgebraData, action: ModuleAction,
                 theta: EmbeddingTensor, tol: float = DEFAULT_TOL) -> ValidityReport:
    """The three axioms of a triple from raw components: the Lie algebra
    laws, the module law and the embedding law

        theta([u, v]_V) = [theta(u), theta(v)]_g ,   [u, v]_V := theta(u).v .

    The Leibniz identity of the derived bracket is a theorem of these, with
    residual -E(u, v).w - R(theta u, theta v).w for E the embedding and R
    the module residual; it is not evaluated (tests/test_theorems.py).
    """
    return triple_reports(LieLeibnizTriple(algebra, action, theta), tol)[-1]


def build_triple(algebra: LieAlgebraData, action: ModuleAction,
                 theta: EmbeddingTensor, tol: float = DEFAULT_TOL) -> LieLeibnizTriple:
    """Validate components and return the checked triple; AxiomError on failure."""
    triple = LieLeibnizTriple(algebra, action, theta)
    report = triple_reports(triple, tol)[-1]
    report.require(report.violations[0].law if report.violations
                   else "triple-axioms")
    return triple


def _defect_stack(algebra: LieAlgebraData, action: ModuleAction,
                  theta: EmbeddingTensor) -> np.ndarray:
    """Defect matrices of all basis elements, shape (n, n, d)."""
    Th = theta.matrix
    return np.swapaxes(algebra.structure_constants, 1, 2) @ Th - \
        Th @ action.action_matrices


def _equivariant_rows(triple: LieLeibnizTriple, tol: float) -> np.ndarray:
    """The one rule for h (strict: h = g): the right singular vectors of a ->
    defect(a) with singular value <= ``tol``."""
    s, Vt = triple._defect_svd
    return Vt[s <= tol]


def equivariance_defect(triple: LieLeibnizTriple, a) -> np.ndarray:
    """Matrix of v -> [a, theta(v)] - theta(a . v), shape (dim g, dim V);
    for a stack of rows a, one such matrix per row."""
    return np.tensordot(np.asarray(a, float), triple.defect_stack, axes=1)


def is_strict(triple: LieLeibnizTriple, tol: float = DEFAULT_TOL) -> bool:
    """True when the equivariant subalgebra is all of g."""
    return len(_equivariant_rows(triple, tol)) == triple.dim_g


def max_strictness_subalgebra(triple: LieLeibnizTriple,
                              tol: float = DEFAULT_TOL) -> SubspaceBasis:
    """The largest subspace of g on which the defect map vanishes, by the
    rule that decides strictness.  It is always a subalgebra containing the
    image of the embedding tensor; both facts are re-verified."""
    basis = SubspaceBasis(triple.dim_g, _equivariant_rows(triple, tol))
    check_relaxed_augmentation(RelaxedAugmentation(triple, basis),
                               max(tol, 1e-7)).require("max-strictness-subalgebra")
    return basis


@dataclass(frozen=True, eq=False)
class RelaxedAugmentation:
    """A triple together with a chosen subalgebra of equivariant elements."""

    triple: LieLeibnizTriple
    h_basis: SubspaceBasis

    def __post_init__(self):
        if self.h_basis.ambient_dim != self.triple.dim_g:
            raise StructuralError("h_basis lives in a different ambient space")


def check_relaxed_augmentation(aug: RelaxedAugmentation,
                               tol: float = DEFAULT_TOL) -> ValidityReport:
    """The chosen subspace contains Im(theta), closes under the bracket, and
    every element of it has vanishing defect."""
    triple, h = aug.triple, aug.h_basis
    col = Collector(tol)
    col.scan("contains-embedding-image", h.distance(triple.theta.matrix.T))
    col.scan("subalgebra-closure", h.distance(
        brackets(triple.algebra.structure_constants, h.vectors, h.vectors)))
    defects = h.vectors @ triple.defect_stack.reshape(triple.dim_g, -1)
    col.scan("defect-vanishes", np.max(np.abs(defects), axis=1))
    return col.report({"h_dim": h.dim})


@dataclass(frozen=True, eq=False)
class TripleMorphism:
    """A pair of linear maps (phi on algebras, psi on modules)."""

    source: LieLeibnizTriple
    target: LieLeibnizTriple
    phi: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        src, tgt = self.source, self.target
        set_frozen(self, phi=frozen_array(self.phi, (tgt.dim_g, src.dim_g), "phi"),
                   psi=frozen_array(self.psi, (tgt.dim_v, src.dim_v), "psi"))


def check_morphism(mor: TripleMorphism, tol: float = DEFAULT_TOL) -> ValidityReport:
    """phi is a Lie algebra map intertwining embeddings and actions.

    psi then respects the derived Leibniz brackets, a theorem of the two
    intertwining laws that is not evaluated (tests/test_theorems.py).
    """
    src, tgt = mor.source, mor.target
    phi, psi = mor.phi, mor.psi
    col = Collector(tol)

    col.scan("algebra-homomorphism", bracket_map_residuals(
        src.algebra.structure_constants, tgt.algebra.structure_constants, phi))

    emb = phi @ src.theta.matrix - tgt.theta.matrix @ psi
    col.scan("embedding-intertwined", emb)

    act = psi @ src.action.action_matrices - \
        np.einsum("ai,auv->iuv", phi, tgt.action.action_matrices) @ psi
    col.scan("action-intertwined", act)
    return col.report()


# ---------------------------------------------------------------------------
# Lie algebra crossed modules
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LieAlgebraCrossedModule:
    """Algebras m, n with a boundary map mu: m -> n and an n-action on m.

    ``n_prime`` optionally restricts the equivariance condition to a
    subalgebra of n; it must contain the image of mu.
    """

    m: LieAlgebraData
    n: LieAlgebraData
    mu: np.ndarray
    eta: ModuleAction
    n_prime: SubspaceBasis | None = None

    def __post_init__(self):
        set_frozen(self, mu=frozen_array(self.mu, (self.n.dim, self.m.dim),
                                         "boundary map"))
        same_algebra(self.eta.algebra, self.n, "action")
        if self.eta.dim_v != self.m.dim:
            raise StructuralError("action shape does not match the two algebras")
        if self.n_prime is not None and self.n_prime.ambient_dim != self.n.dim:
            raise StructuralError("restriction subalgebra in wrong ambient space")


def check_lie_crossed_module(cm: LieAlgebraCrossedModule,
                             tol: float = DEFAULT_TOL) -> ValidityReport:
    """Boundary homomorphism, action-by-derivations, and the two crossed
    module conditions; equivariance is restricted to ``n_prime`` when given.

    Both conditions are tables of the triple (n, m, mu): equivariance is its
    vanishing defect, and Peiffer says its derived bracket is the bracket of m.

    ``info['equivariance_failures_unrestricted']`` lists basis pairs where
    the unrestricted equivariance condition fails, so relaxed examples can
    exhibit genuine violations without failing the check.
    """
    M, N, mu, eta = cm.m, cm.n, cm.mu, cm.eta
    col = Collector(tol)
    for part in (check_lie_algebra(M, tol), check_lie_algebra(N, tol),
                 check_module(eta, tol)):
        col.merge(part)

    col.scan("boundary-homomorphism", bracket_map_residuals(
        M.structure_constants, N.structure_constants, mu))

    if cm.n_prime is not None:
        scope = cm.n_prime.vectors
        if not bracket_closure_check(N, cm.n_prime, tol):
            col.add("restriction-subalgebra")
        col.scan("restriction-contains-image", np.max(cm.n_prime.distance(mu.T)))
    else:
        scope = np.eye(N.dim)

    # action by derivations of the bracket of m, one row per n in scope
    Bm, E = M.structure_constants, np.einsum("pi,iab->pab", scope, eta.action_matrices)
    scan_rows(col, "action-by-derivations", len(E), M.dim ** 3, lambda s: np.max(
        np.abs(derivation_residuals(Bm, E, s)), axis=(1, 2, 3)))

    # condition one: mu(eta(n)(m)) = [n, mu(m)], per row of scope
    theta = EmbeddingTensor(mu)
    defect = _defect_stack(N, eta, theta)
    col.scan("equivariance", np.max(np.abs(
        scope @ defect.reshape(N.dim, -1)), axis=1))
    outside = Collector(tol)            # condition one on all of n, per (n, m)
    outside.scan("equivariance", np.max(np.abs(defect), axis=1))

    # condition two: eta(mu(m)) = ad(m), one matrix per basis element of m
    col.scan("peiffer", np.swapaxes(derived_bracket_tensor(eta, theta) - Bm, 1, 2))
    return col.report({
        "restricted": cm.n_prime is not None,
        "equivariance_failures_unrestricted": [
            v.where + (v.residual,) for v in outside.violations]})


def triple_from_crossed_module(cm: LieAlgebraCrossedModule,
                               tol: float = DEFAULT_TOL) -> RelaxedAugmentation:
    """The triple (n, m, mu) of a crossed module, with its augmentation.

    The module structure is the crossed module action and the embedding is
    the boundary map; the second crossed module condition (Peiffer) makes
    the derived bracket coincide with the bracket of m.  The returned
    augmentation carries ``n_prime`` when present, otherwise all of n (the
    strict case).  :func:`check_lie_crossed_module` has checked the laws of
    n and of eta, and the triple's embedding residual is mu of the Peiffer
    residual plus the boundary residual (tests/test_theorems.py), so the
    triple is built unchecked.
    """
    check_lie_crossed_module(cm, tol).require("lie-crossed-module")
    triple = LieLeibnizTriple(cm.n, cm.eta, EmbeddingTensor(cm.mu))
    h = cm.n_prime if cm.n_prime is not None else SubspaceBasis(
        cm.n.dim, np.eye(cm.n.dim))
    return RelaxedAugmentation(triple, h)


def identity_crossed_module(alg: LieAlgebraData) -> LieAlgebraCrossedModule:
    """(g, g, id) with the adjoint action; strict."""
    return LieAlgebraCrossedModule(alg, alg, np.eye(alg.dim),
                                   alg.adjoint_action())


def ideal_crossed_module(alg: LieAlgebraData,
                         sub: SubspaceBasis) -> LieAlgebraCrossedModule:
    """(ideal, g, inclusion) with the restricted adjoint action; strict."""
    action, m_constants = _ideal_action(alg, sub)
    m_alg = lie_algebra(m_constants)
    return LieAlgebraCrossedModule(m_alg, alg, sub.vectors.T, action)


def scaling_crossed_module(lam: float) -> LieAlgebraCrossedModule:
    """One-parameter family over the nonabelian two-dimensional algebra.

    The generator a acts on the one-dimensional ideal by lam instead of its
    adjoint weight 1; for lam != 1 equivariance fails off span(b) and the
    crossed module only exists relative to that restriction.
    """
    n, eta, theta = _scaling_parts(lam)
    n_prime = None if lam == 1.0 else SubspaceBasis(2, [[0.0, 1.0]])
    return LieAlgebraCrossedModule(catalog.abelian(1), n, theta.matrix, eta,
                                   n_prime)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _ideal_action(alg: LieAlgebraData, sub: SubspaceBasis):
    """Adjoint action restricted to an ideal, in the ideal's own basis.

    Returns the ModuleAction of alg on the ideal and the induced structure
    constants of the ideal.  StructuralError when brackets leave the span.
    """
    W, C = sub.vectors, alg.structure_constants

    def coordinates(Z, message):
        """Coordinates in the rows of W of a (p, q, n) stack, as (p, q, k)."""
        if np.any(sub.distance(Z) > 1e-9):
            raise StructuralError(message)
        coeff, *_ = np.linalg.lstsq(W.T, Z.reshape(-1, alg.dim).T, rcond=None)
        return coeff.T.reshape(Z.shape[:-1] + (sub.dim,))

    A = coordinates(brackets(C, np.eye(alg.dim), W), "subspace is not an ideal")
    m_C = coordinates(brackets(C, W, W), "subspace is not closed under the bracket")
    return ModuleAction(alg, sub.dim, np.swapaxes(A, 1, 2)), m_C


def _scaling_parts(lam: float, eps: float = 0.0) -> tuple:
    """The nonabelian two-dimensional algebra, its action on a line by lam
    (a acts by the scalar lam, b by 0) and the embedding (eps, 1)^T."""
    alg = catalog.nonabelian2()
    action = ModuleAction(alg, 1, np.array([[[float(lam)]], [[0.0]]]))
    return alg, action, EmbeddingTensor(np.array([[float(eps)], [1.0]]))


def scaling_triple(lam: float) -> LieLeibnizTriple:
    """The one-parameter triple over the nonabelian two-dimensional algebra.

    V is one dimensional, theta sends the generator to b, and a acts by the
    scalar lam.  Valid for every lam; strict exactly at lam = 1, where the
    action agrees with the adjoint weight of b.
    """
    return build_triple(*_scaling_parts(lam))


def ideal_triple(alg: LieAlgebraData, sub: SubspaceBasis,
                 scale: float = 1.0) -> LieLeibnizTriple:
    """Strict triple from an ideal: V = ideal, theta = scaled inclusion."""
    action, _ = _ideal_action(alg, sub)
    theta = EmbeddingTensor(float(scale) * sub.vectors.T)
    return build_triple(alg, action, theta)


RANDOM_FAMILIES = ("strict_from_ideal", "scaling_family", "perturbed_invalid")

_SCALING_GRID = (-1.0, 0.0, 0.5, 1.0, 2.0)
_PERTURBED_GRID = (0.75, 1.0, 1.5, 2.0)


def random_triple(seed: int, family: str, *, algebra=None, ideal=None,
                  scale=None, lam=None, eps=0.1):
    """Deterministic seeded instances for the corpus; a parameter left at
    None is drawn from the seed.

    ``strict_from_ideal`` (``algebra``, ``ideal``, ``scale``) and
    ``scaling_family`` (``lam``) return validated triples.
    ``perturbed_invalid`` (``lam``, ``eps``) returns raw components (algebra,
    action, embedding) whose embedding has been tilted by ``eps`` out of the
    ideal, so building them is expected to fail; callers decide whether to
    feed them to check_triple or build_triple.
    """
    rng = np.random.default_rng(seed)
    if family == "strict_from_ideal":
        if algebra is None or ideal is None:
            algebra, ideal = catalog.IDEAL_CHOICES[
                int(rng.integers(len(catalog.IDEAL_CHOICES)))]
        if scale is None:
            scale = float(rng.choice([0.5, 1.0, 2.0]))
        return ideal_triple(catalog.algebra_by_name(algebra),
                            catalog.ideal_subspace(algebra, ideal), scale)
    if family == "scaling_family":
        if lam is None:
            lam = float(rng.choice(_SCALING_GRID))
        return scaling_triple(lam)
    if family == "perturbed_invalid":
        if lam is None:
            lam = float(rng.choice(_PERTURBED_GRID))
        return _scaling_parts(lam, eps)
    raise StructuralError(
        f"unknown family {family!r}; known: {RANDOM_FAMILIES}")
