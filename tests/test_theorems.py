"""Theorems that the checkers do not evaluate, tested as properties.

A checker evaluates the defining laws of its object once.  A law that an
identity derives from laws the same check evaluates is not run again; each
such identity is tested here, on perturbed catalog and scaling triples,
random morphisms and corrupted tables:

1. Leibniz.  With E the embedding table of ``check_triple``
   (``bracket_map_residuals(B, C, theta)``), R the module table
   (from the boxes of ``homomorphism_boxes(C, A)``) and L the
   ``check_leibniz`` table of the derived bracket B,

       L[u,v,w,k] = -sum_a E[u,v,a] A[a,k,w]
                    - sum_ij theta[i,u] theta[j,v] R[i,j,k,w],

   so |L| <= n max|A| max|E| + n^2 max|theta|^2 max|R|.
2. Triple morphisms.  The derived-bracket table of psi is

       D[u,v,a] = sum_i theta_s[i,u] Act[i,a,v]
                  + sum_jb Emb[j,u] A_t[j,a,b] psi[b,v],

   with Act and Emb the action- and embedding-intertwined tables, so
   |D| <= n_s max|theta_s| max|Act| + n_t d_t max|A_t| max|psi| max|Emb|.
3. Rack-triple morphisms.  psi(theta_s(x).y) = act_t[phi theta_s(x), psi y]
   = theta_t(psi x).psi y wherever the two intertwining laws hold at
   (theta_s x, y) and at x: psi is a map of derived racks, exactly.
4. Crossed modules.  The embedding table of the triple (n, m, mu) is mu of
   the Peiffer table plus the boundary-homomorphism table, so the triple of
   a checked crossed module needs no check: its Leibniz law follows by 1.
5. Group-rack triples.  With g = theta(x), h = theta(y) and g^-1 the
   two-sided inverse every FiniteGroup has, composition alone gives
   (g h g^-1).(g.z) = (g h).(g^-1.(g.z)) = (g h).z = g.(h.z), so the
   conjugation identity makes the derived rack x > y = g.y self-distributive;
   g^-1.(g.z) = z makes each row a bijection, and theta(p) = e makes p act
   trivially.  Its basepoint-fixed law is independent and checked as such.
   No associativity is used: the table may be any that constructs.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import cache
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from leibrack import (AxiomError, EmbeddingTensor, FiniteGroup, FiniteRack,
                      GroupRackTriple, LeibnizAlgebraData,
                      LieAlgebraCrossedModule, ModuleAction, TripleMorphism,
                      algebra, catalog, check_group, check_group_rack_triple,
                      check_lie_crossed_module, check_morphism, check_rack,
                      check_rack_triple_morphism, conjugation_triple,
                      ideal_crossed_module, lie_algebra, racks,
                      triple_from_crossed_module)
from leibrack.algebra import (bracket_map_residuals, check_leibniz,
                              check_lie_algebra, check_module,
                              derivation_residuals)
from leibrack.cli import EXIT_PASS, main
from leibrack.triples import LieLeibnizTriple, derived_bracket_tensor
from test_cli import gl_doc, rack_doc, write_doc
from test_triples import (LAMBDA_GRID, base_crossed_module, base_triple,
                          crossed_module_in, dense_basis, triple_in)

TOL = 1e-9
EPS = np.finfo(float).eps
TRIPLES = [("scaling", lam) for lam in LAMBDA_GRID] + \
    [("ideal", name) for name in ("heisenberg", "ut3", "sl2")]
CROSSED = [("identity", "sl2"), ("identity", "heisenberg"), ("identity", "ut3"),
           ("ideal", "heisenberg"), ("ideal", "ut3"), ("scaling", 1.0),
           ("scaling", 2.0), ("scaling", -1.0)]
SHAKES = st.sampled_from([0.0, 1e-13, 1e-10, 1e-7, 1e-3, 1e-1])
GROUPS = catalog.group_catalog()
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


def peak(x) -> float:
    return float(np.max(np.abs(x), initial=0.0))


def slack(*scales) -> float:
    """A rounding allowance for an identity between tables whose entries
    are sums of products of entries of size at most ``scales``."""
    return 256 * EPS * float(np.prod([1.0 + s for s in scales]))


def shaken(triple, where, shake, rng):
    """The triple with random noise of size ``shake`` on its ``where`` part;
    the result breaks the laws that part enters."""
    C, A = triple.algebra.structure_constants, triple.action.action_matrices
    Th = triple.theta.matrix
    noise = {"algebra": C, "action": A, "theta": Th}[where]
    noise = shake * rng.standard_normal(noise.shape)
    alg = lie_algebra(C + noise) if where == "algebra" else triple.algebra
    action = ModuleAction(alg, triple.dim_v, A + noise if where == "action" else A)
    return LieLeibnizTriple(alg, action, EmbeddingTensor(
        Th + noise if where == "theta" else Th))


@st.composite
def perturbed_triples(draw):
    kind, arg = draw(st.sampled_from(TRIPLES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    base = base_triple(kind, arg)
    triple = triple_in(base, dense_basis(rng, base.dim_g),
                       dense_basis(rng, base.dim_v))
    where = draw(st.sampled_from(["algebra", "action", "theta"]))
    return shaken(triple, where, draw(SHAKES), rng)


# ---------------------------------------------------------------------------
# 1. the Leibniz law of the derived bracket
# ---------------------------------------------------------------------------

def table_of(shape: tuple, boxes) -> np.ndarray:
    """The whole residual table from a kernel's boxes, each copied in before
    the next is drawn."""
    table = np.full(shape, np.nan)
    for corner, res in boxes:
        table[tuple(slice(c, c + n) for c, n in zip(corner, res.shape))] = res
    return table


def assert_leibniz_theorem(triple: LieLeibnizTriple):
    """Identity 1 to rounding, and its bound whenever the premises pass.
    The tables come from the checkers' own kernels, looked up at call time."""
    C, A = triple.algebra.structure_constants, triple.action.action_matrices
    Th, B = triple.theta.matrix, triple.derived_bracket.bracket_tensor
    n = triple.dim_g
    L = derivation_residuals(B, B.transpose(0, 2, 1), slice(None))
    E = bracket_map_residuals(B, C, Th)
    R = table_of((n, n) + A.shape[1:], algebra.homomorphism_boxes(C, A))
    implied = -np.einsum("uva,akw->uvwk", E, A) - \
        np.einsum("iu,jv,ijkw->uvwk", Th, Th, R)
    room = slack(n, peak(C), peak(A), peak(A), peak(Th), peak(Th), triple.dim_v)
    assert peak(L - implied) <= room
    bound = n * peak(A) * peak(E) + n * n * peak(Th) ** 2 * peak(R)
    assert peak(L) <= bound + room

    if check_module(triple.action, TOL).passed and peak(E) <= TOL:
        leibniz = check_leibniz(LeibnizAlgebraData(triple.dim_v, B), TOL)
        assert leibniz.max_residual <= \
            (n * peak(A) + n * n * peak(Th) ** 2) * TOL + room


@PROPERTY
@given(triple=perturbed_triples())
def test_leibniz_is_implied_by_the_module_and_embedding_laws(triple):
    assert_leibniz_theorem(triple)


def test_the_leibniz_property_catches_a_broken_module_kernel(monkeypatch):
    # drop the second commutator term of the module law's kernel: the
    # identity no longer holds, on valid and on perturbed triples alike
    def mutant(C, A):
        n, m = len(A), A.shape[1]
        want = (C.reshape(-1, n) @ A.reshape(n, m * m)).reshape(n, n, m, m)
        yield (0, 0, 0, 0), want - A[:, None] @ A[None]
    rng = np.random.default_rng(7)
    triples = (base_triple("ideal", "sl2"),
               shaken(base_triple("ideal", "ut3"), "theta", 1e-3, rng))
    monkeypatch.setattr(algebra, "homomorphism_boxes", mutant)
    for triple in triples:
        with pytest.raises(AssertionError):
            assert_leibniz_theorem(triple)


# ---------------------------------------------------------------------------
# 2. triple morphisms respect the derived brackets
# ---------------------------------------------------------------------------

@st.composite
def morphisms(draw):
    kind, arg = draw(st.sampled_from(TRIPLES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    base = base_triple(kind, arg)
    n, d = base.dim_g, base.dim_v
    P1, R1, P2, R2 = (dense_basis(rng, k) for k in (n, d, n, d))
    src, tgt = triple_in(base, P1, R1), triple_in(base, P2, R2)
    part, shake = draw(st.sampled_from(["phi", "psi", "action", "theta"])), draw(SHAKES)
    if part in ("action", "theta"):     # one broken part, so one premise fails
        tgt = shaken(tgt, part, shake, rng)
    phi, psi = np.linalg.inv(P2) @ P1, np.linalg.inv(R2) @ R1
    return TripleMorphism(src, tgt, phi + (part == "phi") * shake * rng.standard_normal(
        (n, n)), psi + (part == "psi") * shake * rng.standard_normal((d, d)))


@PROPERTY
@given(mor=morphisms())
def test_morphisms_respect_the_derived_brackets(mor):
    src, tgt, phi, psi = mor.source, mor.target, mor.phi, mor.psi
    Ts, At = src.theta.matrix, tgt.action.action_matrices
    emb = phi @ Ts - tgt.theta.matrix @ psi
    act = psi @ src.action.action_matrices - \
        np.einsum("ai,auv->iuv", phi, At) @ psi
    D = bracket_map_residuals(src.derived_bracket.bracket_tensor,
                              tgt.derived_bracket.bracket_tensor, psi)
    implied = np.einsum("iu,iav->uva", Ts, act) + \
        np.einsum("ju,jab,bv->uva", emb, At, psi)
    room = slack(src.dim_g, tgt.dim_g, tgt.dim_v, peak(Ts), peak(phi),
                 peak(src.action.action_matrices), peak(At), peak(psi),
                 peak(psi), peak(tgt.theta.matrix))
    assert peak(D - implied) <= room
    scale_act = src.dim_g * peak(Ts)
    scale_emb = tgt.dim_g * tgt.dim_v * peak(At) * peak(psi)
    assert peak(D) <= scale_act * peak(act) + scale_emb * peak(emb) + room
    if check_morphism(mor, TOL).passed:
        assert peak(D) <= (scale_act + scale_emb) * TOL + room


# ---------------------------------------------------------------------------
# 3. rack-triple morphisms are maps of the derived racks
# ---------------------------------------------------------------------------

def corrupted(triple: GroupRackTriple, how: str, rng) -> GroupRackTriple:
    act, th = np.array(triple.action_table), np.array(triple.theta_table)
    g = int(rng.integers(1, triple.group.size))
    if how == "rolled-action-row":
        act[g] = np.roll(act[g], 1)
    elif how == "swapped-action-entries":
        act[g, [0, -1]] = act[g, [-1, 0]]
    elif how == "moved-theta-entry":
        th[g % triple.x_size] = rng.integers(triple.group.size)
    return GroupRackTriple(triple.group, triple.x_size, act, th, triple.basepoint)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(["s3", "d4", "q8", "a4", "z6"]),
       src_how=st.sampled_from(["clean", "rolled-action-row",
                                "swapped-action-entries", "moved-theta-entry"]),
       tgt_how=st.sampled_from(["clean", "rolled-action-row", "moved-theta-entry"]),
       phi_kind=st.sampled_from(["identity", "trivial"]),
       psi_kind=st.sampled_from(["phi", "random", "swapped"]),
       seed=st.integers(0, 2 ** 16))
def test_rack_triple_morphisms_map_the_derived_racks(name, src_how, tgt_how,
                                                     phi_kind, psi_kind, seed):
    rng = np.random.default_rng(seed)
    clean = conjugation_triple(GROUPS[name])
    source, target = corrupted(clean, src_how, rng), corrupted(clean, tgt_how, rng)
    size = clean.group.size
    phi = np.arange(size) if phi_kind == "identity" else np.zeros(size, int)
    psi = {"phi": phi, "random": rng.integers(size, size=size),
           "swapped": np.where(np.isin(phi, [1, 2]), 3 - phi, phi)}[psi_kind]
    emb_bad = target.theta_table[psi] != phi[source.theta_table]
    act_bad = psi[source.action_table] != target.action_table[phi][:, psi]
    Ts = source.action_table[source.theta_table]       # the derived racks
    Tt = target.action_table[target.theta_table]
    rack_map_bad = psi[Ts] != Tt[psi][:, psi]
    # exact: a failure of the consequence needs a failure of a premise
    assert not (rack_map_bad & ~emb_bad[:, None]
                & ~act_bad[source.theta_table]).any()
    report = check_rack_triple_morphism(source, target, phi, psi)
    if report.passed:
        assert not rack_map_bad.any()


# ---------------------------------------------------------------------------
# 4. the triple of a crossed module satisfies the embedding law
# ---------------------------------------------------------------------------

@PROPERTY
@given(case=st.sampled_from(CROSSED), seed=st.integers(0, 2 ** 16),
       where=st.sampled_from(["mu", "eta", "m"]), shake=SHAKES)
def test_the_crossed_module_laws_imply_the_embedding_law(case, seed, where,
                                                         shake):
    rng = np.random.default_rng(seed)
    cm = base_crossed_module(*case)
    cm = crossed_module_in(cm, dense_basis(rng, cm.m.dim),
                           dense_basis(rng, cm.n.dim))
    Bm, mu = cm.m.structure_constants, np.array(cm.mu)
    A = np.array(cm.eta.action_matrices)
    noise = {"mu": mu, "eta": A, "m": Bm}[where]
    noise = shake * rng.standard_normal(noise.shape)
    m = lie_algebra(Bm + noise) if where == "m" else cm.m
    cm = LieAlgebraCrossedModule(
        m, cm.n, mu + noise if where == "mu" else mu,
        ModuleAction(cm.n, cm.m.dim, A + noise if where == "eta" else A))
    mu, Bm, Bn = cm.mu, cm.m.structure_constants, cm.n.structure_constants
    theta = EmbeddingTensor(mu)
    B = derived_bracket_tensor(cm.eta, theta)
    E = bracket_map_residuals(B, Bn, mu)
    peiffer, boundary = B - Bm, bracket_map_residuals(Bm, Bn, mu)
    room = slack(cm.m.dim, cm.n.dim, peak(mu), peak(mu), peak(mu),
                 peak(cm.eta.action_matrices), peak(Bm), peak(Bn))
    assert peak(E - np.einsum("uvk,ak->uva", peiffer, mu) - boundary) <= room
    if check_lie_crossed_module(cm, TOL).passed:
        triple = triple_from_crossed_module(cm, TOL).triple
        assert peak(E) <= (cm.m.dim * peak(mu) + 1) * TOL + room
        assert_leibniz_theorem(triple)


# ---------------------------------------------------------------------------
# 5. the derived rack of a group-rack triple
# ---------------------------------------------------------------------------

def derived_table(triple: GroupRackTriple) -> np.ndarray:
    """x > y = theta(x).y"""
    return triple.action_table[triple.theta_table]


@cache
def lawful_actions(table: bytes, n: int, xs: int) -> np.ndarray:
    """Every action of the table (unit 0) on range(xs) in which the unit acts
    trivially and (gh).z = g.(h.z); with inverses, its rows are
    permutations."""
    M = np.frombuffer(table, dtype=np.int64).reshape(n, n)
    perms = np.array(list(permutations(range(xs))))
    acts = [np.concatenate([perms[:1], perms[list(rows)]])
            for rows in product(range(len(perms)), repeat=n - 1)]
    return np.array([A for A in acts if np.array_equal(A[M], A[:, A])])


@st.composite
def unital_tables(draw) -> FiniteGroup:
    """A table with unit 0 that constructs, so each element has a two-sided
    inverse; it need not be associative."""
    kind = draw(st.sampled_from(["random", "catalog", "swapped"]))
    if kind == "random":
        n = draw(st.integers(1, 4))
        M = np.add.outer(np.arange(n), np.zeros(n, int))
        M[0], M[1:, 1:] = np.arange(n), np.reshape(draw(st.lists(
            st.integers(0, n - 1), min_size=(n - 1) ** 2,
            max_size=(n - 1) ** 2)), (n - 1, n - 1))
    elif kind == "catalog":
        M = GROUPS[draw(st.sampled_from(["z2", "z3", "z4", "s3"]))].mul_table
    else:           # two entries of a row, neither in a unit column: no group,
        M = np.array(GROUPS[draw(st.sampled_from(["z4", "s3"]))].mul_table)
        a = draw(st.integers(1, len(M) - 1))     # but every inverse pair kept
        b, c = draw(st.permutations(np.flatnonzero(M[a] * np.arange(len(M)))
                                    .tolist()))[:2]
        M[a, [b, c]] = M[a, [c, b]]
    try:
        return FiniteGroup(M)
    except AxiomError:
        reject()


@st.composite
def small_rack_triples(draw) -> GroupRackTriple:
    """A group-rack triple over a small table: any action, or one that obeys
    the action laws; any theta, or one sending the basepoint to the unit."""
    G, xs = draw(unital_tables()), draw(st.integers(1, 3))
    if draw(st.booleans()):
        acts = lawful_actions(G.mul_table.tobytes(), G.size, xs)
        act = acts[draw(st.integers(0, len(acts) - 1))]
    else:
        act = np.reshape(draw(st.lists(st.integers(0, xs - 1),
                                       min_size=G.size * xs,
                                       max_size=G.size * xs)), (G.size, xs))
    theta = np.array(draw(st.lists(st.integers(0, G.size - 1), min_size=xs,
                                   max_size=xs)))
    p = draw(st.integers(0, xs - 1))
    if draw(st.booleans()):
        theta[p] = G.unit
    return GroupRackTriple(G, xs, act, theta, p)


def assert_derived_rack_theorem(triple: GroupRackTriple):
    """Identity 5, exactly: each failure of a derived-rack law that the
    triple's check does not evaluate needs a failure of a premise at the
    indices the proof uses; so a triple that passes has a derived rack that
    passes."""
    G, act, th, p = triple.group, triple.action_table, triple.theta_table, \
        triple.basepoint
    M, inv, X = G.mul_table, G.inverse_table, np.arange(triple.x_size)
    unit_bad = act[G.unit] != X                                     # over z
    comp_bad = act[M] != act[:, act]                                # (g, h, z)
    conj_bad = th[act[th]] != M[M[th[:, None], th], inv[th][:, None]]  # (x, y)
    T = derived_table(triple)

    g, h, z = th[:, None, None], th[None, :, None], X
    undo_bad = comp_bad[inv[g], g, z] | unit_bad[z]    # g^-1.(g.z) != z
    sd_bad = T[:, T] != T[T[:, :, None], T[:, None, :]]
    premise = conj_bad[:, :, None] | comp_bad[M[g, h], inv[g], act[g, z]] | \
        undo_bad | comp_bad[g, h, z]
    assert not (sd_bad & ~premise).any()
    bijective_bad = np.any(np.sort(T, axis=1) != X, axis=1)
    assert not (bijective_bad & ~undo_bad[:, 0].any(axis=1)).any()
    assert not ((T[p] != X) & ~((th[p] != G.unit) | unit_bad)).any()

    if check_group_rack_triple(triple).passed:
        assert check_rack(FiniteRack(triple.x_size, T, p)).passed


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(triple=small_rack_triples())
def test_a_passing_rack_triple_has_a_passing_derived_rack(triple):
    assert_derived_rack_theorem(triple)


def test_every_z2_triple_on_three_points_obeys_the_theorem():
    # the unit acts trivially; the other element acts by any map, lawful or
    # not, with any theta and basepoint
    z2, counts = GROUPS["z2"], Counter()
    for row, theta, p in product(product(range(3), repeat=3),
                                 product(range(2), repeat=3), range(3)):
        triple = GroupRackTriple(z2, 3, [(0, 1, 2), row], theta, p)
        assert_derived_rack_theorem(triple)
        counts[check_group_rack_triple(triple).passed] += 1
    assert counts == Counter({False: 624, True: 24})


def z2_swapping_0_and_2() -> GroupRackTriple:
    """Z2 acting on {0, 1, 2} by swapping 0 and 2, theta = (0, 1, 0), p = 0:
    every other law holds, but theta(1) = 1 moves the basepoint."""
    return GroupRackTriple(GROUPS["z2"], 3, [[0, 1, 2], [2, 1, 0]], [0, 1, 0], 0)


def test_the_derived_basepoint_fixed_law_is_independent():
    triple = z2_swapping_0_and_2()
    report = check_group_rack_triple(triple)
    assert not report.passed and report.info["failures"] == 1
    assert [(v.law, v.where) for v in report.violations] == \
        [("basepoint-fixed", (1,))]
    rack = check_rack(FiniteRack(3, derived_table(triple), 0))
    assert [(v.law, v.where) for v in rack.violations] == \
        [("basepoint-fixed", (1,))]
    assert_derived_rack_theorem(triple)


def test_without_the_basepoint_fixed_table_the_counterexample_passes(
        monkeypatch):
    # a check that drops its basepoint-fixed table passes a triple whose
    # derived rack fails: the table is needed, not implied
    class Mutant(racks.Collector):
        def table(self, law, *args, **kwargs):
            if law != "basepoint-fixed":
                super().table(law, *args, **kwargs)
    triple = z2_swapping_0_and_2()
    assert not check_rack(FiniteRack(3, derived_table(triple), 0)).passed
    monkeypatch.setattr(racks, "Collector", Mutant)
    assert check_group_rack_triple(triple).passed


# ---------------------------------------------------------------------------
# the deleted re-checks stay deleted
# ---------------------------------------------------------------------------

def count_calls(functions, run) -> Counter:
    """Calls of each of ``functions`` by name while ``run()`` runs, however
    its callers look it up."""
    codes = {f.__code__: f.__name__ for f in functions}
    seen = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen[codes[frame.f_code]] += 1
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


def test_verify_of_a_gl_spec_runs_no_leibniz_check(tmp_path, capsys):
    path, codes = write_doc(tmp_path, "gl3.json", gl_doc(3)), []
    counts = count_calls([check_leibniz, check_module],
                         lambda: codes.append(main(["verify", path])))
    assert codes == [EXIT_PASS] and counts == Counter(check_module=1)


def test_a_rack_triple_morphism_builds_no_derived_rack():
    triple = conjugation_triple(GROUPS["a4"])
    phi = np.arange(triple.group.size)
    reports = []
    counts = count_calls([FiniteRack.__post_init__], lambda: reports.append(
        check_rack_triple_morphism(triple, triple, phi, phi)))
    assert reports[0].passed and counts == Counter()


def test_verify_of_a_rack_spec_runs_no_rack_check(tmp_path, capsys):
    path, codes = write_doc(tmp_path, "s3.json", rack_doc()), []
    counts = count_calls([check_rack, check_group, FiniteRack.__post_init__],
                         lambda: codes.append(main(["verify", path])))
    assert codes == [EXIT_PASS] and counts == Counter(check_group=1)


def test_a_crossed_module_triple_is_checked_once():
    cm = ideal_crossed_module(catalog.heisenberg(),
                              catalog.ideal_subspace("heisenberg", "plane"))
    counts = count_calls([check_lie_algebra, check_module, check_leibniz],
                         lambda: triple_from_crossed_module(cm))
    assert counts == Counter(check_lie_algebra=2, check_module=1)

