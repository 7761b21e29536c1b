"""Seeded case generator for the benchmark workloads.

Every case is one system taken to a verdict, and carries the verdict known by
construction: valid inputs are built from exact algebra (matrix units,
conjugation tables, catalog ideals) and invalid ones are broken in a way that
provably violates a checked law.  The program only ever sees the generated
spec files and objects; the seed decides every random choice.

A workload is a fixed list of cases, one *round*.  The runner repeats whole
rounds, so every run of a workload has the same composition of case kinds
whatever the seed, and only sizes of perturbations, bases and suite seeds
move with it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from itertools import permutations

import numpy as np

from leibrack import catalog, racks, triples
from leibrack.algebra import lie_algebra
from leibrack.cli import EXIT_AXIOM, EXIT_PASS

# integrate-suites: law-suite sample counts; the builtins run at all three,
# the catalog ideal triples at the middle one
SUITE_SAMPLES = (50, 200, 800)
SUITE_STEP = 2e-3
# schemes alternate over the cases in a fixed order, so the seed does not
# change how much work a round holds
SUITE_SCHEMES = ("central", "richardson")
# integrate-recover: the law suites stay small so the stencils dominate
RECOVER_SAMPLES = 20
RECOVER_SIZES = (2, 3, 4, 5)
VERIFY_GL_SIZES = (3, 4, 5, 6, 7)
SYMMETRIC_SIZES = (3, 4, 5)


@dataclasses.dataclass(frozen=True)
class Case:
    """One benchmark case and its expected verdict.

    A CLI case has ``argv`` (spec paths relative to the spec directory) and
    an expected exit code; a direct case has ``call`` = (module, function,
    args) and is judged on the ``passed`` flag of the returned report.
    ``samples`` is the law-suite sample count requested per suite.
    """

    id: str
    expect_passed: bool
    argv: tuple = ()
    spec: str | None = None
    call: tuple | None = None
    expect_exit: int | None = None
    samples: int = 0

    def resolved_argv(self, spec_dir: str) -> list:
        return [os.path.join(spec_dir, a) if a == self.spec else a
                for a in self.argv]


# ---------------------------------------------------------------------------
# inputs built in code
# ---------------------------------------------------------------------------

def gl_constants(n: int) -> np.ndarray:
    """Structure constants of gl(n) in the matrix-unit basis E_ij -> i*n + j.

    [E_ij, E_kl] = delta_jk E_il - delta_li E_kj.
    """
    d = n * n
    C = np.zeros((d, d, d))
    for i in range(n):
        for j in range(n):
            for l in range(n):
                C[i * n + j, j * n + l, i * n + l] += 1.0
            for k in range(n):
                C[i * n + j, k * n + i, k * n + j] -= 1.0
    return C


def matrix_units(n: int) -> np.ndarray:
    """The natural (faithful) representation of gl(n): E_ij as n x n matrices."""
    E = np.zeros((n * n, n, n))
    for i in range(n):
        for j in range(n):
            E[i * n + j, i, j] = 1.0
    return E


def adjoint_matrices(C: np.ndarray) -> np.ndarray:
    """ad(e_a) for every basis vector: A[a][k, b] = C[a, b, k]."""
    return np.ascontiguousarray(np.swapaxes(C, 1, 2))


def change_basis(C: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Structure constants in the basis f_a = sum_b P[b, a] e_b."""
    return np.einsum("ia,jb,ijk,ck->abc", P, P, C, np.linalg.inv(P))


def dense_basis(rng, d: int) -> np.ndarray:
    """A seeded well-conditioned change of basis: orthogonal times a mild
    diagonal scaling, so roundoff stays far below the checker tolerance."""
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return Q * rng.uniform(0.8, 1.25, size=d)


def _sparse(C: np.ndarray) -> list:
    return [[int(i), int(j), int(k), float(C[i, j, k])]
            for i, j, k in zip(*np.nonzero(C))]


def triple_doc(C, action, theta, rep=None, config=None, morphism=None) -> dict:
    doc = {
        "lie_algebra": {"dim": int(C.shape[0]), "structure_constants": _sparse(C)},
        "module": {"dim_v": int(action.shape[1]),
                   "action_matrices": np.asarray(action).tolist()},
        "theta": {"matrix": np.asarray(theta).tolist()},
    }
    if rep is not None:
        doc["faithful_rep"] = {"matrices": np.asarray(rep).tolist()}
    if config is not None:
        doc["config"] = config
    if morphism is not None:
        doc["morphism"] = morphism
    return doc


def adjoint_doc(C, theta=None, **extra) -> dict:
    d = C.shape[0]
    return triple_doc(C, adjoint_matrices(C),
                      np.eye(d) if theta is None else theta, **extra)


def rack_doc(mul, action, theta, basepoint=0) -> dict:
    mul = np.asarray(mul)
    return {"group": {"size": int(mul.shape[0]), "mul_table": mul.tolist()},
            "x_size": int(np.asarray(action).shape[1]),
            "action_table": np.asarray(action).tolist(),
            "theta_table": np.asarray(theta).tolist(),
            "basepoint": int(basepoint)}


def symmetric_group(n: int) -> racks.FiniteGroup:
    return catalog.group_from_permutations(permutations(range(n)))


def _tilt(rng, d: int) -> np.ndarray:
    """I + eps E_ab with a != b.  No such map commutes with every ad_x of
    gl(n), so a triple, morphism or crossed module tilted by it is invalid."""
    a, b = rng.choice(d, size=2, replace=False)
    T = np.eye(d)
    T[a, b] += float(rng.uniform(1e-3, 1e-1))
    return T


def _broken_bracket(rng, C: np.ndarray) -> np.ndarray:
    """Shift one bracket entry (antisymmetrically) while the module keeps the
    old adjoint matrices: the module homomorphism law then fails by the shift
    times ad(e_k), which is nonzero for every matrix unit e_k."""
    d = C.shape[0]
    i, j = rng.choice(d, size=2, replace=False)
    k = int(rng.integers(d))
    eps = float(rng.uniform(1e-3, 1e-1))
    B = C.copy()
    B[i, j, k] += eps
    B[j, i, k] -= eps
    return B


def _swapped_mul(rng, group: racks.FiniteGroup) -> np.ndarray:
    """Swap two entries of one row of the table, keeping the unit entries.

    The row stays a permutation and every inverse pair survives, but two
    columns now repeat an entry, so the table is no Latin square and hence no
    group: associativity or the inverse law must fail."""
    mul = np.array(group.mul_table)
    e = group.unit
    a = int(rng.integers(1, group.size))
    cols = [c for c in range(group.size) if c != e and mul[a, c] != e]
    b, c = rng.choice(cols, size=2, replace=False)
    mul[a, b], mul[a, c] = mul[a, c], mul[a, b]
    return mul


def _rolled_row(rng, table: np.ndarray, unit: int) -> np.ndarray:
    """Roll one non-unit row by one place.  A rolled permutation differs from
    itself, so composition with the inverse element no longer gives the
    identity: the action composition law fails."""
    out = np.array(table)
    g = int(rng.integers(out.shape[0] - 1))
    g = g + 1 if g >= unit else g
    out[g] = np.roll(out[g], 1)
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class SpecWriter:
    """Writes spec files into the spec directory and names them uniquely."""

    def __init__(self, spec_dir: str):
        self.spec_dir = spec_dir
        os.makedirs(spec_dir, exist_ok=True)

    def __call__(self, name: str, doc: dict) -> str:
        fname = name.replace(":", "_").replace("/", "_") + ".json"
        with open(os.path.join(self.spec_dir, fname), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return fname


def _cli_case(write, cid, doc, cmd, expect_passed, extra=(), samples=0) -> Case:
    fname = write(cid, doc)
    return Case(cid, expect_passed, argv=(cmd, fname) + tuple(extra) +
                ("--format", "json"), spec=fname,
                expect_exit=EXIT_PASS if expect_passed else EXIT_AXIOM,
                samples=samples)


def _direct(cid, module, func, args, expect_passed) -> Case:
    return Case(cid, expect_passed, call=(module, func, tuple(args)))


def spread(*groups) -> list:
    """Merge case lists so that each list's cases are evenly spaced over the
    round.  The load of a shared machine drifts over seconds; spacing a kind
    of case out over the round samples that drift instead of one moment."""
    keyed = [((i + 0.5) / len(group), g, case)
             for g, group in enumerate(groups) for i, case in enumerate(group)]
    return [case for _, _, case in sorted(keyed, key=lambda k: k[:2])]


def suite_case(cid, target, samples, scheme, seed) -> Case:
    """``integrate`` on a spec file name or on builtin arguments, at the
    law-suite step SUITE_STEP."""
    argv = ("integrate",) + ((target,) if isinstance(target, str) else target)
    argv += ("--samples", str(samples), "--scheme", scheme, "--seed", str(seed),
             "--step", repr(SUITE_STEP), "--format", "json")
    return Case(f"integrate:{cid}:n{samples}:{scheme}", True, argv=argv,
                spec=target if isinstance(target, str) else None,
                expect_exit=EXIT_PASS, samples=samples)


def integrate_gl_case(write, n, seed) -> Case:
    """gl(n) adjoint triple with the natural representation, default step."""
    doc = adjoint_doc(gl_constants(n), rep=matrix_units(n))
    extra = ("--samples", str(RECOVER_SAMPLES), "--scheme", "central",
             "--seed", str(seed))
    return _cli_case(write, f"integrate:gl{n}", doc, "integrate", True, extra,
                     samples=RECOVER_SAMPLES)


def verify_gl_case(write, n) -> Case:
    return _cli_case(write, f"verify:gl{n}", adjoint_doc(gl_constants(n)),
                     "verify", True)


def lie_crossed_module_case(n) -> Case:
    cm = triples.identity_crossed_module(lie_algebra(gl_constants(n)))
    return _direct(f"lie-crossed-module:gl{n}:identity", "triples",
                   "check_lie_crossed_module", [cm], True)


def symmetric_cases(write, n) -> list:
    """The valid S_n cases: conjugation rack through ``verify``, the
    conjugation crossed module and the identity rack morphism."""
    group = symmetric_group(n)
    conj = racks.conjugation_triple(group)
    ident = np.arange(group.size)
    return [
        _cli_case(write, f"verify:s{n}:conjugation",
                  rack_doc(group.mul_table, conj.action_table,
                           conj.theta_table), "verify", True),
        _direct(f"group-crossed-module:s{n}:conjugation", "racks",
                "check_group_crossed_module",
                [racks.conjugation_crossed_module(group)], True),
        _direct(f"rack-morphism:s{n}:identity", "racks",
                "check_rack_triple_morphism", [conj, conj, ident, ident], True),
    ]


def integrate_suites(seed: int, write) -> list:
    """Small triples through ``leibrack integrate``: the three builtins and
    the catalog ideal triples at the middle sample count, and the builtins
    also at the smallest and the largest.  As many cases lie below the middle
    count as above it, so the median case is a middle-count one."""
    rng = np.random.default_rng(seed)
    lam = float(rng.uniform(-2.0, 2.0))
    targets = [("builtin:sl2-adjoint", ("--builtin", "sl2-adjoint")),
               (f"builtin:scaling:{lam!r}", ("--builtin", f"scaling:{lam!r}")),
               ("builtin:heisenberg-ideal", ("--builtin", "heisenberg-ideal"))]
    for name, ideal in catalog.IDEAL_CHOICES:
        tri = triples.ideal_triple(catalog.algebra_by_name(name),
                                   catalog.ideal_subspace(name, ideal))
        doc = triple_doc(tri.algebra.structure_constants,
                         tri.action.action_matrices, tri.theta.matrix,
                         rep=catalog.faithful_rep_matrices(name))
        targets.append((f"ideal:{name}/{ideal}", write(f"ideal_{name}_{ideal}", doc)))

    groups, count = [], 0
    for samples in SUITE_SAMPLES:
        groups.append([])
        for k, (cid, target) in enumerate(targets):
            if samples != SUITE_SAMPLES[1] and k >= 3:
                continue
            scheme = SUITE_SCHEMES[count % 2]
            count += 1
            groups[-1].append(suite_case(cid, target, samples, scheme,
                                         int(rng.integers(1 << 31))))
    return spread(*groups)


def integrate_recover(seed: int, write) -> list:
    """gl(n) adjoint triples with the natural representation, n = 2..5:
    tangent and defect stencils on working matrices up to 30 x 30."""
    rng = np.random.default_rng(seed)
    return [integrate_gl_case(write, n, int(rng.integers(1 << 31)))
            for n in RECOVER_SIZES]


def verify_mix(seed: int, write) -> list:
    """Axiom checking only: gl(n) triples and morphisms through ``verify``,
    Lie and group crossed modules and rack morphisms by direct calls, finite
    racks through ``verify``, valid and broken.

    The sixteen catalog groups run through ``verify`` only, spread evenly
    over the round."""
    rng = np.random.default_rng(seed)
    cases = []

    def cli(cid, doc, ok):
        cases.append(_cli_case(write, cid, doc, "verify", ok))

    gl = {n: gl_constants(n) for n in VERIFY_GL_SIZES}
    cases += [verify_gl_case(write, n) for n in VERIFY_GL_SIZES]
    for n in (3, 4):
        C = change_basis(gl[n], dense_basis(rng, n * n))
        cli(f"verify:gl{n}:dense", adjoint_doc(C), True)
        cli(f"verify:gl{n}:theta-tilt", adjoint_doc(gl[n], _tilt(rng, n * n)), False)
        B = _broken_bracket(rng, gl[n])
        cli(f"verify:gl{n}:broken-bracket",
            triple_doc(B, adjoint_matrices(gl[n]), np.eye(n * n)), False)
    for n in (3, 4):
        d = n * n
        ident = {"target": adjoint_doc(gl[n]), "phi": np.eye(d).tolist(),
                 "psi": np.eye(d).tolist()}
        cli(f"verify:gl{n}:morphism-identity",
            adjoint_doc(gl[n], morphism=ident), True)
    bent = {"target": adjoint_doc(gl[3]), "phi": np.eye(9).tolist(),
            "psi": _tilt(rng, 9).tolist()}
    cli("verify:gl3:morphism-tilt", adjoint_doc(gl[3], morphism=bent), False)

    cases += [lie_crossed_module_case(n) for n in (3, 4, 5)]
    lam = float(rng.uniform(-2.0, 2.0))
    cases.append(_direct(f"lie-crossed-module:scaling:{lam!r}", "triples",
                         "check_lie_crossed_module",
                         [triples.scaling_crossed_module(lam)], True))
    alg3 = lie_algebra(gl[3])
    ident3 = triples.identity_crossed_module(alg3)
    tilted = triples.LieAlgebraCrossedModule(alg3, alg3, _tilt(rng, 9), ident3.eta)
    cases.append(_direct("lie-crossed-module:gl3:boundary-tilt", "triples",
                         "check_lie_crossed_module", [tilted], False))

    for n in SYMMETRIC_SIZES:
        cases += symmetric_cases(write, n)
    sym = {n: symmetric_group(n) for n in (4, 5)}
    for n in (4, 5):
        t = racks.conjugation_triple(sym[n])
        cli(f"verify:s{n}:swapped-mul",
            rack_doc(_swapped_mul(rng, sym[n]), t.action_table, t.theta_table),
            False)
        cli(f"verify:s{n}:rolled-action",
            rack_doc(sym[n].mul_table,
                     _rolled_row(rng, t.action_table, sym[n].unit),
                     t.theta_table), False)
        if n == 4:
            psi = np.arange(sym[4].size)
            x, y = rng.choice(np.arange(1, sym[4].size), size=2, replace=False)
            psi[x], psi[y] = psi[y], psi[x]
            cases.append(_direct("rack-morphism:s4:swapped-psi", "racks",
                                 "check_rack_triple_morphism",
                                 [t, t, np.arange(sym[4].size), psi], False))
    s4cm = racks.conjugation_crossed_module(sym[4])
    rolled = racks.GroupCrossedModule(
        sym[4], sym[4], s4cm.mu, _rolled_row(rng, s4cm.eta, sym[4].unit))
    cases.append(_direct("group-crossed-module:s4:rolled-eta", "racks",
                         "check_group_crossed_module", [rolled], False))
    s5 = sym[5]
    trivial = racks.GroupCrossedModule(
        s5, s5, np.arange(s5.size), np.tile(np.arange(s5.size), (s5.size, 1)))
    cases.append(_direct("group-crossed-module:s5:trivial-eta", "racks",
                         "check_group_crossed_module", [trivial], False))

    small = []
    for name, group in sorted(catalog.group_catalog().items()):
        t = racks.conjugation_triple(group)
        small.append(_cli_case(write, f"verify:catalog:{name}",
                               rack_doc(group.mul_table, t.action_table,
                                        t.theta_table), "verify", True))
    return spread(cases, small)


GENERATORS = {
    "integrate-suites": integrate_suites,
    "integrate-recover": integrate_recover,
    "verify-mix": verify_mix,
}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int, spec_dir: str) -> list:
    """The round of ``workload`` for ``seed``; spec files go to ``spec_dir``."""
    return GENERATORS[workload](seed, SpecWriter(spec_dir))


# ---------------------------------------------------------------------------
# fingerprint
# ---------------------------------------------------------------------------

def _feed(h, obj):
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            if f.init:
                h.update(f.name.encode())
                _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    else:
        h.update(repr(obj).encode())


def fingerprint(cases: list, spec_dir: str) -> str:
    """SHA-256 over the case list, the spec file bytes and the direct-call
    arguments; equal fingerprints mean equal inputs."""
    h = hashlib.sha256()
    for case in cases:
        _feed(h, (case.id, case.expect_passed, case.argv, case.expect_exit,
                  case.samples))
        if case.spec is not None:
            with open(os.path.join(spec_dir, case.spec), "rb") as fh:
                h.update(fh.read())
        if case.call is not None:
            _feed(h, case.call)
    return h.hexdigest()
