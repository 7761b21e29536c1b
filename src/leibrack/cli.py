"""Command line interface.

Three subcommands:

* ``verify``    check the axioms of a triple or rack specification file
* ``integrate`` build the local model of a triple and run law suites plus
  the numerical round trip
* ``corpus``    run the seeded generator families and the discrete catalog,
  verifying that valid instances pass and invalid ones are rejected

Exit codes: 0 all checks passed, 2 axiom violation, 3 structural or parse
error, 4 capability gap (e.g. no faithful representation available).
Output is deterministic for fixed inputs and seeds; JSON mode prints with
sorted keys so runs are byte-for-byte comparable.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import catalog
from .algebra import SubspaceBasis, LieAlgebraData, ModuleAction
from .errors import AxiomError, CapabilityError, DomainError, LeibrackError, \
    StructuralError
from .integrate import DEFAULT_RADIUS, build_model, run_integration_suites
from .localgroup import DiffConfig, MatrixRep
from .examples import inclusion_crossed_module_z3_s3, \
    relaxed_crossed_module_z3_s3
from .racks import FiniteGroup, GroupRackTriple, \
    augmented_rack_from_crossed_module, check_group, \
    check_group_crossed_module, check_group_rack_triple, \
    conjugation_crossed_module, conjugation_triple
from .report import ValidityReport
from .triples import EmbeddingTensor, LieLeibnizTriple, RelaxedAugmentation, \
    TripleMorphism, build_triple, check_morphism, check_relaxed_augmentation, \
    check_triple, ideal_triple, is_strict, max_strictness_subalgebra, \
    random_triple, scaling_triple, triple_reports

EXIT_PASS = 0
EXIT_AXIOM = 2
EXIT_STRUCTURAL = 3
EXIT_CAPABILITY = 4

BUILTIN_TRIPLES = ("sl2-adjoint", "scaling:<value>", "heisenberg-ideal")
BUILTIN_RACKS = ("s3-conjugation",)


# ---------------------------------------------------------------------------
# specification files
# ---------------------------------------------------------------------------

def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise StructuralError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StructuralError(
            f"parse error in {path} at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(doc, dict):
        raise StructuralError(f"{path}: top level must be an object")
    return doc


def _need(doc: dict, key: str, where: str):
    if not isinstance(doc, dict):
        raise StructuralError(f"{where} must be an object")
    if key not in doc:
        raise StructuralError(f"{where}: missing key {key!r}")
    return doc[key]


def _numbers(value, field: str, kind=None):
    """``value`` as ``kind`` (int or float), or as a float array when no kind
    is given.  A StructuralError names ``field`` when the value does not
    convert or a float is not finite."""
    try:
        out = np.asarray(value, dtype=float) if kind is None else kind(value)
    except (TypeError, ValueError, OverflowError):
        raise StructuralError(f"{field} must be numeric") from None
    finite = (kind is int or math.isfinite(out)) if kind else np.isfinite(out).all()
    if not finite:
        raise StructuralError(f"{field} must be finite")
    return out


def _at_least(low: int, value, field: str):
    """``value``, or a StructuralError naming ``field`` when it is below ``low``."""
    if value < low:
        raise StructuralError(f"{field} must be at least {low}, got {value}")
    return value


def algebra_from_doc(doc: dict) -> LieAlgebraData:
    """Lie algebra block: dimension plus sparse bracket entries.

    ``structure_constants`` is a list of [i, j, k, value] quadruples; every
    unspecified entry is zero and duplicates are structural errors.  Entries
    are stored exactly as given (no symmetrization), so invalid tensors are
    expressible and will be caught by the axiom checker.
    """
    dim = _need(doc, "dim", "lie_algebra")
    if not isinstance(dim, int) or dim <= 0:
        raise StructuralError("lie_algebra.dim must be a positive integer")
    entries = doc.get("structure_constants", [])
    if not isinstance(entries, list):
        raise StructuralError("lie_algebra.structure_constants must be a list")
    C = np.zeros((dim, dim, dim))
    seen = set()
    for pos, entry in enumerate(entries):
        if not isinstance(entry, (list, tuple)) or len(entry) != 4:
            raise StructuralError(
                f"lie_algebra.structure_constants[{pos}]: need [i, j, k, value]")
        i, j, k, value = entry
        for idx in (i, j, k):
            if not isinstance(idx, int) or not 0 <= idx < dim:
                raise StructuralError(
                    f"lie_algebra.structure_constants[{pos}]: index {idx} "
                    f"out of range for dimension {dim}")
        if (i, j, k) in seen:
            raise StructuralError(
                f"lie_algebra.structure_constants[{pos}]: duplicate entry "
                f"({i}, {j}, {k})")
        seen.add((i, j, k))
        C[i, j, k] = _numbers(value, f"lie_algebra.structure_constants[{pos}]",
                              float)
    labels = doc.get("labels")
    if labels is None:
        labels = tuple(f"e{i}" for i in range(dim))
    if not isinstance(labels, (list, tuple)) or len(labels) != dim:
        raise StructuralError(f"lie_algebra.labels must be a list of {dim} labels")
    return LieAlgebraData(dim, tuple(labels), C)


def triple_parts_from_doc(doc: dict, where: str = "spec") -> dict:
    """Parse a triple specification into constructed components."""
    alg = algebra_from_doc(_need(doc, "lie_algebra", where))
    module = _need(doc, "module", where)
    dim_v = _need(module, "dim_v", "module")
    if not isinstance(dim_v, int) or dim_v <= 0:
        raise StructuralError("module.dim_v must be a positive integer")
    action = ModuleAction(alg, dim_v, _numbers(
        _need(module, "action_matrices", "module"), "module.action_matrices"))
    theta = EmbeddingTensor(_numbers(_need(_need(doc, "theta", where),
                                           "matrix", "theta"), "theta.matrix"))
    if theta.matrix.shape != (alg.dim, dim_v):
        raise StructuralError(
            f"theta.matrix must be {(alg.dim, dim_v)}, got {theta.matrix.shape}")

    parts = {"algebra": alg, "action": action, "theta": theta,
             "rep": None, "h_basis": None, "config": doc.get("config", {}),
             "morphism": doc.get("morphism")}
    if "faithful_rep" in doc:
        blk = doc["faithful_rep"]
        mats = _numbers(_need(blk, "matrices", "faithful_rep"),
                        "faithful_rep.matrices")
        m = blk.get("matrix_dim", mats.shape[1] if mats.ndim == 3 else 0)
        if mats.ndim != 3 or mats.shape != (alg.dim, m, m):
            raise StructuralError(
                f"faithful_rep.matrices must be ({alg.dim}, m, m)")
        parts["rep"] = MatrixRep(alg, mats)
    if "h_basis" in doc:
        parts["h_basis"] = SubspaceBasis(alg.dim, _numbers(
            _need(doc["h_basis"], "vectors", "h_basis"), "h_basis.vectors"))
    if not isinstance(parts["config"], dict):
        raise StructuralError("config must be an object")
    return parts


def rack_triple_from_doc(doc: dict) -> GroupRackTriple:
    grp = _need(doc, "group", "spec")
    size = _need(grp, "size", "group")
    mul = _numbers(_need(grp, "mul_table", "group"), "group.mul_table")
    if not isinstance(size, int) or mul.shape != (size, size):
        raise StructuralError("group.mul_table must be size x size")
    group = FiniteGroup.from_mul_table(
        mul, unit=_numbers(grp.get("unit", 0), "group.unit", int))
    return GroupRackTriple(
        group,
        _numbers(_need(doc, "x_size", "spec"), "x_size", int),
        _numbers(_need(doc, "action_table", "spec"), "action_table"),
        _numbers(_need(doc, "theta_table", "spec"), "theta_table"),
        basepoint=_numbers(doc.get("basepoint", 0), "basepoint", int),
    )


def builtin_parts(name: str):
    """Named ready-made systems: ('triple', parts) or ('rack', triple)."""
    if name == "s3-conjugation":
        return "rack", conjugation_triple(catalog.symmetric3())
    rep = None
    if name == "sl2-adjoint":
        alg = catalog.sl2()
        tri = build_triple(alg, alg.adjoint_action(),
                           EmbeddingTensor(np.eye(3)))
    elif name.startswith("scaling:"):
        try:
            lam = float(name.split(":", 1)[1])
        except ValueError:
            raise StructuralError(f"bad scaling parameter in {name!r}") from None
        tri = scaling_triple(lam)
    elif name == "heisenberg-ideal":
        alg = catalog.heisenberg()
        tri = ideal_triple(alg, catalog.ideal_subspace("heisenberg", "plane"))
        rep = MatrixRep(alg, catalog.faithful_rep_matrices("heisenberg"))
    else:
        raise StructuralError(
            f"unknown builtin {name!r}; triples: {', '.join(BUILTIN_TRIPLES)}; "
            f"racks: {', '.join(BUILTIN_RACKS)}")
    return "triple", {"algebra": tri.algebra, "action": tri.action,
                      "theta": tri.theta, "rep": rep, "h_basis": None,
                      "config": {}, "morphism": None}


def _load_target(args):
    if args.builtin and args.spec:
        raise StructuralError("give either a spec file or --builtin, not both")
    if args.builtin:
        return builtin_parts(args.builtin)
    if not args.spec:
        raise StructuralError("need a spec file or --builtin")
    doc = load_document(args.spec)
    if "group" in doc:
        return "rack", rack_triple_from_doc(doc)
    if "lie_algebra" in doc:
        return "triple", triple_parts_from_doc(doc)
    raise StructuralError(
        f"{args.spec}: expected a 'lie_algebra' or 'group' block")


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _check_line(name: str, rep: ValidityReport) -> str:
    mark = "PASS" if rep.passed else "FAIL"
    line = f"[{mark}] {name}: max residual {rep.max_residual:.3e}"
    if rep.violations:
        v = rep.violations[0]
        line += (f" ({len(rep.violations)} violation(s) listed; first: "
                 f"{v.law} at {v.where}, residual {v.residual:.3e})")
    return line


def _emit(payload: dict, lines: list, fmt: str):
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_rack(triple: GroupRackTriple, fmt: str) -> int:
    group_rep = check_group(triple.group)
    triple_rep = check_group_rack_triple(triple)
    passed = group_rep.passed and triple_rep.passed
    lines = [
        _check_line("group laws", group_rep),
        _check_line("rack triple laws", triple_rep),
        f"strict: {'yes' if triple_rep.info.get('strict') else 'no'} "
        f"({len(triple_rep.info.get('equivariant_elements', []))} of "
        f"{triple.group.size} elements act equivariantly)",
        f"overall: {'PASS' if passed else 'FAIL'}",
    ]
    payload = {"kind": "rack", "passed": passed,
               "group": group_rep.to_dict(), "triple": triple_rep.to_dict()}
    _emit(payload, lines, fmt)
    return EXIT_PASS if passed else EXIT_AXIOM


def _verify_triple(parts: dict, tol: float, fmt: str) -> int:
    alg, action, theta = parts["algebra"], parts["action"], parts["theta"]
    alg_rep, mod_rep, tri_rep = triple_reports(alg, action, theta, tol)
    passed = tri_rep.passed
    lines = [
        _check_line("lie algebra axioms", alg_rep),
        _check_line("module homomorphism", mod_rep),
        _check_line("triple compatibility", tri_rep),
    ]
    payload = {"kind": "triple", "passed": bool(passed),
               "lie_algebra": alg_rep.to_dict(), "module": mod_rep.to_dict(),
               "triple": tri_rep.to_dict()}

    if passed:
        triple = LieLeibnizTriple(alg, action, theta)
        strict = tri_rep.info["strict"]
        h = max_strictness_subalgebra(triple, tol)
        lines.append(f"strict: {'yes' if strict else 'no'}")
        lines.append(f"largest equivariant subalgebra: dim {h.dim} of {alg.dim}")
        payload["strict"] = bool(strict)
        payload["h_dim"] = int(h.dim)

        if parts["h_basis"] is not None:
            aug_rep = check_relaxed_augmentation(
                RelaxedAugmentation(triple, parts["h_basis"]), tol)
            lines.append(_check_line("relaxed augmentation", aug_rep))
            payload["h_basis"] = aug_rep.to_dict()
            passed = passed and aug_rep.passed

        if parts["morphism"] is not None:
            blk = parts["morphism"]
            tgt_parts = triple_parts_from_doc(_need(blk, "target", "morphism"),
                                              "morphism.target")
            tgt_rep = check_triple(tgt_parts["algebra"], tgt_parts["action"],
                                   tgt_parts["theta"], tol)
            if not tgt_rep.passed:
                lines.append(_check_line("morphism target triple", tgt_rep))
                payload["morphism_target"] = tgt_rep.to_dict()
                passed = False
            else:
                target = LieLeibnizTriple(tgt_parts["algebra"],
                                          tgt_parts["action"],
                                          tgt_parts["theta"])
                mor = TripleMorphism(
                    triple, target,
                    _numbers(_need(blk, "phi", "morphism"), "morphism.phi"),
                    _numbers(_need(blk, "psi", "morphism"), "morphism.psi"))
                mor_rep = check_morphism(mor, tol)
                lines.append(_check_line("morphism laws", mor_rep))
                payload["morphism"] = mor_rep.to_dict()
                passed = passed and mor_rep.passed

    lines.append(f"overall: {'PASS' if passed else 'FAIL'}")
    payload["passed"] = bool(passed)
    _emit(payload, lines, fmt)
    return EXIT_PASS if passed else EXIT_AXIOM


def cmd_verify(args) -> int:
    tol = _at_least(0, _numbers(args.tolerance, "--tolerance", float),
                    "--tolerance")
    kind, obj = _load_target(args)
    if kind == "rack":
        return _verify_rack(obj, args.format)
    return _verify_triple(obj, tol, args.format)


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def cmd_integrate(args) -> int:
    kind, obj = _load_target(args)
    if kind == "rack":
        raise StructuralError(
            "discrete rack specifications cannot be integrated; "
            "use 'verify' for those")
    parts = obj
    config = parts["config"]

    def pick(key, fallback, kind=float):
        """The flag, else the config entry (as ``kind``), else ``fallback``;
        and the name of the field it came from."""
        flag = getattr(args, key)
        field = f"--{key}" if flag is not None else f"config.{key}"
        value = flag if flag is not None else config.get(key)
        return (fallback if value is None else _numbers(value, field, kind)), field

    step, _ = pick("step", 1e-4)
    scheme = str(args.scheme or config.get("scheme", "central"))
    samples = _at_least(1, *pick("samples", 200, int))
    seed = _at_least(0, *pick("seed", 0, int))
    tolerance, field = pick("tolerance", 1e-4)
    if not tolerance > 0:
        raise StructuralError(f"{field} must be positive, got {tolerance}")
    radius, _ = pick("radius", DEFAULT_RADIUS)

    triple = build_triple(parts["algebra"], parts["action"], parts["theta"])
    cfg = DiffConfig(step=step, scheme=scheme)
    model = build_model(triple, rep=parts["rep"], h_basis=parts["h_basis"],
                        radius=radius, cfg=cfg)
    report = run_integration_suites(model, samples=samples, seed=seed,
                                    roundtrip_tol=tolerance)

    lines = [
        f"model: algebra dim {triple.dim_g}, module dim {triple.dim_v}, "
        f"radius {model.radius:g}, scheme {scheme}, step {step:g}",
        f"strict: {'yes' if report.strict else 'no'} "
        f"(equivariant subalgebra dim {report.h_dim} of {triple.dim_g})",
    ]
    for name, law in report.laws.items():
        lines.append(_check_line(f"law suite {name}", law))
    rt = report.roundtrip
    lines.append(
        f"[{'PASS' if rt['passed'] else 'FAIL'}] tensor round trip: "
        f"theta {rt['theta_residual']:.3e}, action {rt['action_residual']:.3e}, "
        f"bracket {rt['bracket_residual']:.3e} (tolerance {rt['tolerance']:.1e})")
    df = report.defect
    lines.append(
        f"[{'PASS' if df['passed'] else 'FAIL'}] defect recovery: "
        f"max gap {df['max_gap']:.3e} over {df['pairs']} basis pairs "
        f"(tolerance {df['tolerance']:.1e})")
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    _emit(report.to_dict(), lines, args.format)
    return EXIT_PASS if report.passed else EXIT_AXIOM


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def _integrated_row(case: str, sub: int, model, samples: int,
                    good: bool = True) -> dict:
    """Run every suite on ``model`` at seed ``sub``; the row passes when the
    suites pass and ``good`` holds."""
    result = run_integration_suites(model, samples=samples, seed=sub)
    return {"case": case, "seed": sub, "expected": "valid",
            "passed": bool(result.passed and good),
            "roundtrip": result.roundtrip["max_residual"]}


def _corpus_continuous(seed: int, count: int, samples: int) -> list:
    rows = []
    rng = np.random.default_rng(seed)
    for k in range(count):
        sub = int(rng.integers(1 << 31))
        name, ideal = catalog.IDEAL_CHOICES[
            int(rng.integers(len(catalog.IDEAL_CHOICES)))]
        tri = random_triple(sub, "strict_from_ideal", algebra=name, ideal=ideal)
        rep = MatrixRep(tri.algebra, catalog.faithful_rep_matrices(name))
        rows.append(_integrated_row(f"strict_from_ideal[{name}/{ideal}]", sub,
                                    build_model(tri, rep=rep), samples))

    for k in range(count):
        sub = int(rng.integers(1 << 31))
        tri = random_triple(sub, "scaling_family")
        lam = float(tri.action.action_matrices[0, 0, 0])
        strict = is_strict(tri)
        rows.append(_integrated_row(f"scaling_family[lam={lam:g}]", sub,
                                    build_model(tri), samples,
                                    strict == (lam == 1.0)))

    for k in range(count):
        sub = int(rng.integers(1 << 31))
        for eps in (1e-3, 1e-1):
            alg, action, theta = random_triple(sub, "perturbed_invalid", eps=eps)
            rep = check_triple(alg, action, theta)
            quad = max((v.residual for v in rep.violations
                        if v.law == "embedding-intertwines-brackets"),
                       default=0.0)
            rows.append({
                "case": f"perturbed_invalid[eps={eps:g}]", "seed": sub,
                "expected": "rejected",
                "passed": bool((not rep.passed) and quad >= eps / 2.0),
                "quadratic_residual": quad,
            })
    return rows


def _discrete_row(case: str, good: bool, **extra) -> dict:
    return {"case": case, "expected": "valid", "passed": bool(good), **extra}


def _corpus_discrete() -> list:
    rows = []
    for name, group in sorted(catalog.group_catalog().items()):
        g_rep = check_group(group)
        t_rep = check_group_rack_triple(conjugation_triple(group))
        rows.append(_discrete_row(
            f"conjugation_rack[{name}]",
            g_rep.passed and t_rep.passed and t_rep.info["strict"]))

    for name in ("s3", "d4", "q8"):
        cm = conjugation_crossed_module(catalog.group_catalog()[name])
        rep = check_group_crossed_module(cm)
        t_rep = check_group_rack_triple(augmented_rack_from_crossed_module(cm))
        rows.append(_discrete_row(f"conjugation_crossed_module[{name}]",
                                  rep.passed and t_rep.passed))

    rep = check_group_crossed_module(inclusion_crossed_module_z3_s3())
    rows.append(_discrete_row("inclusion_crossed_module[z3<s3]", rep.passed))

    rep = check_group_crossed_module(relaxed_crossed_module_z3_s3())
    outside = len(rep.info["equivariance_failures_unrestricted"])
    rows.append(_discrete_row(
        "relaxed_crossed_module[z3/s3]", rep.passed and outside > 0,
        equivariance_failures_outside_restriction=outside))
    return rows


def cmd_corpus(args) -> int:
    _at_least(0, args.seed, "--seed")
    _at_least(0, args.count, "--count")
    _at_least(1, args.samples, "--samples")
    rows = _corpus_continuous(args.seed, args.count, args.samples) + \
        _corpus_discrete()
    ok = all(row["passed"] for row in rows)
    lines = []
    for row in rows:
        status = "ok" if row["passed"] else "UNEXPECTED"
        extra = "".join(f" {key}={row[key]:.3e}" for key in
                        ("roundtrip", "quadratic_residual") if key in row)
        seed_part = f" seed={row['seed']}" if "seed" in row else ""
        lines.append(f"{status:>10}  {row['case']}{seed_part} "
                     f"expected={row['expected']}{extra}")
    lines.append(f"overall: {'PASS' if ok else 'FAIL'} ({len(rows)} cases)")
    _emit({"cases": rows, "passed": bool(ok)}, lines, args.format)
    return EXIT_PASS if ok else EXIT_AXIOM


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leibrack",
        description="Axiom checking and local integration for embedding-tensor "
                    "triples and finite racks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check axioms of a spec file")
    p_verify.add_argument("spec", nargs="?", help="path to a JSON spec file")
    p_verify.add_argument("--builtin", help="use a named builtin system")
    p_verify.add_argument("--tolerance", type=float, default=1e-9)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_int = sub.add_parser("integrate",
                           help="build the local model and run all suites")
    p_int.add_argument("spec", nargs="?", help="path to a JSON spec file")
    p_int.add_argument("--builtin", help="use a named builtin system")
    p_int.add_argument("--tolerance", type=float, default=None,
                       help="round-trip tolerance (default 1e-4)")
    p_int.add_argument("--radius", type=float, default=None)
    p_int.add_argument("--step", type=float, default=None)
    p_int.add_argument("--scheme", choices=("central", "richardson"),
                       default=None)
    p_int.add_argument("--samples", type=int, default=None)
    p_int.add_argument("--seed", type=int, default=None)
    p_int.add_argument("--format", choices=("text", "json"), default="text")
    p_int.set_defaults(func=cmd_integrate)

    p_corpus = sub.add_parser("corpus",
                              help="run the seeded families and the catalog")
    p_corpus.add_argument("--seed", type=int, default=0)
    p_corpus.add_argument("--count", type=int, default=5,
                          help="instances per continuous family")
    p_corpus.add_argument("--samples", type=int, default=50,
                          help="law-suite samples per integrated instance")
    p_corpus.add_argument("--format", choices=("text", "json"), default="text")
    p_corpus.set_defaults(func=cmd_corpus)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StructuralError as exc:
        print(f"structural error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except CapabilityError as exc:
        print(f"capability gap: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except AxiomError as exc:
        print(f"axiom violation: {exc}", file=sys.stderr)
        return EXIT_AXIOM
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except LeibrackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
