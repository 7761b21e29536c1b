"""Command line interface.

Three subcommands:

* ``verify``    check the axioms of a triple or rack specification file
* ``integrate`` build the local model of a triple and run law suites plus
  the numerical round trip
* ``corpus``    run the seeded generator families and the discrete catalog,
  verifying that valid instances pass and invalid ones are rejected

A spec file is parsed whole at load, ``morphism`` and ``config`` included.
Every field and flag goes through one reader (``_value``): an integer is a
JSON integer, never a boolean or a float, and an error names its field.

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
from functools import cache

import numpy as np

from . import catalog
from .algebra import SubspaceBasis, LieAlgebraData, ModuleAction, \
    frozen_array, integer
from .errors import AxiomError, CapabilityError, DomainError, LeibrackError, \
    StructuralError
from .integrate import build_model, run_integration_suites
from .localgroup import CHART_RADIUS, SCHEMES, DiffConfig, MatrixRep
from .examples import inclusion_crossed_module_z3_s3, \
    relaxed_crossed_module_z3_s3
from .racks import FiniteGroup, GroupRackTriple, \
    augmented_rack_from_crossed_module, check_group, \
    check_group_crossed_module, check_group_rack_triple, \
    conjugation_crossed_module, conjugation_triple
from .report import ValidityReport
from .triples import EmbeddingTensor, LieLeibnizTriple, RelaxedAugmentation, \
    TripleMorphism, build_triple, check_morphism, check_relaxed_augmentation, \
    check_triple, ideal_crossed_module, identity_crossed_module, \
    max_strictness_subalgebra, random_triple, scaling_crossed_module, \
    triple_reports

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
    except (UnicodeDecodeError, RecursionError) as exc:    # not UTF-8, too deep
        raise StructuralError(f"parse error in {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise StructuralError(f"{path}: top level must be an object")
    return doc


_KINDS = {float: "a number", str: "a string", list: "a list", dict: "an object"}

_POSITIVE = (lambda v: v > 0, "positive")
_NONNEGATIVE = (lambda v: v >= 0, "at least 0")
# integrate settings: config key -> (kind, least integer, rule)
CONFIG = {"step": (float, None, _POSITIVE),
          "scheme": (str, None, (SCHEMES.__contains__, " or ".join(SCHEMES))),
          "samples": (int, 1, None), "seed": (int, 0, None),
          "tolerance": (float, None, _POSITIVE),
          "radius": (float, None, (lambda v: 0 < v <= CHART_RADIUS,
                                   f"in (0, {CHART_RADIUS}]"))}
# the keys of a triple and a rack spec, and of each block by the key it is at
TRIPLE = ("lie_algebra", "module", "theta", "faithful_rep", "h_basis",
          "morphism", "config")
RACK = ("group", "x_size", "action_table", "theta_table", "basepoint")
BLOCKS = {"lie_algebra": ("dim", "structure_constants", "labels"),
          "module": ("dim_v", "action_matrices"), "theta": ("matrix",),
          "faithful_rep": ("matrices",), "h_basis": ("vectors",),
          "morphism": ("target", "phi", "psi"), "config": tuple(CONFIG),
          "group": ("size", "mul_table", "unit")}


def _value(value, field: str, kind=None, low=1, rule=None, high=None):
    """Every spec field and flag is read here: ``value`` as ``kind`` (int,
    float, str, list or dict), else by the constructors' array rule
    :func:`frozen_array` (of shape ``kind`` if a tuple; no boolean).  An int
    goes by their integer rule :func:`integer`, in [low, high): a JSON
    integer, never a boolean and never a float.  Any other value passes the
    ``rule`` (a test and what it asks) when one is given.  A StructuralError
    names ``field`` when the value does not fit."""
    if kind is None or type(kind) is tuple:
        return frozen_array(value, kind, field)
    if kind is int:
        return integer(value, field, low, high)
    if kind is float and type(value) is int:
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if type(value) is not kind:
        raise StructuralError(f"{field} must be {_KINDS[kind]}")
    if kind is float and not math.isfinite(value):
        raise StructuralError(f"{field} must be finite")
    if rule is not None and not rule[0](value):
        raise StructuralError(f"{field} must be {rule[1]}, got {value!r}")
    return value


def _fields(block: dict, where: str, fields):
    """StructuralError naming a key of ``block`` not in ``fields``, if any."""
    unknown = sorted(set(block) - set(fields))
    if unknown:
        raise StructuralError(f"{where}{unknown[0]} is not a field; "
                              f"the fields are {', '.join(fields)}")


def _read(block: dict, path: str, where: str = "", kind=None, default=None,
          low=1, high=None):
    """The entry at the dotted ``path`` in ``block`` through :func:`_value`,
    named ``where.path``; ``default`` when its last key is absent, which is an
    error when no default is given.  Every block on the way is an object, and
    a block of BLOCKS has no other keys."""
    *blocks, key = path.split(".")
    for name in blocks:
        block = _read(block, name, where, dict)
        where = f"{where}.{name}" if where else name
    if key in block:
        field = f"{where}.{key}" if where else key
        value = _value(block[key], field, kind, low, high=high)
        if kind is dict and key in BLOCKS:
            _fields(value, field + ".", BLOCKS[key])
        return value
    if default is None:
        raise StructuralError(f"{where or 'spec'}: missing key {key!r}")
    return default


def _built(field: str, constructor, *args):
    """``constructor(*args)``, with ``field`` in front of its StructuralError."""
    try:
        return constructor(*args)
    except StructuralError as exc:
        raise StructuralError(f"{field}: {exc}") from None


def algebra_from_doc(doc: dict, where: str = "lie_algebra") -> LieAlgebraData:
    """Lie algebra block: dimension plus sparse bracket entries.

    ``structure_constants`` is a list of [i, j, k, value] quadruples; every
    unspecified entry is zero and duplicates are structural errors.  Entries
    are stored exactly as given (no symmetrization), so invalid tensors are
    expressible and will be caught by the axiom checker.
    """
    dim = _read(doc, "dim", where, int, low=1)
    entries = _read(doc, "structure_constants", where, list, [])
    C = np.zeros((dim, dim, dim))
    seen = set()
    for pos, entry in enumerate(entries):
        field = f"{where}.structure_constants[{pos}]"
        if type(entry) is not list or len(entry) != 4:
            raise StructuralError(f"{field}: need [i, j, k, value]")
        i, j, k = (integer(idx, f"{field} index", 0, dim) for idx in entry[:3])
        if (i, j, k) in seen:
            raise StructuralError(f"{field}: duplicate entry ({i}, {j}, {k})")
        seen.add((i, j, k))
        C[i, j, k] = _value(entry[3], field, float)
    labels = _read(doc, "labels", where, list, [f"e{i}" for i in range(dim)])
    return _built(where, LieAlgebraData, dim, tuple(
        _value(name, f"{where}.labels[{i}]", str) for i, name in enumerate(labels)), C)


def triple_parts_from_doc(doc: dict, where: str = "") -> dict:
    """Parse a triple specification whole into constructed components,
    the optional blocks and every ``config`` entry included."""
    at = f"{where}." if where else ""
    _fields(doc, at, TRIPLE)
    alg = algebra_from_doc(_read(doc, "lie_algebra", where, dict),
                           f"{at}lie_algebra")
    n, dim_v = alg.dim, _read(doc, "module.dim_v", where, int, low=1)
    config = _read(doc, "config", where, dict, {})
    parts = {
        "algebra": alg, "rep": None, "h_basis": None, "morphism": None,
        "action": ModuleAction(alg, dim_v, _read(
            doc, "module.action_matrices", where, (n, dim_v, dim_v))),
        "theta": EmbeddingTensor(_read(doc, "theta.matrix", where, (n, dim_v))),
        "config": {key: _value(config[key], f"{at}config.{key}", *CONFIG[key])
                   for key in CONFIG if key in config}}
    if "faithful_rep" in doc:
        parts["rep"] = _built(f"{at}faithful_rep.matrices", MatrixRep, alg,
                              _read(doc, "faithful_rep.matrices", where))
    if "h_basis" in doc:
        parts["h_basis"] = _built(f"{at}h_basis.vectors", SubspaceBasis,
                                  alg.dim, _read(doc, "h_basis.vectors", where))
    if "morphism" in doc:
        target = triple_parts_from_doc(_read(doc, "morphism.target", where, dict),
                                       f"{at}morphism.target")
        parts["morphism"] = {
            "target": target,
            "phi": _read(doc, "morphism.phi", where, (target["algebra"].dim, n)),
            "psi": _read(doc, "morphism.psi", where,
                         (target["action"].dim_v, dim_v))}
    return parts


def rack_triple_from_doc(doc: dict) -> GroupRackTriple:
    _fields(doc, "", RACK)
    size = _read(doc, "group.size", kind=int, low=1)
    group = _built("group.mul_table", FiniteGroup,
                   _read(doc, "group.mul_table", kind=(size, size)),
                   _read(doc, "group.unit", kind=int, default=0, low=0, high=size))
    return GroupRackTriple(group, _read(doc, "x_size", kind=int, low=1),
                           _read(doc, "action_table"), _read(doc, "theta_table"),
                           _read(doc, "basepoint", kind=int, default=0, low=0))


def builtin_parts(name: str):
    """Named ready-made systems: ('triple', parts) or ('rack', triple).  A
    builtin triple is the triple (n, m, mu) of a crossed module, unchecked:
    the command checks it once, as it checks a spec file."""
    if name == "s3-conjugation":
        return "rack", conjugation_triple(catalog.symmetric3())
    rep = None
    if name == "sl2-adjoint":
        cm = identity_crossed_module(catalog.sl2())
    elif name.startswith("scaling:"):
        try:
            lam = float(name.split(":", 1)[1])
        except ValueError:
            raise StructuralError(f"bad scaling parameter in {name!r}") from None
        cm = scaling_crossed_module(lam)
    elif name == "heisenberg-ideal":
        alg = catalog.heisenberg()
        cm = ideal_crossed_module(alg, catalog.ideal_subspace("heisenberg", "plane"))
        rep = MatrixRep(alg, catalog.faithful_rep_matrices("heisenberg"))
    else:
        raise StructuralError(
            f"unknown builtin {name!r}; triples: {', '.join(BUILTIN_TRIPLES)}; "
            f"racks: {', '.join(BUILTIN_RACKS)}")
    return "triple", {"algebra": cm.n, "action": cm.eta,
                      "theta": EmbeddingTensor(cm.mu), "rep": rep,
                      "h_basis": None, "config": {}, "morphism": None}


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
    triple = LieLeibnizTriple(parts["algebra"], parts["action"], parts["theta"])
    alg_rep, mod_rep, tri_rep = triple_reports(triple, tol)
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
        strict, h = tri_rep.info["strict"], max_strictness_subalgebra(triple, tol)
        lines += [f"strict: {'yes' if strict else 'no'}",
                  f"largest equivariant subalgebra: dim {h.dim} of {triple.dim_g}"]
        payload.update(strict=bool(strict), h_dim=int(h.dim))

        if parts["h_basis"] is not None:
            aug_rep = check_relaxed_augmentation(
                RelaxedAugmentation(triple, parts["h_basis"]), tol)
            lines.append(_check_line("relaxed augmentation", aug_rep))
            payload["h_basis"] = aug_rep.to_dict()
            passed = passed and aug_rep.passed

        mor = parts["morphism"]
        if mor is not None:
            tgt = mor["target"]
            target = LieLeibnizTriple(tgt["algebra"], tgt["action"], tgt["theta"])
            tgt_rep = triple_reports(target, tol)[-1]
            if not tgt_rep.passed:
                lines.append(_check_line("morphism target triple", tgt_rep))
                payload["morphism_target"] = tgt_rep.to_dict()
                passed = False
            else:
                mor_rep = check_morphism(
                    TripleMorphism(triple, target, mor["phi"], mor["psi"]), tol)
                lines.append(_check_line("morphism laws", mor_rep))
                payload["morphism"] = mor_rep.to_dict()
                passed = passed and mor_rep.passed

    lines.append(f"overall: {'PASS' if passed else 'FAIL'}")
    payload["passed"] = bool(passed)
    _emit(payload, lines, fmt)
    return EXIT_PASS if passed else EXIT_AXIOM


def cmd_verify(args) -> int:
    tol = _value(args.tolerance, "--tolerance", float, rule=_NONNEGATIVE)
    kind, obj = _load_target(args)
    if kind == "rack":
        return _verify_rack(obj, args.format)
    return _verify_triple(obj, tol, args.format)


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def cmd_integrate(args) -> int:
    kind, parts = _load_target(args)
    if kind == "rack":
        raise StructuralError(
            "discrete rack specifications cannot be integrated; "
            "use 'verify' for those")

    given = dict(parts["config"])       # a flag overrides its config entry
    for key in CONFIG:
        if getattr(args, key) is not None:
            given[key] = _value(getattr(args, key), f"--{key}", *CONFIG[key])

    def pick(**keys):
        """parameter=setting pairs as keywords, for the settings given."""
        return {arg: given[key] for arg, key in keys.items() if key in given}

    triple = build_triple(parts["algebra"], parts["action"], parts["theta"])
    cfg = DiffConfig(**pick(step="step", scheme="scheme"))
    model = build_model(triple, rep=parts["rep"], h_basis=parts["h_basis"],
                        cfg=cfg, **pick(radius="radius"))
    report = run_integration_suites(model, **pick(
        samples="samples", seed="seed", roundtrip_tol="tolerance"))

    step = model.cfg.step
    lines = [
        f"model: algebra dim {triple.dim_g}, module dim {triple.dim_v}, "
        f"radius {model.radius:g}, scheme {model.cfg.scheme}, step {step:g}",
        f"strict: {'yes' if report.strict else 'no'} "
        f"(equivariant subalgebra dim {report.h_dim} of {triple.dim_g})",
    ]
    for name, law in report.laws.items():
        skips = ", ".join(f"{n} {why}" for why, n in report.skips[name].items())
        lines.append(_check_line(f"law suite {name}", law) +
                     f" ({law.info['samples_used']} used, "
                     f"{law.info['samples_skipped']} skipped{skips and ': ' + skips})")
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
    shrank, directions = report.shrank
    lines.append(f"stencils: step {step:g}, {shrank} of {directions} directions "
                 f"shrank" + (f" to {step / 10.0:g}" if shrank else ""))
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
        model = build_model(tri)
        strict = model.h_basis.dim == tri.dim_g
        rows.append(_integrated_row(f"scaling_family[lam={lam:g}]", sub, model,
                                    samples, strict == (lam == 1.0)))

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
    rows, groups = [], catalog.group_catalog()
    for name, group in sorted(groups.items()):
        g_rep = check_group(group)
        t_rep = check_group_rack_triple(conjugation_triple(group))
        rows.append(_discrete_row(
            f"conjugation_rack[{name}]",
            g_rep.passed and t_rep.passed and t_rep.info["strict"]))

    for name in ("s3", "d4", "q8"):     # AxiomError unless both checks pass
        augmented_rack_from_crossed_module(conjugation_crossed_module(groups[name]))
        rows.append(_discrete_row(f"conjugation_crossed_module[{name}]", True))

    rep = check_group_crossed_module(inclusion_crossed_module_z3_s3())
    rows.append(_discrete_row("inclusion_crossed_module[z3<s3]", rep.passed))

    rep = check_group_crossed_module(relaxed_crossed_module_z3_s3())
    outside = len(rep.info["equivariance_failures_unrestricted"])
    rows.append(_discrete_row(
        "relaxed_crossed_module[z3/s3]", rep.passed and outside > 0,
        equivariance_failures_outside_restriction=outside))
    return rows


def cmd_corpus(args) -> int:
    _value(args.seed, "--seed", int, 0)
    _value(args.count, "--count", int, 0)
    _value(args.samples, "--samples", int, 1)
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

class _Parser(argparse.ArgumentParser):
    def error(self, message):           # exit 3 like any structural error, not 2
        raise StructuralError(message)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process, on first use."""
    parser = _Parser(
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
    p_int.add_argument("--scheme", default=None, help=" or ".join(SCHEMES))
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
    # a residual or a stencil that overflows or divides 0 by 0 gives inf or
    # NaN, which the report shows or the domain check catches
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
