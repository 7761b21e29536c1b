"""Command line interface: spec files, exit codes, output determinism."""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from leibrack import catalog
from leibrack.cli import (EXIT_AXIOM, EXIT_CAPABILITY, EXIT_PASS,
                          EXIT_STRUCTURAL, main)
from leibrack.report import MAX_LISTED_VIOLATIONS
from test_stacked_recovery import gl_parts

GOLDEN = Path(__file__).parent / "golden"

NONABELIAN2 = {
    "dim": 2,
    "labels": ["a", "b"],
    "structure_constants": [[0, 1, 1, 1.0], [1, 0, 1, -1.0]],
}


def scaling_doc(lam: float, **extra) -> dict:
    doc = {
        "lie_algebra": dict(NONABELIAN2),
        "module": {"dim_v": 1,
                   "action_matrices": [[[float(lam)]], [[0.0]]]},
        "theta": {"matrix": [[0.0], [1.0]]},
    }
    doc.update(extra)
    return doc


def write_doc(tmp_path, name: str, doc: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def rack_doc() -> dict:
    s3 = catalog.symmetric3()
    from leibrack import conjugation_triple
    triple = conjugation_triple(s3)
    return {
        "group": {"size": 6, "mul_table": np.asarray(s3.mul_table).tolist()},
        "x_size": 6,
        "action_table": np.asarray(triple.action_table).tolist(),
        "theta_table": np.asarray(triple.theta_table).tolist(),
        "basepoint": 0,
    }


def test_verify_valid_triple_spec(tmp_path, capsys):
    path = write_doc(tmp_path, "good.json", scaling_doc(2.0))
    assert main(["verify", path]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert "strict: no" in out
    assert "dim 1 of 2" in out


def test_verify_invalid_triple_spec(tmp_path, capsys):
    doc = scaling_doc(1.5)
    doc["theta"]["matrix"] = [[0.1], [1.0]]
    path = write_doc(tmp_path, "bad.json", doc)
    assert main(["verify", path]) == EXIT_AXIOM
    out = capsys.readouterr().out
    assert "embedding-intertwines-brackets" in out
    assert "overall: FAIL" in out


def test_verify_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"lie_algebra": [1, 2,')
    assert main(["verify", str(path)]) == EXIT_STRUCTURAL
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_verify_missing_file_and_missing_keys(tmp_path):
    assert main(["verify", str(tmp_path / "absent.json")]) == EXIT_STRUCTURAL
    path = write_doc(tmp_path, "nokeys.json", {"something": 1})
    assert main(["verify", path]) == EXIT_STRUCTURAL
    path = write_doc(tmp_path, "nomodule.json",
                     {"lie_algebra": dict(NONABELIAN2)})
    assert main(["verify", path]) == EXIT_STRUCTURAL


def test_structure_constants_validation(tmp_path):
    doc = scaling_doc(1.0)
    doc["lie_algebra"]["structure_constants"] = [[0, 1, 1, 1.0], [0, 1, 1, 2.0]]
    assert main(["verify", write_doc(tmp_path, "dup.json", doc)]) == \
        EXIT_STRUCTURAL
    doc = scaling_doc(1.0)
    doc["lie_algebra"]["structure_constants"] = [[0, 1, 5, 1.0]]
    assert main(["verify", write_doc(tmp_path, "oob.json", doc)]) == \
        EXIT_STRUCTURAL
    doc = scaling_doc(1.0)
    doc["lie_algebra"]["structure_constants"] = [[0, 1, 1.0]]
    assert main(["verify", write_doc(tmp_path, "short.json", doc)]) == \
        EXIT_STRUCTURAL


def test_asymmetric_constants_are_not_silently_fixed(tmp_path, capsys):
    # one-sided entry: stored as given, then rejected by the axiom checker
    doc = scaling_doc(1.0)
    doc["lie_algebra"]["structure_constants"] = [[0, 1, 1, 1.0]]
    path = write_doc(tmp_path, "asym.json", doc)
    assert main(["verify", path]) == EXIT_AXIOM
    assert "antisymmetry" in capsys.readouterr().out


def test_verify_rack_spec(tmp_path, capsys):
    path = write_doc(tmp_path, "rack.json", rack_doc())
    assert main(["verify", path]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "strict: yes" in out


def test_verify_corrupted_rack_spec(tmp_path, capsys):
    doc = rack_doc()
    doc["theta_table"][2] = 3
    path = write_doc(tmp_path, "badrack.json", doc)
    assert main(["verify", path]) == EXIT_AXIOM
    assert "embedding-conjugation" in capsys.readouterr().out


def test_verify_h_basis_block(tmp_path, capsys):
    doc = scaling_doc(2.0, h_basis={"vectors": [[0.0, 1.0]]})
    assert main(["verify", write_doc(tmp_path, "aug.json", doc)]) == EXIT_PASS
    assert "relaxed augmentation" in capsys.readouterr().out
    doc = scaling_doc(2.0, h_basis={"vectors": [[1.0, 0.0], [0.0, 1.0]]})
    assert main(["verify", write_doc(tmp_path, "badaug.json", doc)]) == \
        EXIT_AXIOM
    assert "defect-vanishes" in capsys.readouterr().out


def test_verify_morphism_block(tmp_path, capsys):
    target = scaling_doc(2.0)
    doc = scaling_doc(2.0, morphism={"target": target,
                                     "phi": [[1.0, 0.0], [0.0, 1.0]],
                                     "psi": [[1.0]]})
    assert main(["verify", write_doc(tmp_path, "mor.json", doc)]) == EXIT_PASS
    assert "morphism laws" in capsys.readouterr().out
    doc = scaling_doc(2.0, morphism={"target": target,
                                     "phi": [[1.0, 0.0], [0.0, 2.0]],
                                     "psi": [[1.0]]})
    assert main(["verify", write_doc(tmp_path, "badmor.json", doc)]) == \
        EXIT_AXIOM
    assert "embedding-intertwined" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["sl2-adjoint", "scaling:1.0", "scaling:2.5",
                                  "heisenberg-ideal", "s3-conjugation"])
def test_verify_builtins(name):
    assert main(["verify", "--builtin", name]) == EXIT_PASS


@pytest.mark.parametrize("value,code", [
    ("-1", EXIT_STRUCTURAL), ("nan", EXIT_STRUCTURAL), ("inf", EXIT_STRUCTURAL),
    ("0", EXIT_PASS),                   # exact catalog data passes at 0
])
def test_verify_tolerance_is_finite_and_not_negative(value, code, capsys):
    assert main(["verify", "--builtin", "sl2-adjoint",
                 "--tolerance", value]) == code
    captured = capsys.readouterr()
    assert ("--tolerance" in captured.err) == (code == EXIT_STRUCTURAL)
    assert ("overall: PASS" in captured.out) == (code == EXIT_PASS)


@pytest.mark.parametrize("argv,named", [
    pytest.param(["integrate", "--samples", "abc"], "--samples", id="samples=abc"),
    pytest.param(["integrate", "--samples", "1.5"], "--samples", id="samples=1.5"),
    pytest.param(["verify", "--format", "xml"], "--format", id="format=xml"),
    pytest.param(["corpus", "--count", "x"], "--count", id="count=x"),
    pytest.param(["verify", "--no-such-flag"], "--no-such-flag", id="unknown"),
    pytest.param([], "command", id="no-command"),
])
def test_malformed_flags_are_structural_errors(argv, named, capsys):
    # a parse error exits 3 like any structural error, not argparse's 2,
    # which is the exit code of an axiom violation
    assert main(argv) == EXIT_STRUCTURAL
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("structural error:")
    assert named in err[0]


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-h"])
    assert exc.value.code == 0
    assert "--builtin" in capsys.readouterr().out


def test_the_parser_is_built_once_per_process(monkeypatch, capsys):
    from leibrack import cli
    assert main(["verify", "--builtin", "sl2-adjoint"]) == EXIT_PASS
    made, init = [], cli._Parser.__init__

    def counted(self, *args, **kw):
        made.append(self)
        init(self, *args, **kw)
    monkeypatch.setattr(cli._Parser, "__init__", counted)
    assert main(["verify", "--builtin", "scaling:2.0"]) == EXIT_PASS
    assert main(["verify", "--no-such-flag"]) == EXIT_STRUCTURAL
    helps = []
    for _ in range(2):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["integrate", "-h"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    assert made == [] and helps[0] == helps[1] and "--samples" in helps[0]


@pytest.mark.parametrize("cmd", ["verify", "integrate"])
@pytest.mark.parametrize("name", ["sl2-adjoint", "scaling:2.5",
                                  "heisenberg-ideal"])
def test_a_builtin_triple_is_checked_once(cmd, name, monkeypatch, capsys):
    # a builtin is the unchecked triple of a crossed module, and the command
    # checks it once, as it checks a spec file
    from leibrack import cli, triples
    calls, reports = [], triples.triple_reports

    def counted(*args, **kw):
        calls.append(args)
        return reports(*args, **kw)
    monkeypatch.setattr(triples, "triple_reports", counted)
    monkeypatch.setattr(cli, "triple_reports", counted)
    argv = [cmd, "--builtin", name] + (["--samples", "20"] if cmd == "integrate"
                                       else [])
    assert main(argv) == EXIT_PASS
    assert len(calls) == 1


def gl_doc(n: int, **extra) -> dict:
    """The adjoint triple of gl(n) as a spec, with the natural representation."""
    triple, rep = gl_parts(n)
    C = triple.algebra.structure_constants
    doc = {"lie_algebra": {"dim": n * n, "structure_constants": [
               [int(i), int(j), int(k), float(C[i, j, k])]
               for i, j, k in np.argwhere(C)]},
           "module": {"dim_v": n * n,
                      "action_matrices": triple.action.action_matrices.tolist()},
           "theta": {"matrix": np.eye(n * n).tolist()},
           "faithful_rep": {"matrices": rep.matrices.tolist()}}
    doc.update(extra)
    return doc


@pytest.mark.parametrize("cmd,morphism,counts", [
    ("verify", False, (1, 1, 1)), ("verify", True, (2, 2, 2)),
    ("integrate", False, (1, 1, 1))])
def test_each_triple_derives_its_data_once(cmd, morphism, counts, tmp_path,
                                           monkeypatch, capsys):
    # the derived bracket, the defect stack and its SVD, per triple built
    from leibrack import triples
    extra = {"morphism": {"target": gl_doc(3), "phi": np.eye(9).tolist(),
                          "psi": np.eye(9).tolist()}} if morphism else {}
    argv = [cmd, write_doc(tmp_path, "gl3.json", gl_doc(3, **extra))] + (
        ["--samples", "5"] if cmd == "integrate" else [])
    made = {"bracket": 0, "defect": 0, "svd": 0}

    def counted(key, fn, caller=None):
        def wrapper(*args, **kw):
            if caller in (None, sys._getframe(1).f_globals["__name__"]):
                made[key] += 1
            return fn(*args, **kw)
        return wrapper
    monkeypatch.setattr(triples, "derived_bracket_tensor",
                        counted("bracket", triples.derived_bracket_tensor))
    monkeypatch.setattr(triples, "_defect_stack",
                        counted("defect", triples._defect_stack))
    monkeypatch.setattr(np.linalg, "svd",
                        counted("svd", np.linalg.svd, "leibrack.triples"))
    assert main(argv) == EXIT_PASS
    assert (made["bracket"], made["defect"], made["svd"]) == counts


def test_a_corpus_crossed_module_row_checks_each_law_once(monkeypatch, capsys):
    from leibrack import cli, racks
    checked = {}
    for name in ("check_group_crossed_module", "check_group_rack_triple"):
        def counted(obj, check=getattr(racks, name), name=name):
            checked.setdefault(name, []).append(obj)
            return check(obj)
        monkeypatch.setattr(racks, name, counted)
        monkeypatch.setattr(cli, name, counted)
    assert main(["corpus", "--count", "0"]) == EXIT_PASS
    # three conjugation crossed modules, the inclusion and the relaxed one
    assert len(checked["check_group_crossed_module"]) == 5
    for objects in checked.values():        # no object is checked twice
        assert len({id(obj) for obj in objects}) == len(objects)


def test_builtin_argument_errors(tmp_path):
    assert main(["verify", "--builtin", "no-such-system"]) == EXIT_STRUCTURAL
    assert main(["verify", "--builtin", "scaling:xyz"]) == EXIT_STRUCTURAL
    path = write_doc(tmp_path, "g.json", scaling_doc(1.0))
    assert main(["verify", path, "--builtin", "sl2-adjoint"]) == \
        EXIT_STRUCTURAL
    assert main(["verify"]) == EXIT_STRUCTURAL


def test_integrate_builtin_passes(capsys):
    assert main(["integrate", "--builtin", "scaling:1.0",
                 "--samples", "30"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "tensor round trip" in out
    assert "defect recovery" in out
    assert "overall: PASS" in out


def test_integrate_spec_file_with_config(tmp_path, capsys):
    doc = scaling_doc(2.0, config={"samples": 25, "seed": 3,
                                   "scheme": "richardson", "step": 2e-3})
    path = write_doc(tmp_path, "cfg.json", doc)
    assert main(["integrate", path, "--format", "json"]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["scheme"] == "richardson"
    assert payload["step"] == pytest.approx(2e-3)
    assert payload["passed"] is True
    assert payload["strict"] is False


def test_integrate_flags_override_config(tmp_path, capsys):
    doc = scaling_doc(2.0, config={"scheme": "richardson", "samples": 25})
    path = write_doc(tmp_path, "cfg2.json", doc)
    assert main(["integrate", path, "--scheme", "central",
                 "--format", "json"]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["scheme"] == "central"


@pytest.mark.parametrize("flag,value", [
    pytest.param("--samples", "0", id="0"),
    pytest.param("--samples", "-5", id="-5"),
    pytest.param("--tolerance", "-1", id="tolerance=-1"),
    pytest.param("--tolerance", "0", id="tolerance=0"),
    pytest.param("--tolerance", "nan", id="tolerance=nan"),
    pytest.param("--seed", "-1", id="seed=-1"),
])
def test_integrate_rejects_samples_below_one_from_flag(flag, value, capsys):
    assert main(["integrate", "--builtin", "sl2-adjoint",
                 flag, value]) == EXIT_STRUCTURAL
    captured = capsys.readouterr()
    assert flag in captured.err
    assert "[PASS]" not in captured.out


@pytest.mark.parametrize("flag,value", [
    pytest.param("--step", "-1", id="step=-1"),
    pytest.param("--step", "0", id="step=0"),
    pytest.param("--scheme", "upwind", id="scheme=upwind"),
    pytest.param("--radius", "0.7", id="radius=0.7"),
    pytest.param("--radius", "0", id="radius=0"),
])
def test_integrate_settings_out_of_range_name_their_flag(flag, value, capsys):
    # checked where the flag is read, not by the constructors that use it
    test_integrate_rejects_samples_below_one_from_flag(flag, value, capsys)


def test_integrate_rejects_samples_below_one_from_config(tmp_path, capsys):
    # samples below one, and round-trip tolerances not positive or NaN
    for key, value in (("samples", 0), ("tolerance", -1.0),
                       ("tolerance", float("nan"))):
        path = write_doc(tmp_path, "badconfig.json",
                         scaling_doc(2.0, config={key: value}))
        assert main(["integrate", path]) == EXIT_STRUCTURAL
        assert f"config.{key}" in capsys.readouterr().err


def _malformed(cmd, field, doc, *path_and_value, case=None):
    """A spec ``doc`` with the entry at ``path`` replaced by ``value``; the
    test id is ``case``, else the field."""
    *path, value = path_and_value
    doc = json.loads(json.dumps(doc))       # scaling_doc shares inner lists
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return pytest.param(cmd, field, doc, id=case or field)


def _raw(cmd, field, content: bytes, case):
    """A row whose spec file holds the raw bytes ``content``, which no JSON
    document can give."""
    return pytest.param(cmd, field, content, id=case)


def _deep(depth: int) -> bytes:
    """The scaling spec with ``theta.matrix`` nested ``depth`` lists deep."""
    text = json.dumps(scaling_doc(1.0, theta={"matrix": "@"}))
    return text.replace('"@"', "[" * depth + "0" + "]" * depth).encode()


NAN = float("nan")
MALFORMED = [
    _malformed("verify", "x_size", rack_doc(), "x_size", "two"),
    _malformed("verify", "basepoint", rack_doc(), "basepoint", "a"),
    _malformed("verify", "group.unit", rack_doc(), "group", "unit", "u"),
    _malformed("verify", "lie_algebra.structure_constants[1]", scaling_doc(1.0),
               "lie_algebra", "structure_constants", 1, 3, "minus one"),
    _malformed("verify", "module.action_matrices", scaling_doc(1.0),
               "module", "action_matrices", 0, 0, 0, "one"),
    _malformed("verify", "h_basis.vectors",
               scaling_doc(1.0, h_basis={"vectors": [[0.0, 1.0]]}),
               "h_basis", "vectors", 0, 1, "one"),
    _malformed("integrate", "config.samples", scaling_doc(1.0, config={}),
               "config", "samples", "many"),
    _malformed("integrate", "config.step", scaling_doc(1.0, config={}),
               "config", "step", "small"),
    _malformed("verify", "faithful_rep.matrices",
               scaling_doc(1.0, faithful_rep={"matrices": [[[1.0, 0.0], [0.0, 0.0]],
                                                           [[0.0, 1.0], [0.0, 0.0]]]}),
               "faithful_rep", "matrices", 0, 0, 0, NAN),
    _malformed("verify", "lie_algebra.labels", scaling_doc(1.0),
               "lie_algebra", "labels", 3),
    _malformed("verify", "morphism.target",
               scaling_doc(1.0, morphism={"phi": np.eye(2).tolist(),
                                          "psi": [[1.0]]}),
               "morphism", "target", 5),
    _malformed("verify", "theta.matrix", scaling_doc(1.0),
               "theta", "matrix", 1, 0, NAN),
    _malformed("verify", "group.mul_table", rack_doc(),
               "group", "mul_table", 2, 3, "x"),
    _malformed("verify", "action_table", rack_doc(), "action_table", 1, 0, "x"),
    _malformed("verify", "theta_table", rack_doc(), "theta_table", 4, "x"),
    _malformed("verify", "lie_algebra.structure_constants", scaling_doc(1.0),
               "lie_algebra", "structure_constants", 5),
    _malformed("integrate", "config.seed", scaling_doc(1.0, config={}),
               "config", "seed", -3),
    # integrate settings out of range name their field, not the constructor
    _malformed("integrate", "config.step", scaling_doc(1.0, config={}),
               "config", "step", -1, case="config.step=-1"),
    _malformed("integrate", "config.step", scaling_doc(1.0, config={}),
               "config", "step", 0, case="config.step=0"),
    _malformed("integrate", "config.scheme", scaling_doc(1.0, config={}),
               "config", "scheme", "upwind", case="config.scheme=upwind"),
    _malformed("integrate", "config.radius", scaling_doc(1.0, config={}),
               "config", "radius", 0.6, case="config.radius=0.6"),
    _malformed("integrate", "config.radius", scaling_doc(1.0, config={}),
               "config", "radius", 0, case="config.radius=0"),
    # the unit is checked before the inverses are looked for
    _malformed("verify", "group.unit", rack_doc(), "group", "unit", 7,
               case="group.unit=7"),
    _malformed("verify", "group.unit", rack_doc(), "group", "unit", 6,
               case="group.unit=6"),
    # one integer rule: a JSON integer, never a boolean and never a float
    _malformed("verify", "lie_algebra.dim", scaling_doc(1.0),
               "lie_algebra", "dim", True),
    _malformed("verify", "module.dim_v", scaling_doc(1.0),
               "module", "dim_v", True),
    _malformed("verify", "lie_algebra.structure_constants[0]", scaling_doc(1.0),
               "lie_algebra", "structure_constants", 0, 0, True),
    _malformed("verify", "basepoint", rack_doc(), "basepoint", True,
               case="basepoint=true"),
    _malformed("verify", "x_size", rack_doc(), "x_size", 6.5,
               case="x_size=6.5"),
    _malformed("integrate", "config.samples", scaling_doc(1.0, config={}),
               "config", "samples", 2.5, case="config.samples=2.5"),
    _malformed("integrate", "config.samples", scaling_doc(1.0, config={}),
               "config", "samples", True, case="config.samples=true"),
    # the whole spec is parsed at load, whatever the command and the verdict
    _malformed("integrate", "morphism.target",
               scaling_doc(1.0, morphism={"phi": np.eye(2).tolist(),
                                          "psi": [[1.0]]}),
               "morphism", "target", 5, case="integrate:morphism.target"),
    _malformed("verify", "morphism.target",
               scaling_doc(1.5, theta={"matrix": [[0.1], [1.0]]},
                           morphism={"phi": np.eye(2).tolist(),
                                     "psi": [[1.0]]}),
               "morphism", "target", 5, case="morphism.target/failing-source"),
    # a string is no number inside an array or a table, even when it reads
    # as one
    _malformed("verify", "module.action_matrices", scaling_doc(1.0),
               "module", "action_matrices", [[["2.0"]], [[0.0]]],
               case="module.action_matrices/numeric-string"),
    _malformed("verify", "theta.matrix", scaling_doc(1.0),
               "theta", "matrix", [["0"], [" 1 "]], case="theta.matrix/numeric-string"),
    _malformed("verify", "action_table", rack_doc(), "action_table", 0, 0, "0",
               case="action_table/numeric-string"),
    _malformed("verify", "group.mul_table", rack_doc(),
               "group", "mul_table", 0, 0, "0", case="group.mul_table/numeric-string"),
    # nor is a boolean, at any depth of a number list
    _malformed("verify", "theta.matrix", scaling_doc(1.0),
               "theta", "matrix", [[True], [1.0]], case="theta.matrix/boolean"),
    _malformed("verify", "action_table", rack_doc(), "action_table", 1, 2, True,
               case="action_table/boolean"),
    # constructor errors carry the spec field
    _malformed("verify", "module.action_matrices", scaling_doc(1.0),
               "module", "action_matrices", [[[1.0]], [[0.0]], [[0.0]]],
               case="module.action_matrices/shape"),
    _malformed("verify", "h_basis.vectors",
               scaling_doc(1.0, h_basis={"vectors": [[0.0, 1.0]]}),
               "h_basis", "vectors", [[0.0, 1.0, 0.0]],
               case="h_basis.vectors/length"),
    _malformed("verify", "h_basis.vectors",
               scaling_doc(1.0, h_basis={"vectors": [[0.0, 1.0]]}),
               "h_basis", "vectors", [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
               case="h_basis.vectors/overfull"),
    # a config key that is not a setting, and a label that is not a string
    _malformed("integrate", "config.sample", scaling_doc(1.0, config={}),
               "config", "sample", 3),
    _malformed("verify", "config.Samples", scaling_doc(1.0, config={}),
               "config", "Samples", 0),
    _malformed("verify", "lie_algebra.labels[0]", scaling_doc(1.0),
               "lie_algebra", "labels", [True, None]),
    _malformed("verify", "lie_algebra.labels[1]", scaling_doc(1.0),
               "lie_algebra", "labels", ["a", None]),
    # a file that is no JSON text, or that nests deeper than its reader goes,
    # names the file; a field that does names the field
    _raw("verify", "malformed.json", b"\xff\xfe{", "bytes-not-utf8"),
    _raw("verify", "malformed.json", b"[" * 200000, "json-nested-too-deep"),
    _raw("integrate", "theta.matrix", _deep(900), "theta.matrix/nested-too-deep"),
    # past NumPy's 64 dimensions, which is no ragged row
    _raw("verify", "theta.matrix: lists nested too deep", _deep(100),
         "theta.matrix/nested-100-deep"),
    _raw("verify", "theta.matrix: lists nested too deep", _deep(400),
         "theta.matrix/nested-400-deep"),
    # a key that is not a field of its block, at the top level or in a block;
    # each spec is otherwise valid
    _malformed("verify", "thetas is not a field", rack_doc(), "thetas",
               [0, 1, 2, 3, 4, 5], case="rack/thetas"),
    _malformed("verify", "group.units is not a field", rack_doc(),
               "group", "units", 0, case="group.units"),
    _malformed("verify", "morphsm is not a field",
               scaling_doc(1.0), "morphsm",
               {"target": scaling_doc(1.0), "phi": np.eye(2).tolist(),
                "psi": [[1.0]]}, case="morphsm"),
    _malformed("integrate", "faithful_reps is not a field", scaling_doc(1.0),
               "faithful_reps", {"matrices": [[[1.0, 0.0], [0.0, 0.0]],
                                              [[0.0, 1.0], [0.0, 0.0]]]},
               case="faithful_reps"),
    _malformed("verify", "lie_algebra.label is not a field", scaling_doc(1.0),
               "lie_algebra", "label", ["a", "b"], case="lie_algebra.label"),
    _malformed("verify", "module.dimv is not a field", scaling_doc(1.0),
               "module", "dimv", 1, case="module.dimv"),
    _malformed("verify", "theta.matrices is not a field", scaling_doc(1.0),
               "theta", "matrices", [[0.0], [1.0]], case="theta.matrices"),
    _malformed("verify", "h_basis.vector is not a field",
               scaling_doc(1.0, h_basis={"vectors": [[0.0, 1.0]]}),
               "h_basis", "vector", [[0.0, 1.0]], case="h_basis.vector"),
    _malformed("verify", "morphism.target.thetas is not a field",
               scaling_doc(1.0, morphism={"target": scaling_doc(1.0),
                                          "phi": np.eye(2).tolist(),
                                          "psi": [[1.0]]}),
               "morphism", "target", "thetas", {"matrix": [[0.0], [1.0]]},
               case="morphism.target.thetas"),
    _malformed("verify", "morphism.chi is not a field",
               scaling_doc(1.0, morphism={"target": scaling_doc(1.0),
                                          "phi": np.eye(2).tolist(),
                                          "psi": [[1.0]]}),
               "morphism", "chi", [[1.0]], case="morphism.chi"),
]


@pytest.mark.parametrize("cmd,field,doc", MALFORMED)
def test_malformed_spec_field_is_named(cmd, field, doc, tmp_path, capsys):
    if isinstance(doc, bytes):
        (tmp_path / "malformed.json").write_bytes(doc)
    else:
        write_doc(tmp_path, "malformed.json", doc)
    assert main([cmd, str(tmp_path / "malformed.json")]) == EXIT_STRUCTURAL
    err = capsys.readouterr().err
    assert field in err
    assert err.startswith("structural error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("cmd,field,doc", [
    _malformed("integrate", "config.step", scaling_doc(1.0, config={}),
               "config", "step", 10 ** 400),
    _malformed("verify", "lie_algebra.structure_constants[0]", scaling_doc(1.0),
               "lie_algebra", "structure_constants", 0, 3, 10 ** 400),
])
def test_integer_beyond_float_range_is_not_finite(cmd, field, doc, tmp_path,
                                                  capsys):
    # a JSON integer where a number goes is converted, and may overflow
    test_malformed_spec_field_is_named(cmd, field, doc, tmp_path, capsys)


def test_integrate_text_counts_used_and_skipped_samples(capsys):
    assert main(["integrate", "--builtin", "scaling:-40", "--radius", "0.29",
                 "--samples", "100", "--scheme", "richardson",
                 "--step", "2e-3"]) == EXIT_PASS
    suites = [line for line in capsys.readouterr().out.splitlines()
              if "law suite" in line]
    assert len(suites) == 3
    assert suites[0].startswith("[PASS] law suite group_set")
    assert suites[0].endswith("(90 used, 10 skipped: 10 moved-point)")
    assert suites[1].endswith("(100 used, 0 skipped)")


def test_integrate_text_names_why_samples_were_skipped(capsys):
    # all ten skipped group-set samples moved their point out of the model
    # neighbourhood; a suite with no skip names no reason
    assert main(["integrate", "--builtin", "scaling:-40", "--radius", "0.29",
                 "--samples", "100", "--scheme", "richardson",
                 "--step", "2e-3"]) == EXIT_PASS
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == ("[PASS] law suite group_set: max residual 1.499e-15 "
                        "(90 used, 10 skipped: 10 moved-point)")
    assert lines[3] == ("[PASS] law suite rack: max residual 0.000e+00 "
                        "(100 used, 0 skipped)")


def test_integrate_rejects_rack_specs(tmp_path, capsys):
    path = write_doc(tmp_path, "rack.json", rack_doc())
    assert main(["integrate", path]) == EXIT_STRUCTURAL
    assert "verify" in capsys.readouterr().err


def test_integrate_capability_gap(tmp_path):
    # Heisenberg triple without a supplied representation: the adjoint one
    # is not faithful, so integration reports a capability gap
    heis = {
        "dim": 3,
        "structure_constants": [[0, 1, 2, 1.0], [1, 0, 2, -1.0]],
    }
    doc = {
        "lie_algebra": heis,
        "module": {"dim_v": 3,
                   "action_matrices": np.stack(
                       [catalog.heisenberg().ad(e)
                        for e in np.eye(3)]).tolist()},
        "theta": {"matrix": np.eye(3).tolist()},
    }
    path = write_doc(tmp_path, "heis.json", doc)
    assert main(["integrate", path]) == EXIT_CAPABILITY


def test_integrate_with_supplied_rep(tmp_path):
    heis = {
        "dim": 3,
        "structure_constants": [[0, 1, 2, 1.0], [1, 0, 2, -1.0]],
    }
    mats = catalog.faithful_rep_matrices("heisenberg")
    doc = {
        "lie_algebra": heis,
        "module": {"dim_v": 3,
                   "action_matrices": np.stack(
                       [catalog.heisenberg().ad(e)
                        for e in np.eye(3)]).tolist()},
        "theta": {"matrix": np.eye(3).tolist()},
        "faithful_rep": {"matrices": np.asarray(mats).tolist()},
        "config": {"samples": 25},
    }
    path = write_doc(tmp_path, "heisrep.json", doc)
    assert main(["integrate", path]) == EXIT_PASS


def test_integrate_invalid_triple_is_axiom_error(tmp_path):
    doc = scaling_doc(1.5)
    doc["theta"]["matrix"] = [[0.1], [1.0]]
    path = write_doc(tmp_path, "badint.json", doc)
    assert main(["integrate", path]) == EXIT_AXIOM


def test_nan_recovery_fails(capsys):
    # the defect's mixed stencil divides 0 by 4 h^2 = 0, so its recovery is
    # NaN; the first-derivative round trip stays finite, at exp(+-h X) = I,
    # and fails on its size
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # the report shows the NaN itself
        code = main(["integrate", "--builtin", "sl2-adjoint", "--step", "1e-200",
                     "--samples", "5", "--format", "json"])
    assert code == EXIT_AXIOM
    payload = json.loads(capsys.readouterr().out)
    assert payload["defect"]["passed"] is False
    assert np.isnan(payload["defect"]["max_gap"])
    assert payload["roundtrip"]["passed"] is False


@pytest.mark.parametrize("step", ["1e300", "1e154"])
def test_overflowing_step_is_one_short_domain_error(step, capsys):
    # the stencil points leave the model radius, and their norm overflows
    # (1e300) or is huge (1e154)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["integrate", "--builtin", "sl2-adjoint", "--step", step,
                     "--samples", "5"])
    assert code == EXIT_STRUCTURAL
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and len(err[0]) < 100
    assert err[0].startswith("domain error: theta(v) has norm ")


@pytest.mark.parametrize("cmd", ["verify", "integrate"])
def test_overflowing_spec_fails_without_runtime_warnings(cmd, tmp_path, capsys):
    # the module law and the defect overflow to inf - inf = NaN, which the
    # report shows; every command runs under one errstate, so no numpy
    # RuntimeWarning reaches stderr
    doc = scaling_doc(1e200)
    doc["theta"]["matrix"] = [[0.0], [1e200]]
    path = write_doc(tmp_path, "overflow.json", doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([cmd, path]) == EXIT_AXIOM
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "RuntimeWarning" not in capsys.readouterr().err


@pytest.mark.parametrize("argv,line", [
    pytest.param(["--step", "0.26"],        # off the chart edge at 0.25
                 "stencils: step 0.26, 5 of 18 directions shrank to 0.026",
                 id="5-of-18"),
    pytest.param([], "stencils: step 0.0001, 0 of 18 directions shrank",
                 id="none"),
])
def test_integrate_text_says_which_stencils_shrank(argv, line, capsys):
    main(["integrate", "--builtin", "sl2-adjoint", "--samples", "5", *argv])
    assert line in capsys.readouterr().out.splitlines()


def test_json_output_is_deterministic(capsys):
    args = ["integrate", "--builtin", "sl2-adjoint", "--samples", "20",
            "--format", "json"]
    assert main(args) == EXIT_PASS
    first = capsys.readouterr().out
    assert main(args) == EXIT_PASS
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert list(payload) == sorted(payload)


def test_verify_json_output(tmp_path, capsys):
    path = write_doc(tmp_path, "good.json", scaling_doc(0.5))
    assert main(["verify", path, "--format", "json"]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "triple"
    assert payload["passed"] is True
    assert payload["h_dim"] == 1
    assert payload["triple"]["info"]["strict"] is False


def test_corpus_small_run(capsys):
    assert main(["corpus", "--count", "2", "--samples", "20"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "UNEXPECTED" not in out
    assert "overall: PASS" in out


@pytest.mark.parametrize("flag,value", [
    pytest.param("--seed", "-1", id="seed=-1"),
    pytest.param("--samples", "0", id="samples=0"),
    pytest.param("--count", "-2", id="count=-2"),
])
def test_corpus_rejects_bad_seed_and_samples(flag, value, capsys):
    assert main(["corpus", "--count", "1", flag, value]) == EXIT_STRUCTURAL
    captured = capsys.readouterr()
    assert flag in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_corpus_json(capsys):
    assert main(["corpus", "--count", "1", "--samples", "15",
                 "--format", "json"]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    kinds = {row["case"].split("[")[0] for row in payload["cases"]}
    assert "strict_from_ideal" in kinds
    assert any("perturbed" in k for k in kinds)
    assert any("conjugation" in row["case"] for row in payload["cases"])


def test_verify_json_golden_s3_conjugation(capsys):
    assert main(["verify", "--builtin", "s3-conjugation",
                 "--format", "json"]) == EXIT_PASS
    golden = (GOLDEN / "verify_s3_conjugation.json").read_text("utf-8")
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize("name,doc", [
    ("verify_failing_h_basis.json",
     scaling_doc(2.0, h_basis={"vectors": [[1.0, 0.0]]})),
    ("verify_morphism.json",
     scaling_doc(2.0, morphism={"target": scaling_doc(1.0),
                                "phi": [[1.0, 0.0], [0.0, 2.0]],
                                "psi": [[1.0]]})),
])
def test_verify_json_golden_triple_blocks(name, doc, tmp_path, capsys):
    assert main(["verify", write_doc(tmp_path, "spec.json", doc),
                 "--format", "json"]) == EXIT_AXIOM
    assert capsys.readouterr().out == (GOLDEN / name).read_text("utf-8")


def test_verify_json_golden_broken_rack(tmp_path, capsys):
    doc = rack_doc()
    doc["action_table"][1] = np.roll(doc["action_table"][1], 1).tolist()
    path = write_doc(tmp_path, "rolled.json", doc)
    assert main(["verify", path, "--format", "json"]) == EXIT_AXIOM
    out = capsys.readouterr().out
    assert out == (GOLDEN / "verify_broken_rack.json").read_text("utf-8")
    assert json.loads(out)["triple"]["info"]["failures"] > MAX_LISTED_VIOLATIONS


@pytest.mark.parametrize("name,argv", [
    ("integrate_scaling2.json", ["integrate", "--builtin", "scaling:2.0",
                                 "--samples", "40", "--format", "json"]),
    ("corpus_count1.json", ["corpus", "--count", "1", "--samples", "20",
                            "--format", "json"]),
    # group_set skips 10 samples
    ("integrate_scaling_skips.json", [
        "integrate", "--builtin", "scaling:-40", "--radius", "0.29",
        "--samples", "100", "--scheme", "richardson", "--step", "2e-3",
        "--format", "json"]),
    # every stencil leaves the domain and shrinks its step
    ("integrate_scaling_shrinks.json", [
        "integrate", "--builtin", "scaling:2.0", "--step", "0.5",
        "--scheme", "richardson", "--samples", "20", "--format", "json"]),
])
def test_integration_json_golden(name, argv, capsys):
    # pins the suite, round-trip and defect tolerances and the defect gap
    assert main(argv) == EXIT_PASS
    assert capsys.readouterr().out == (GOLDEN / name).read_text("utf-8")
