"""The two value rules, ``frozen_array`` and ``integer``, and every value
type that validates through them: malformed values raise StructuralError
naming the argument, and integers are stored exactly, never truncated."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leibrack import (AxiomError, DiffConfig, EmbeddingTensor, FiniteGroup, FiniteRack,
                      GroupCrossedModule, GroupElement, GroupRackTriple,
                      LeibnizAlgebraData, LieAlgebraCrossedModule,
                      LieAlgebraData, LocalRackModel, MatrixRep, ModuleAction,
                      RackPoint, StructuralError, SubspaceBasis, TripleMorphism,
                      build_model, build_triple, catalog, conjugation_rack,
                      conjugation_triple, scaling_crossed_module,
                      scaling_triple)
from leibrack.algebra import _holds_bool, frozen_array, integer
from leibrack.examples import relaxed_crossed_module_z3_s3

NAN, INF = math.nan, math.inf
NAB = catalog.nonabelian2()
SL2 = catalog.sl2()
S3 = catalog.symmetric3()
TRIPLE = scaling_triple(2.0)
MODEL = build_model(TRIPLE)
CONJ = conjugation_triple(S3)
RELAXED = relaxed_crossed_module_z3_s3()
LIE_CM = scaling_crossed_module(2.0)

# every public value type with valid arguments
TYPES = {
    "LieAlgebraData": (LieAlgebraData, {
        "dim": 2, "basis_labels": ("a", "b"),
        "structure_constants": NAB.structure_constants}),
    "ModuleAction": (ModuleAction, {
        "algebra": NAB, "dim_v": 1, "action_matrices": [[[2.0]], [[0.0]]]}),
    "LeibnizAlgebraData": (LeibnizAlgebraData, {
        "dim": 1, "bracket_tensor": [[[0.0]]]}),
    "SubspaceBasis": (SubspaceBasis, {"ambient_dim": 2, "vectors": [[0.0, 1.0]]}),
    "EmbeddingTensor": (EmbeddingTensor, {"matrix": [[0.0], [1.0]]}),
    "TripleMorphism": (TripleMorphism, {
        "source": TRIPLE, "target": TRIPLE, "phi": np.eye(2), "psi": [[1.0]]}),
    "LieAlgebraCrossedModule": (LieAlgebraCrossedModule, {
        "m": LIE_CM.m, "n": LIE_CM.n, "mu": LIE_CM.mu, "eta": LIE_CM.eta,
        "n_prime": LIE_CM.n_prime}),
    "GroupElement": (GroupElement, {"coords": [0.0, 0.0], "matrix": np.eye(2)}),
    "MatrixRep": (MatrixRep, {
        "algebra": NAB, "matrices": catalog.faithful_rep_matrices("nonabelian2")}),
    "DiffConfig": (DiffConfig, {"step": 1e-4, "scheme": "central"}),
    "RackPoint": (RackPoint, {"v": [0.1], "u": [0.0, 0.1]}),
    "LocalRackModel": (LocalRackModel, {
        "triple": MODEL.triple, "rep": MODEL.rep, "h_basis": MODEL.h_basis,
        "radius": MODEL.radius, "cfg": MODEL.cfg}),
    "FiniteRack": (FiniteRack, {
        "size": 6, "op_table": conjugation_rack(S3).op_table, "basepoint": 0}),
    "FiniteGroup": (FiniteGroup, {"mul_table": S3.mul_table, "unit": 0}),
    "GroupRackTriple": (GroupRackTriple, {
        "group": S3, "x_size": 6, "action_table": CONJ.action_table,
        "theta_table": CONJ.theta_table, "basepoint": 0}),
    "GroupCrossedModule": (GroupCrossedModule, {
        "m": RELAXED.m, "n": RELAXED.n, "mu": RELAXED.mu, "eta": RELAXED.eta,
        "n_prime": RELAXED.n_prime}),
}
INTEGER_FIELDS = ("dim", "dim_v", "ambient_dim", "size", "unit", "basepoint",
                  "x_size")

# the arguments that take a value (a number, a string, an array or a table)
# rather than another object of the package
CASES = [(name, key) for name, (_, args) in TYPES.items()
         for key, value in args.items()
         if not type(value).__module__.startswith("leibrack")]

NUMBERS = st.one_of(st.integers(-2, 7), st.integers(-2, 7).map(np.int64),
                    st.sampled_from([0.5, 1.5, 2.0, NAN, INF, -INF]))
SCALARS = st.one_of(st.booleans(), st.none(), st.text(max_size=3), NUMBERS)
VALUES = st.one_of(
    SCALARS, st.lists(SCALARS, max_size=4),
    st.lists(st.lists(SCALARS, max_size=3), max_size=3),       # ragged too
    st.lists(st.booleans(), min_size=1, max_size=3).map(np.array))


def test_the_property_covers_every_value_argument():
    assert len(CASES) == 33
    assert all(TYPES[name][0](**args) is not None
               for name, (_, args) in TYPES.items())


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(CASES), value=VALUES)
def test_a_replaced_value_raises_or_is_stored_exactly(case, value):
    name, key = case
    make, args = TYPES[name]
    args = dict(args, **{key: value})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            made = make(**args)
        except StructuralError:
            return
        except AxiomError:              # a well-formed table that is no group
            assert name == "FiniteGroup"
            assert key == "mul_table" or type(value) in (int, np.int64)
            return
    for field in INTEGER_FIELDS:
        if args.get(field) is not None:
            given_value, stored = args[field], getattr(made, field)
            assert not isinstance(given_value, bool), (name, field)
            assert isinstance(given_value, (int, np.integer)), (name, field)
            assert type(stored) is int and stored == given_value, (name, field)
    if name == "FiniteGroup":           # derived, and stored the same way
        assert type(made.size) is int and made.size == len(made.mul_table)
        assert not made.inverse_table.flags.writeable
    if name == "GroupCrossedModule" and made.n_prime is not None:
        assert all(type(i) is int for i in made.n_prime)
        # an empty input of any depth is the empty subgroup (the array rule)
        assert made.n_prime == tuple(sorted(np.ravel(args["n_prime"]).tolist()))
    stored = getattr(made, key)
    if isinstance(stored, np.ndarray):
        assert not stored.flags.writeable
        assert np.isfinite(stored).all()


# ---------------------------------------------------------------------------
# one test per fault the rules mend
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make,name", [
    (lambda: FiniteRack(6, conjugation_rack(S3).op_table, basepoint=2.7),
     "basepoint"),
    (lambda: GroupRackTriple(S3, 6, CONJ.action_table, CONJ.theta_table,
                             basepoint=1.5), "basepoint"),
    (lambda: GroupCrossedModule(RELAXED.m, RELAXED.n, RELAXED.mu, RELAXED.eta,
                                n_prime=[0, 3.7]), "restriction subgroup"),
], ids=["rack-basepoint", "triple-basepoint", "n_prime"])
def test_a_fractional_index_is_rejected_not_truncated(make, name):
    with pytest.raises(StructuralError, match=name):
        make()


@pytest.mark.parametrize("make,name", [
    (lambda: FiniteRack(6, conjugation_rack(S3).op_table, basepoint="a"),
     "basepoint"),
    (lambda: FiniteGroup(S3.mul_table, unit=None), "unit"),
    (lambda: LieAlgebraData(2, None, NAB.structure_constants), "basis labels"),
    (lambda: MatrixRep(SL2, "abc"), "representation matrices"),
    (lambda: EmbeddingTensor("x"), "embedding tensor"),
    (lambda: SubspaceBasis(3, "abc"), "subspace vectors"),
    (lambda: DiffConfig(step="a"), "step"),
    (lambda: FiniteGroup(S3.mul_table, unit=1.5), "unit"),
    (lambda: FiniteRack(True, [[0]]), "size"),
    (lambda: EmbeddingTensor([[NAN]]), "embedding tensor"),
    (lambda: EmbeddingTensor([[True], [1.0]]), "embedding tensor"),
    (lambda: FiniteRack(2, [[0, True], [1, 0]]), "rack table"),
    (lambda: ModuleAction(NAB, 1, [[[2.0]], ((np.False_,),)]), "action matrices"),
    (lambda: DiffConfig(step=INF), "step"),
    (lambda: LocalRackModel(MODEL.triple,
                            MatrixRep(SL2, SL2.adjoint_action().action_matrices),
                            MODEL.h_basis, MODEL.radius, MODEL.cfg),
     "representation"),
], ids=["basepoint-string", "unit-none", "labels-none", "rep-string",
        "theta-string", "subspace-string", "step-string", "from-table-unit",
        "size-bool", "theta-nan", "theta-bool-in-list", "rack-bool-in-list",
        "action-numpy-bool-in-tuple", "step-inf", "rep-other-algebra"])
def test_a_malformed_value_is_a_structural_error_naming_it(make, name):
    with pytest.raises(StructuralError, match=name):
        make()


def test_numpy_integers_are_stored_as_ints():
    rack = FiniteRack(np.int64(6), conjugation_rack(S3).op_table,
                      basepoint=np.int32(0))
    assert type(rack.size) is int and rack.size == 6
    assert type(rack.basepoint) is int and rack.basepoint == 0
    alg = LieAlgebraData(np.int64(2), ("a", "b"), NAB.structure_constants)
    assert type(alg.dim) is int


def test_the_array_rule():
    table = frozen_array([[0, 1.0], [np.int64(1), 0]], (2, 2), "t", 2)
    assert table.dtype == np.int64 and not table.flags.writeable
    assert frozen_array([], (None, 3), "rows").shape == (0, 3)
    assert frozen_array([[1, 2]], (None, 2), "rows").dtype == float
    for values, message in [
            ([["1"]], "entries must be numbers"),
            ([[True]], "entries must be numbers"),
            ([[0], [True]], "entries must be numbers"),
            ([[None]], "entries must be numbers"),
            ([[1.0], [1.0, 2.0]], "rows must have equal lengths"),
            ([[INF]], "entries must be finite"),
            ([[0.5]], "entries must be integers"),
            ([[2]], r"entries must lie in \[0, 2\)"),
            ([0, 1], r"expected shape \(None, 1\)")]:
        with pytest.raises(StructuralError, match=f"^t: {message}"):
            frozen_array(values, (None, 1), "t", 2)
    # one free length takes an empty input, two do not
    with pytest.raises(StructuralError, match="expected shape"):
        frozen_array([], (None, None), "t")


def test_the_integer_rule():
    assert integer(np.uint8(3), "n") == 3 and type(integer(np.int64(3), "n")) is int
    assert integer(0, "i", 0, 1) == 0
    for value in (True, 1.0, "1", None, np.float64(1.0)):
        with pytest.raises(StructuralError, match="^n must be an integer"):
            integer(value, "n")
    for value, low, high in ((0, 1, None), (5, 0, 5), (-1, 0, 3)):
        with pytest.raises(StructuralError, match="^n out of range"):
            integer(value, "n", low, high)


def test_the_inverse_table_takes_the_first_two_sided_inverse():
    # 1 and 2 are both two-sided inverses of 1; the table is no group, but
    # the inverses are read the way a scan from index 0 reads them
    mul = np.array([[0, 1, 2], [1, 0, 0], [2, 0, 0]])
    assert FiniteGroup(mul).inverse_table.tolist() == [0, 1, 1]
    for group in catalog.group_catalog().values():
        M = group.mul_table
        scan = [next(h for h in range(group.size)
                     if M[g, h] == group.unit == M[h, g])
                for g in range(group.size)]
        assert group.inverse_table.tolist() == scan


def test_the_same_algebra_is_checked_by_structure_constants():
    # equal dimension is not enough: a faithful heisenberg representation is
    # no sl2 representation, and the model itself rejects it
    model = build_model(build_triple(SL2, SL2.adjoint_action(),
                                     EmbeddingTensor(np.eye(3))))
    heis = catalog.heisenberg()
    with pytest.raises(StructuralError,
                       match="representation is over a different algebra"):
        LocalRackModel(model.triple,
                       MatrixRep(heis, catalog.faithful_rep_matrices("heisenberg")),
                       model.h_basis, model.radius, model.cfg)
    twin = LieAlgebraData(3, SL2.basis_labels, SL2.structure_constants)
    rep = MatrixRep(twin, twin.adjoint_action().action_matrices)
    made = LocalRackModel(model.triple, rep, model.h_basis, model.radius,
                          model.cfg)
    assert made.rep is rep and made.transport.matrix_dim == 3


def test_the_model_subalgebra_lives_in_the_triples_algebra():
    # a basis of R^3 is no subspace of the two-dimensional algebra; the model
    # rejects it as RelaxedAugmentation does, naming h_basis
    triple = scaling_triple(1.0)
    rep = build_model(triple).rep
    with pytest.raises(StructuralError, match="h_basis"):
        LocalRackModel(triple, rep, SubspaceBasis(3, np.eye(3)), 0.3,
                       DiffConfig())


def holds_bool_by_recursion(value) -> bool:
    """The plain recursive definition of ``algebra._holds_bool``."""
    return type(value) in (bool, np.bool_) or type(value) in (list, tuple) \
        and any(map(holds_bool_by_recursion, value))


JSON_LEAVES = (st.floats(allow_nan=False) | st.integers() | st.booleans()
               | st.booleans().map(np.bool_) | st.text(max_size=3) | st.none())
JSON_VALUES = st.recursive(
    JSON_LEAVES, lambda inner: st.lists(inner, max_size=6)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=30)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(value=JSON_VALUES)
def test_holds_bool_agrees_with_its_recursive_definition(value):
    assert _holds_bool(value) == holds_bool_by_recursion(value)
