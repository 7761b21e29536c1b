"""The batched law suites against the per-sample oracle in suite_oracle.py,
and the stacked kernels against the single-input edge.

The suites must give the same verdicts, info, used and skipped counts,
skips by reason and listed violations (law and sample) as one trial per
sample; residuals may differ by at most 1e-14 * max(1, |r|).  On every
slice, a stacked kernel must fail as the edge form fails on that slice, with
the same exception class and message raised through the reason table, and
a slice that did not fail must equal the edge form's result bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import suite_oracle as oracle
from leibrack import (ChartError, DomainError, EmbeddingTensor, GroupElement,
                      LieLeibnizTriple, MatrixRep, ModuleAction, RackPoint,
                      StructuralError,
                      SubspaceBasis, build_model, build_triple, catalog,
                      check_equivariance, check_local_group_set_laws,
                      check_local_rack_laws, ideal_triple, lie_algebra,
                      local_action, log_matrix)
from leibrack import algebra, integrate
from leibrack.cli import builtin_parts
from leibrack.integrate import LocalRackModel, _act
from leibrack.localgroup import CHART_BALL, MODEL_RADIUS, PRODUCT_CHART, \
    SINGULAR, SPAN, chart_products, expm, first_failure, norms, raise_failure
from recovery_oracle import one

SUITES = [(check_local_group_set_laws, oracle.check_local_group_set_laws),
          (check_local_rack_laws, oracle.check_local_rack_laws),
          (check_equivariance, oracle.check_equivariance)]


def builtin_model(name, **kw):
    _, parts = builtin_parts(name)
    triple = build_triple(parts["algebra"], parts["action"], parts["theta"])
    return build_model(triple, rep=parts["rep"], **kw)


def ideal_model(name, ideal):
    alg = catalog.algebra_by_name(name)
    triple = ideal_triple(alg, catalog.ideal_subspace(name, ideal))
    return build_model(triple,
                       rep=MatrixRep(alg, catalog.faithful_rep_matrices(name)))


def scaled_sl2_model(factor):
    """sl2 with its brackets scaled: group elements move points far enough
    that every suite skips samples."""
    alg = lie_algebra(factor * catalog.sl2().structure_constants)
    return build_model(build_triple(alg, alg.adjoint_action(),
                                    EmbeddingTensor(np.eye(3))))


def zero_subalgebra_model():
    alg = catalog.nonabelian2()
    triple = build_triple(alg, ModuleAction(alg, 1, [[[2.0]], [[0.0]]]),
                          EmbeddingTensor([[0.0], [0.0]]))
    rep = MatrixRep(alg, catalog.faithful_rep_matrices("nonabelian2"))
    return build_model(triple, rep=rep,
                       h_basis=SubspaceBasis(2, np.zeros((0, 2))))


def transported_model(good, action_matrices):
    """``good`` with its module's transport built from other action
    matrices: the model the triple would give if those were its action."""
    alg, theta = good.triple.algebra, good.triple.theta
    triple = LieLeibnizTriple(
        alg, ModuleAction(alg, good.triple.dim_v, action_matrices), theta)
    return LocalRackModel(triple, good.rep, good.h_basis, good.radius, good.cfg)


def broken_model():
    """sl2-adjoint with its transport taken from a conjugate of the
    adjoint action: still a group action, but theta no longer intertwines,
    so the rack and equivariance laws fail."""
    good = builtin_model("sl2-adjoint")
    P = np.diag([1.0, 2.0, 3.0])
    return transported_model(
        good, P @ good.triple.action.action_matrices @ np.linalg.inv(P))


def off_span_model():
    """The sl2x30 model with its faithful representation replaced by
    matrices that do not represent sl2: chart products leave the
    representation span, so the equivariance suite skips a sample for the
    first of two reasons."""
    good = scaled_sl2_model(30.0)
    R = 0.3 * np.random.default_rng(8).standard_normal((3, 3, 3))
    return LocalRackModel(good.triple, MatrixRep(good.triple.algebra, R),
                          good.h_basis, good.radius, good.cfg)


def assert_same_report(batched, scalar, skips=None):
    """Two reports agree; so do the skips by reason of two suite runs that
    filled the pair ``skips``."""
    got, want = batched.to_dict(), scalar.to_dict()
    if skips is not None:
        assert skips[0] == skips[1]
    assert got["passed"] == want["passed"]
    assert got["info"] == want["info"]
    assert [(v["law"], v["where"]) for v in got["violations"]] == \
        [(v["law"], v["where"]) for v in want["violations"]]
    residuals = [(v["residual"], w["residual"]) for v, w in
                 zip(got["violations"], want["violations"])]
    residuals.append((got["max_residual"], want["max_residual"]))
    for r, s in residuals:
        assert abs(r - s) <= 1e-14 * max(1.0, abs(s)) or (r != r and s != s)


MODELS = [pytest.param(lambda n=n: builtin_model(n), id=n)
          for n in ("sl2-adjoint", "scaling:2.0", "scaling:-0.7",
                    "heisenberg-ideal")]
MODELS += [pytest.param(lambda n=n, i=i: ideal_model(n, i), id=f"{n}/{i}")
           for n, i in catalog.IDEAL_CHOICES]
MODELS += [
    pytest.param(lambda: builtin_model("scaling:-40", radius=0.29),
                 id="scaling:-40@0.29"),
    pytest.param(lambda: scaled_sl2_model(30.0), id="sl2x30"),
    pytest.param(zero_subalgebra_model, id="zero-subalgebra"),
    pytest.param(broken_model, id="broken-module-block"),
    pytest.param(off_span_model, id="off-span-rep"),
]


@pytest.mark.parametrize("make", MODELS)
def test_batched_suites_match_the_per_sample_oracle(make):
    model = make()
    for k, (batched, scalar) in enumerate(SUITES):
        skips = {}, {}
        assert_same_report(batched(model, 120, 7 + k, skips=skips[0]),
                           scalar(model, 120, 7 + k, skips=skips[1]), skips)


@pytest.mark.parametrize("samples", [0, -5, 1, 800])
def test_sample_counts_match_the_oracle(samples):
    model = builtin_model("sl2-adjoint")
    for batched, scalar in SUITES:
        assert_same_report(batched(model, samples, 3), scalar(model, samples, 3))


@pytest.mark.parametrize("make", [broken_model, lambda: scaled_sl2_model(30.0)],
                         ids=["broken-module-block", "sl2x30"])
def test_batch_boundaries_keep_the_report(make, monkeypatch):
    # with 7 samples per batch (a third of the kernel call's 21 slices),
    # listed violations and skips cross batches
    model = make()
    monkeypatch.setattr(algebra, "_BLOCK", 21 * model.triple.dim_v ** 2)
    assert integrate._per_call(model) == 21
    for k, (batched, scalar) in enumerate(SUITES):
        skips = {}, {}
        assert_same_report(batched(model, 60, 7 + k, skips=skips[0]),
                           scalar(model, 60, 7 + k, skips=skips[1]), skips)


def test_the_oracle_cases_exercise_skips_and_violations():
    # the comparison above means little unless skips and violations occur
    why = {}
    skips = check_local_group_set_laws(builtin_model("scaling:-40", radius=0.29),
                                       samples=100, skips=why)
    assert skips.info["samples_skipped"] == 10
    assert why == {"moved-point": 10}
    mixed = {}
    check_equivariance(off_span_model(), 120, 9, skips=mixed)
    assert set(mixed) == {"span", "moved-point"}
    model = scaled_sl2_model(30.0)
    assert all(batched(model, 120, 7 + k).info["samples_skipped"] > 0
               for k, (batched, _) in enumerate(SUITES))
    broken = broken_model()
    reports = [batched(broken, 120, 7 + k) for k, (batched, _) in enumerate(SUITES)]
    assert reports[0].passed
    assert len(reports[1].violations) == len(reports[2].violations) == 20
    assert not reports[1].passed and not reports[2].passed


def test_group_set_composition_catches_a_module_that_is_no_representation():
    # one action matrix scaled by 1 + eps is no representation: rho(g1 g2)
    # and rho(g1) rho(g2) differ at second order, about 1.7e-4 eps here.
    # The faithful product stays in the span, so every sample is measured
    good = builtin_model("sl2-adjoint")
    assert check_local_group_set_laws(good, 200).max_residual <= 1e-15
    for eps, passed in ((1e-6, True), (1e-5, False)):
        action = good.triple.action.action_matrices.copy()
        action[0] *= 1.0 + eps
        skips = {}
        report = check_local_group_set_laws(transported_model(good, action),
                                            200, skips=skips)
        assert skips == {} and report.info["samples_used"] == 200
        assert report.max_residual >= 1e-4 * eps
        assert report.passed == passed
        assert {v.law for v in report.violations} <= {"group-set-composition"}


# ---------------------------------------------------------------------------
# stacked kernels against the single-input edge
# ---------------------------------------------------------------------------

def random_stack(m, k=12, scale=0.6, seed=0):
    rng = np.random.default_rng(seed)
    return scipy.linalg.expm(rng.standard_normal((k, m, m)) * scale / np.sqrt(m))


def outcome(call):
    """("value", what ``call`` returns), or the class and message of the
    DomainError it raises."""
    try:
        return "value", call()
    except DomainError as exc:
        return type(exc), str(exc)


def assert_like_the_edge(values, why, edge, radius=None):
    """A stacked kernel's stacks of ``values`` and its failures ``why``
    against ``edge(i)``, the single-input form on slice i: a failed slice
    raises, through the reason table, what the edge raises, and any other
    slice equals every value of the edge bit for bit."""
    for i in range(len(why)):
        want = outcome(lambda: edge(i))
        if why["reason"][i]:
            assert outcome(lambda: raise_failure(why[i], radius)) == want
        else:
            assert want[0] == "value"
            assert all(np.array_equal(got[i], single)
                       for got, single in zip(values, want[1], strict=True))


def check_log(A):
    """log_matrix on the stack A against its edge; the failures."""
    logs, why = log_matrix(A)
    assert_like_the_edge((logs,), why, lambda i: one(log_matrix, A[i]))
    assert np.all(logs[why["reason"] > 0] == 0.0)
    return why


def check_rep_kernels(model, coords, off_span=()):
    """MatrixRep.element on ``coords``, coords_of on the logarithms of its
    matrices with the slices ``off_span`` moved off the span, and
    chart_products of each matrix with itself, each against its edge; the
    three stacks of failures."""
    rep = model.rep
    mats, element = rep.element(coords)
    assert_like_the_edge((mats,), element,
                         lambda i: (GroupElement.exp(rep, coords[i]).matrix,))
    assert np.all(mats[element["reason"] > 0] == np.eye(rep.matrix_dim))
    logs = log_matrix(mats)[0]
    logs[list(off_span)] += np.eye(rep.matrix_dim)    # in no test model's span
    back, span = rep.coords_of(logs, 1e-9)
    assert_like_the_edge((back,), span, lambda i: one(rep.coords_of, logs[i], 1e-9))
    M, xi, product = chart_products(mats, mats, rep)
    assert_like_the_edge((M, xi), product,
                         lambda i: one(chart_products, mats[i], mats[i], rep))
    return element, span, product


def check_model_kernels(model, coords, v):
    """The shadows of the points over ``v`` against ``model.point``, and
    their transport by the elements of ``coords`` against local_action;
    the two stacks of failures."""
    shadow, radius = model.shadows(v)
    assert_like_the_edge((shadow,), radius, lambda i: (model.point(v[i]).u,),
                         model.radius)
    mats = model.rep.element(coords)[0]
    rhos, ball = model.transport.element(coords)
    *moved, out = _act(model, rhos, v)
    out = first_failure(ball, out)

    def edge(i):
        q = local_action(model, GroupElement(coords[i], mats[i]),
                         RackPoint(v[i], shadow[i]))
        return q.v, q.u
    assert_like_the_edge(moved, out, edge)
    return radius, out


# how a slice of a generated stack is pushed out: not at all, off the chart
# ball, off the span, its product off the chart, off the model radius, out
# of the log domain, or to the model radius, where an action may leave it
PUSHES = ".bsprlm"


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(target=st.sampled_from(["sl2-adjoint", "scaling:2.0", "heisenberg-ideal"]),
       seed=st.integers(0, 2 ** 16), m=st.integers(2, 6),
       pushes=st.lists(st.sampled_from(PUSHES), min_size=1, max_size=9))
def test_stacked_kernels_fail_and_agree_like_the_edge(target, seed, m, pushes):
    model, rng, kind = builtin_model(target), np.random.default_rng(seed), \
        np.array(pushes)
    k, n, d = len(pushes), model.triple.dim_g, model.triple.dim_v
    coords = rng.standard_normal((k, n)) * 0.1
    ball, twice = kind == "b", kind == "p"
    # past the chart radius 0.5 by more than rounding: a norm of c * (0.5 / |c|)
    # can round below 0.5, and so can one of c * (nextafter(0.5, 1) / |c|)
    past = 0.5 * (1.0 + 1e-12)
    coords[ball] *= np.maximum(10.0, past / norms(coords[ball]))[:, None]
    coords[twice] *= 0.4 / norms(coords[twice])[:, None]
    v = rng.standard_normal((k, d))
    frac = np.select([kind == "r", kind == "m"], [2.0, 0.999], 0.5)
    v *= (frac * model.radius / norms(model.shadows(v)[0]))[:, None]
    A = random_stack(m, k, seed=seed)
    A[kind == "l"] = np.diag([-1.0, -1.0] + [1.0] * (m - 2))
    log = check_log(A)
    element, span, product = check_rep_kernels(model, coords,
                                               np.flatnonzero(kind == "s"))
    radius, _ = check_model_kernels(model, coords, v)
    # every push but the last leaves its domain for sure
    for why, push, reason in ((log, "l", SINGULAR), (element, "b", CHART_BALL),
                              (span, "s", SPAN), (product, "p", PRODUCT_CHART),
                              (radius, "r", MODEL_RADIUS)):
        assert np.all(why["reason"][kind == push] == reason)


@pytest.mark.parametrize("m", [2, 3, 6, 9, 20])
def test_stacked_log_and_exp_equal_single_calls_bit_for_bit(m):
    # an explicit example of the property above: slices that need square
    # roots, and no slice outside the domain
    assert not check_log(random_stack(m, scale=2.0))["reason"].any()
    X = np.random.default_rng(1).standard_normal((7, m, m)) * 0.3
    E = expm(X)
    for i in range(len(X)):
        assert np.array_equal(E[i], expm(X[i]))


def test_stacked_log_flags_only_the_slice_outside_the_domain():
    A = random_stack(3, k=5)
    A[2] = np.diag([-1.0, -1.0, 1.0])
    assert check_log(A)["reason"].tolist() == [0, 0, SINGULAR, 0, 0]


def test_empty_stacks_give_empty_results():
    logs, failed = log_matrix(np.zeros((0, 3, 3)))
    assert logs.shape == (0, 3, 3) and failed.shape == (0,)
    rep = builtin_model("sl2-adjoint").rep
    mats, outside = rep.element(np.zeros((0, 3)))
    assert mats.shape == (0, 3, 3) and outside.shape == (0,)


@pytest.mark.parametrize("M,message", [
    (np.diag([-1.0, -1.0, 1.0]), "singular iterate"),
    (-np.eye(2), "singular iterate"),
])
def test_single_log_keeps_its_chart_error_messages(M, message):
    # an explicit example of the property above, in a stack and alone
    A = random_stack(len(M), k=3)
    A[1] = M
    assert check_log(A)["reason"].tolist() == [0, SINGULAR, 0]
    with pytest.raises(ChartError, match=message):
        one(log_matrix, M)


def test_log_rejects_bad_shapes_and_entries_for_stacks_too():
    with pytest.raises(StructuralError):
        log_matrix(np.zeros((2, 2, 3)))
    with pytest.raises(StructuralError):
        log_matrix(np.full((2, 2, 2), np.nan))


def test_stacked_coords_of_and_element_equal_single_calls():
    # an explicit example of the property above
    model = builtin_model("heisenberg-ideal")
    coords = np.random.default_rng(4).standard_normal((6, 3)) * 0.1
    coords[3] *= 10.0                         # outside the chart ball
    element, span, _ = check_rep_kernels(model, coords, off_span=[1])
    assert element["reason"].tolist() == [0, 0, 0, CHART_BALL, 0, 0]
    assert span["reason"].tolist() == [0, SPAN, 0, 0, 0, 0]
    with pytest.raises(ChartError, match="representation span"):
        raise_failure(span[1])
