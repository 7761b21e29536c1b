"""The law suites' samples, drawn up front, and the batch size.

Each suite draws all its samples before it batches them, so its report,
its listed violations and its skips by reason must not change with the
number of samples per kernel call.  The stacked draws must keep the
per-sample rules: a direction has norm in [0.2 scale, scale] or is zero,
a point's shadow has norm at most frac * radius, and a point with a zero
shadow has norm at most 1.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from leibrack import algebra, integrate
from leibrack.integrate import _directions, _points
from leibrack.localgroup import norms
from test_batched_suites import SUITES, broken_model, builtin_model, \
    scaled_sl2_model, zero_subalgebra_model

SAMPLES = 40
MODELS = {"broken-module-block": broken_model(),
          "sl2x30": scaled_sl2_model(30.0)}
ROUNDING = 1e-12


def run(model, seed):
    """Each suite's report as a dict, with its skips by reason."""
    runs = []
    for k, (suite, _) in enumerate(SUITES):
        skips = {}
        runs.append((suite(model, SAMPLES, seed + k, skips=skips).to_dict(), skips))
    return runs


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(MODELS)), per_call=st.integers(1, 3 * SAMPLES + 5),
       seed=st.integers(0, 2 ** 16))
def test_the_batch_size_does_not_change_a_suite(name, per_call, seed):
    model = MODELS[name]
    want = run(model, seed)
    with mock.patch.object(algebra, "_BLOCK", per_call * model.triple.dim_v ** 2):
        assert integrate._per_call(model) == per_call
        assert run(model, seed) == want


BASES = {"full": np.eye(3), "plane": np.eye(3)[:2],
         "dense": np.random.default_rng(5).standard_normal((2, 3)),
         "zero": np.zeros((2, 3)), "none": np.zeros((0, 3))}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(basis=st.sampled_from(sorted(BASES)), k=st.integers(0, 60),
       scale=st.sampled_from([0.05, 1.0, 7.5]), seed=st.integers(0, 2 ** 16))
def test_directions_have_norm_in_range_or_are_zero(basis, k, scale, seed):
    w = _directions(np.random.default_rng(seed), k, BASES[basis], scale)
    size = norms(w)
    assert w.shape == (k, 3)
    if basis in ("zero", "none"):
        assert np.all(w == 0.0)
    else:
        assert np.all(size >= 0.2 * scale * (1 - ROUNDING))
        assert np.all(size <= scale * (1 + ROUNDING))


TARGETS = {"sl2-adjoint": builtin_model("sl2-adjoint"),
           "scaling:2.0": builtin_model("scaling:2.0"),
           "heisenberg-ideal": builtin_model("heisenberg-ideal"),
           "zero-theta": zero_subalgebra_model()}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(TARGETS)), k=st.integers(0, 60),
       frac=st.sampled_from([0.2, 0.25, 1.0]), seed=st.integers(0, 2 ** 16))
def test_points_keep_their_shadow_inside_the_radius(name, k, frac, seed):
    model = TARGETS[name]
    v = _points(model, np.random.default_rng(seed), k, frac)
    shadow = norms(model.shadows(v)[0])
    assert v.shape == (k, model.triple.dim_v)
    assert np.all(shadow <= frac * model.radius * (1 + ROUNDING))
    assert np.all(norms(v)[shadow == 0.0] <= 1.0)
    if name == "zero-theta":
        assert np.all(shadow == 0.0)
