"""The per-sample law suites, kept as a test oracle for the batched ones.

This is the integrate law-suite code as it ran before the suites were
batched: one Python trial per sample on ``GroupElement`` and ``RackPoint``
objects, with the scalar kernels and the group operations of
``recovery_oracle.py`` (the group in the model's faithful representation,
acting through the transport of its coordinates), and a sample skipped
when its trial raises
``DomainError`` (``ChartError`` and ``MembershipError`` included), counted
under the reason whose exception and message it raised.  The samples are
the batched suites' own: each suite draws them up front with the stacked
helpers of ``leibrack.integrate``, in the same order, and runs one trial
per row.  The suite functions take the same arguments as
``leibrack.integrate``'s and return the same reports;
``tests/test_batched_suites.py`` compares them.
"""

from __future__ import annotations

import numpy as np

from leibrack.errors import DomainError
from leibrack.integrate import LocalRackModel, RackPoint, _UNDO_TOL, \
    _directions, _points, embed_point, local_action, rack_product
from leibrack.localgroup import FAILURES, GroupElement
from leibrack.report import Collector, ValidityReport
from recovery_oracle import _conjugate, group_inverse, group_mul


def _gap(p: RackPoint, q: RackPoint) -> float:
    """Largest entrywise difference of two points, over both components."""
    return max(float(np.max(np.abs(p.v - q.v))),
               float(np.max(np.abs(p.u - q.u))))


# ---------------------------------------------------------------------------
# law suites
# ---------------------------------------------------------------------------

def _reason(exc: DomainError) -> str:
    """The name of the reason whose exception class and message ``exc``
    has: the message matches up to the first number it quotes."""
    return next(name for name, error, message in FAILURES[1:]
                if type(exc) is error and
                str(exc).startswith(message.split("{")[0]))


def _measure(col: Collector, law: str, k: int, residual: float, tol=None):
    """Sample k's residual of ``law``: folded into the maximum, and listed at
    (k,) when it is above ``tol`` (the collector's tolerance by default)."""
    res = np.array([residual], dtype=float)
    col.tables((law, res > (col.tol if tol is None else tol), res), start=k)


def _run_suite(samples: int, seed: int, tol: float, draw, trial, skips,
               **info) -> ValidityReport:
    """Draw the samples as ``draw(rng, samples)`` on one seeded RNG and run
    ``trial(col, k, *row)`` on each row k of the drawn arrays.

    A sample whose trial leaves the model domain, the chart or the model
    neighbourhood is skipped, and ``skips``, unless None, counts it under
    its reason; a suite that used no sample fails under the law
    ``samples-used``.  ``info`` gains the used and skipped counts.
    """
    drawn = draw(np.random.default_rng(seed), max(samples, 0))
    col = Collector(tol)
    used = skipped = 0
    for k, row in enumerate(zip(*drawn)):
        try:
            trial(col, k, *row)
        except DomainError as exc:
            skipped += 1
            if skips is not None:
                skips[_reason(exc)] = skips.get(_reason(exc), 0) + 1
        else:
            used += 1
    if used == 0:
        col.add("samples-used")
    return col.report(dict(info, samples_used=used, samples_skipped=skipped))


def check_local_group_set_laws(model: LocalRackModel, samples: int = 200,
                               seed: int = 0, tol: float = 1e-9,
                               skips: dict | None = None) -> ValidityReport:
    """Composability of the action: q(g1 g2, p) = q(g1, q(g2, p)) on samples,
    and exactness of the unit law q(e, p) = p."""
    full = np.eye(model.triple.dim_g)
    ident = GroupElement(np.zeros(model.triple.dim_g),
                         np.eye(model.rep.matrix_dim))

    def draw(rng, k):
        return (_directions(rng, k, full, 0.05), _directions(rng, k, full, 0.05),
                _points(model, rng, k, 0.25))

    def trial(col, k, xi1, xi2, v):
        g1, g2 = GroupElement.exp(model.rep, xi1), GroupElement.exp(model.rep, xi2)
        p = model.point(v)
        onestep = local_action(model, group_mul(g1, g2, model.rep), p)
        twostep = local_action(model, g1, local_action(model, g2, p))
        _measure(col, "group-set-composition", k, _gap(onestep, twostep))
        fixed = local_action(model, ident, p)
        if not (np.array_equal(fixed.v, p.v) and np.array_equal(fixed.u, p.u)):
            col.add("unit-acts-trivially", (k,), _gap(fixed, p))

    return _run_suite(samples, seed, tol, draw, trial, skips)


def check_local_rack_laws(model: LocalRackModel, samples: int = 200,
                          seed: int = 0, tol: float = 1e-8,
                          skips: dict | None = None) -> ValidityReport:
    """Self-distributivity, invertible left translation, and pointed laws.

    Self-distributivity x > (y > z) = (x > y) > (x > z) is compared on
    samples whose intermediate products all stay in the domain; the left
    translation is checked by undoing x > y with the inverse group element;
    the basepoint laws hold exactly in floating point and are asserted so.
    """
    base = model.basepoint()

    def draw(rng, k):
        return [_points(model, rng, k, 0.2) for _ in range(3)]

    def trial(col, k, *vs):
        x, y, z = map(model.point, vs)
        xy = rack_product(model, x, y)
        yz = rack_product(model, y, z)
        xz = rack_product(model, x, z)
        lhs, rhs = rack_product(model, x, yz), rack_product(model, xy, xz)
        _measure(col, "self-distributivity", k, _gap(lhs, rhs))

        undone = local_action(
            model, group_inverse(embed_point(model, x), model.rep), xy)
        _measure(col, "left-translation-undo", k,
                 np.max(np.abs(undone.v - y.v)), _UNDO_TOL)

        trivial = rack_product(model, base, y)
        if not np.array_equal(trivial.v, y.v):
            col.add("basepoint-acts-trivially", (k,),
                    np.max(np.abs(trivial.v - y.v)))
        fixed = rack_product(model, x, base)
        if not (np.all(fixed.v == 0.0) and np.all(fixed.u == 0.0)):
            col.add("basepoint-fixed", (k,), np.max(np.abs(fixed.v)))

    return _run_suite(samples, seed, tol, draw, trial, skips,
                      undo_tolerance=_UNDO_TOL)


def check_equivariance(model: LocalRackModel, samples: int = 200,
                       seed: int = 0, tol: float = 1e-8,
                       skips: dict | None = None) -> ValidityReport:
    """Phi intertwines the local action with conjugation.

    Directions are sampled from the equivariant subalgebra; when that is all
    of the algebra (a strict triple) this amounts to chart-wide sampling of
    the law Phi(q(h, p)) = h Phi(p) h^-1.  The conjugated side is computed
    through matrix products and logarithms, independent of the embedded
    side's stored coordinates.  A zero subalgebra leaves nothing to sample.
    """
    h_dim = model.h_basis.dim

    def draw(rng, k):
        return (_directions(rng, k, model.h_basis.vectors, 0.05),
                _points(model, rng, k, 0.25))

    def trial(col, k, xi, v):
        h, p = GroupElement.exp(model.rep, xi), model.point(v)
        moved = embed_point(model, local_action(model, h, p)).coords
        _measure(col, "embedding-equivariance", k,
                 np.max(np.abs(moved - _conjugate(model, h, p).coords)))

    return _run_suite(samples if h_dim else 0, seed, tol, draw, trial, skips,
                      strict=h_dim == model.triple.dim_g, h_dim=int(h_dim))

