"""Local rack structure integrating a triple, and recovery of its tangent data.

Given a validated triple with a faithful representation of its algebra, the
local group lives in that representation, and the module integrates to the
local representation rho_g = exp(act(c)) of the element of coordinates c.
Points of the model are pairs (v, theta(v)) with ||theta(v)|| inside a fixed
radius; a chart group element g acts by

    q(g, p) = (rho_g v, theta(rho_g v))

and that action is only declared when the moved point stays inside the
radius.  Embedding a point exponentiates its algebra component, and the rack product is
x > y = q(embed(x), y); ``point``, ``local_action`` and ``rack_product`` are
the single-point edge over the stacked ``shadows`` and ``_act``.

A law suite draws all its samples up front, one RNG call per variable, so
they do not depend on the batch size; the drawn arrays take at most
samples * (max(2n + d, 3d) + 3) floats.  It runs them batched on (k, d)
points, (k, b, b) group matrices and (k, d, d) transports rho_g: each step
of a trial is one stacked call, and a sample is skipped (and counted by
reason in ``skips``) at the first failure of its steps, keeping its earlier
residuals.

Recovery runs the construction backwards with finite differences: the
derivative of embedded curves returns the embedding tensor.  The action is
a matvec by rho_g, linear in the point, so first derivatives of rho return
the rest: along exp(s a) it gives the action matrix of a, along Phi(t v) the
matrix of y -> [v, y] of the derived bracket.  Only the defect takes a
mixed derivative: that of the group-valued defect

    (g Phi(p) g^-1) Phi(q(g, p))^-1

returns the infinitesimal defect map of the triple.  All group coordinates
used in derivatives are re-extracted from matrices through the logarithm, so
the round trip genuinely exercises exp and log rather than echoing inputs.
Each tensor is one call of a pure stencil over all its basis directions, on
the same stacked kernels as the suites: like a suite's trial, each kernel
chain returns its values and the first failure of its steps.  The defect
exponentiates exp(+-c), rho_g and Phi(p) once per distinct stencil point.
A direction with a failed stencil point reruns at a tenth of the step, and
raises its first failure if it fails again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import SubspaceBasis, frozen_array, rows_per_block, same_algebra, \
    set_frozen
from .errors import StructuralError
from .localgroup import CHART_RADIUS, FAILURES, MODEL_RADIUS, MOVED, DiffConfig, \
    GroupElement, MatrixRep, adjoint_rep, chart_products, check_rep, \
    derivative_at_identity, failures, first_failure, log_matrix, \
    mixed_second_derivative, norms, raise_failure
from .report import Collector, ValidityReport
from .triples import LieLeibnizTriple, RelaxedAugmentation, \
    check_relaxed_augmentation, equivariance_defect, max_strictness_subalgebra

DEFAULT_RADIUS = min(0.3, 0.6 * CHART_RADIUS)
_UNDO_TOL = 1e-9
_DEFECT_TOL = 1e-4


@dataclass(frozen=True, eq=False)
class RackPoint:
    """A model point: module vector v with its algebra shadow u = theta(v)."""

    v: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        set_frozen(self, v=frozen_array(self.v, (None,), "point vector v"),
                   u=frozen_array(self.u, (None,), "point shadow u"))


@dataclass(frozen=True, eq=False)
class LocalRackModel:
    """A triple, the faithful representation of its local group, and chart
    bookkeeping; the module's transport rho is derived from the triple."""

    triple: LieLeibnizTriple
    rep: MatrixRep                  # faithful: products, logs, coordinates
    h_basis: SubspaceBasis
    radius: float
    cfg: DiffConfig

    def __post_init__(self):
        radius = float(frozen_array(self.radius, (), "radius"))
        if not 0 < radius <= CHART_RADIUS:
            raise StructuralError("radius must lie in (0, chart radius]")
        same_algebra(self.rep.algebra, self.triple.algebra, "representation")
        RelaxedAugmentation(self.triple, self.h_basis)      # h_basis lies in g
        set_frozen(self, radius=radius)

    @cached_property
    def transport(self) -> MatrixRep:
        """The action matrices as a representation: rho_g =
        transport.element(coords of g) = exp(act(c))."""
        return MatrixRep(self.triple.algebra, self.triple.action.action_matrices)

    def shadows(self, v, reason: int = MODEL_RADIUS):
        """theta(v) of each vector of a stack (k, d), and the failures:
        ``reason`` with the shadow's norm where it is outside the radius."""
        shadow = np.matvec(self.triple.theta.matrix, v)
        size = norms(shadow)
        return shadow, failures(reason, size >= self.radius, size)

    def point(self, v) -> RackPoint:
        """The model point over one vector; MembershipError outside the radius."""
        v = frozen_array([v], (1, self.triple.dim_v), "point vector v")
        shadow, why = self.shadows(v)
        raise_failure(why[0], self.radius)
        return RackPoint(v[0], shadow[0])

    def basepoint(self) -> RackPoint:
        return self.point(np.zeros(self.triple.dim_v))


def build_model(triple: LieLeibnizTriple, rep: MatrixRep | None = None,
                h_basis: SubspaceBasis | None = None,
                radius: float = DEFAULT_RADIUS,
                cfg: DiffConfig = DiffConfig()) -> LocalRackModel:
    """Assemble a local model, validating every ingredient.

    Without an explicit representation the adjoint one is used when faithful
    (CapabilityError otherwise).  Without an explicit subalgebra the maximal
    equivariant one is computed.
    """
    if rep is None:
        rep = adjoint_rep(triple.algebra)
    else:
        check_rep(rep).require("matrix-representation")
    if h_basis is None:
        h_basis = max_strictness_subalgebra(triple)
    else:
        check_relaxed_augmentation(RelaxedAugmentation(
            triple, h_basis)).require("relaxed-augmentation")
    return LocalRackModel(triple, rep, h_basis, radius, cfg)


def _act(model: LocalRackModel, R, v):
    """rho_g v for stacks (k, d, d) of transports rho_g (or one) and (k, d)
    of vectors: the moved vectors, their shadows and MOVED failures."""
    moved = np.matvec(R, v)
    return (moved, *model.shadows(moved, MOVED))


def local_action(model: LocalRackModel, g: GroupElement,
                 p: RackPoint) -> RackPoint:
    """q(g, p) = (rho_g v, theta(rho_g v)), rho_g the transport of g's
    coordinates; DomainError outside the domain."""
    R, ball = model.transport.element(g.coords[None])
    moved, shadow, why = _act(model, R, p.v[None])
    raise_failure(first_failure(ball, why)[0])
    return RackPoint(moved[0], shadow[0])


def embed_point(model: LocalRackModel, p: RackPoint) -> GroupElement:
    """Phi(p): exponentiate the algebra shadow of the point."""
    return GroupElement.exp(model.rep, p.u)


def rack_product(model: LocalRackModel, x: RackPoint, y: RackPoint) -> RackPoint:
    """x > y = q(Phi(x), y)."""
    return local_action(model, embed_point(model, x), y)


# ---------------------------------------------------------------------------
# law suites
# ---------------------------------------------------------------------------

def _directions(rng, k: int, basis: np.ndarray, scale: float) -> np.ndarray:
    """k random combinations of the given row vectors, each scaled to a norm
    in [0.2 scale, scale]; a zero combination stays zero."""
    w = rng.standard_normal((k, basis.shape[0])) @ basis
    size = norms(w)
    return w * np.divide(scale * rng.uniform(0.2, 1.0, k), size,
                         out=np.zeros(k), where=size > 0.0)[:, None]


def _points(model: LocalRackModel, rng, k: int, frac: float) -> np.ndarray:
    """k module vectors whose shadows have norm at most frac * radius; a
    vector with a zero shadow is divided by max(1, its norm)."""
    v = rng.standard_normal((k, model.triple.dim_v))
    size = norms(model.shadows(v)[0])
    scale = np.divide(frac * model.radius * rng.uniform(0.2, 1.0, k), size,
                      out=1.0 / np.maximum(1.0, norms(v)), where=size > 0.0)
    return v * scale[:, None]


def _gap(p, q) -> np.ndarray:
    """Largest entrywise difference of two stacks of points (v, u), over both
    components, per sample."""
    return np.maximum(np.abs(p[0] - q[0]).max(axis=-1),
                      np.abs(p[1] - q[1]).max(axis=-1))


def _per_call(model: LocalRackModel) -> int:
    """Stacked slices per kernel call: a block of the model's larger matrices."""
    return rows_per_block(max(model.rep.matrix_dim, model.triple.dim_v) ** 2)


def _run_suite(model: LocalRackModel, samples: int, seed: int, tol: float,
               draw, trial, skips, **info) -> ValidityReport:
    """Run ``trial`` on the arrays ``draw(rng, samples)``, drawn up front by
    one call of a seeded RNG per variable, a third of :func:`_per_call`
    samples at a time, since a trial stacks up to three coordinate stacks in
    one kernel call: the samples do not depend on the batch size.

    ``trial`` returns each sample's first failure over its steps and its laws
    as ``(law, residuals, reached, tol)``, ``reached`` the first failure of
    the steps the law needs: a sample is measured against a law it reached,
    so a sample skipped at a later step keeps its earlier residuals, and a
    law with ``tol`` None is exact.  Violations are listed sample by sample;
    a suite that used no sample fails under the law ``samples-used``.  ``info``
    gains the used and skipped counts, a ``skips`` dict the skips by reason.
    """
    rng, batch = np.random.default_rng(seed), max(1, _per_call(model) // 3)
    drawn = draw(rng, max(samples, 0))
    col, counts = Collector(tol), np.zeros(len(FAILURES), dtype=int)
    for start in range(0, samples, batch):
        why, laws = trial(*(x[start:start + batch] for x in drawn))
        laws = [(law, np.where(reached["reason"] == 0, res, 0.0), law_tol)
                for law, res, reached, law_tol in laws]
        col.tables(*[(law, ~(res <= 0.0) if law_tol is None else res > law_tol,
                      res) for law, res, law_tol in laws], start=start)
        counts += np.bincount(why["reason"], minlength=len(FAILURES))
    (skips if skips is not None else {}).update(
        (FAILURES[r][0], int(n)) for r, n in enumerate(counts) if r and n)
    if counts[0] == 0:
        col.add("samples-used")
    return col.report(dict(info, samples_used=int(counts[0]),
                           samples_skipped=int(counts[1:].sum())))


def check_local_group_set_laws(model: LocalRackModel, samples: int = 200,
                               seed: int = 0, tol: float = 1e-9,
                               skips=None) -> ValidityReport:
    """Composability of the action: q(g1 g2, p) = q(g1, q(g2, p)) on samples,
    and exactness of the unit law q(e, p) = p.  g1 g2 is the faithful
    product, taken back to its coordinates xi12, so the composition law
    checks that rho is a local representation: rho(xi12) = rho(xi1) rho(xi2)."""
    full = np.eye(model.triple.dim_g)

    def draw(rng, k):
        return (_directions(rng, k, full, 0.05), _directions(rng, k, full, 0.05),
                _points(model, rng, k, 0.25))

    def trial(xi1, xi2, v):
        p, k = (v, model.shadows(v)[0]), len(v)
        g = model.rep.element(np.concatenate([xi1, xi2]))[0]
        _, xi12, off = chart_products(g[:k], g[k:], model.rep)
        R = model.transport.element(np.concatenate([xi12, xi1, xi2]))[0]
        onestep, inner = _act(model, R[:k], v), _act(model, R[2 * k:], v)
        twostep = _act(model, R[k:2 * k], inner[0])
        why = first_failure(off, onestep[2], inner[2], twostep[2])
        fixed = _act(model, np.eye(model.triple.dim_v), v)
        return why, [("group-set-composition", _gap(onestep, twostep), why, tol),
                     ("unit-acts-trivially", _gap(fixed, p), why, None)]

    return _run_suite(model, samples, seed, tol, draw, trial, skips)


def check_local_rack_laws(model: LocalRackModel, samples: int = 200, seed: int = 0,
                          tol: float = 1e-8, skips=None) -> ValidityReport:
    """Self-distributivity, invertible left translation, and pointed laws.

    Self-distributivity x > (y > z) = (x > y) > (x > z) is compared on
    samples whose intermediate products all stay in the domain; the left
    translation is checked by undoing x > y with the inverse group element;
    the basepoint laws hold exactly in floating point and are asserted so.
    Every shadow inside the model radius lies in the chart ball, so
    embedding a point never leaves the chart.
    """
    def draw(rng, k):
        return [_points(model, rng, k, 0.2) for _ in range(3)]

    def trial(x, y, z):
        k, ux = len(x), model.shadows(x)[0]
        R = model.transport.element(
            np.concatenate([ux, model.shadows(y)[0], -ux]))[0]
        ex = R[:k]
        xy, yz, xz = _act(model, ex, y), _act(model, R[k:2 * k], z), \
            _act(model, ex, z)
        lhs = _act(model, ex, yz[0])
        rhs = _act(model, model.transport.element(xy[1])[0], xz[0])
        distributes = first_failure(xy[2], yz[2], xz[2], lhs[2], rhs[2])
        undone = _act(model, R[2 * k:], xy[0])
        why = first_failure(distributes, undone[2])
        trivial = _act(model, np.eye(model.triple.dim_v), y)[0]
        fixed = _act(model, ex, np.zeros_like(x))[0]
        return why, [
            ("self-distributivity", _gap(lhs, rhs), distributes, tol),
            ("left-translation-undo", np.abs(undone[0] - y).max(axis=1), why,
             _UNDO_TOL),
            ("basepoint-acts-trivially", np.abs(trivial - y).max(axis=1), why,
             None),
            ("basepoint-fixed", np.abs(fixed).max(axis=1), why, None)]

    return _run_suite(model, samples, seed, tol, draw, trial, skips,
                      undo_tolerance=_UNDO_TOL)


def check_equivariance(model: LocalRackModel, samples: int = 200,
                       seed: int = 0, tol: float = 1e-8, skips=None) -> ValidityReport:
    """Phi intertwines the local action with conjugation.

    Directions are sampled from the equivariant subalgebra; when that is all
    of the algebra (a strict triple) this amounts to chart-wide sampling of
    the law Phi(q(h, p)) = h Phi(p) h^-1.  The conjugated side is computed
    through matrix products and logarithms, independent of the embedded
    side's coordinates, which are the moved shadow.  A zero subalgebra
    leaves nothing to sample.
    """
    h_dim = model.h_basis.dim

    def draw(rng, k):
        return (_directions(rng, k, model.h_basis.vectors, 0.05),
                _points(model, rng, k, 0.25))

    def trial(xi, v):
        k = len(xi)
        g = model.rep.element(np.concatenate([xi, -xi, model.shadows(v)[0]]))[0]
        moved = _act(model, model.transport.element(xi)[0], v)
        hp, _, off = chart_products(g[:k], g[2 * k:], model.rep)
        _, conj, off_inv = chart_products(hp, g[k:2 * k], model.rep)
        why = first_failure(moved[2], off, off_inv)
        return why, [("embedding-equivariance",
                      np.abs(moved[1] - conj).max(axis=1), why, tol)]

    return _run_suite(model, samples if h_dim else 0, seed, tol, draw, trial,
                      skips, strict=h_dim == model.triple.dim_g, h_dim=int(h_dim))


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------

def _recover(model: LocalRackModel, stencil, points, *dirs):
    """Differentiate along k directions with one ``stencil`` call: the
    derivatives and the mask of directions that shrank.  ``dirs`` holds one
    (k, .) stack of directions per stencil axis.  An axis' offsets t times
    its directions give its s k stencil points (direction outer, offset
    inner), and ``points(model, *axes)`` returns ``at(sl)``: the values of
    the slice ``sl`` of the points and their FAILURE records, evaluated in
    chunks of :func:`_per_call` points.  A direction with a failed point reruns
    at a tenth of the step; if it fails again, the first failed record
    (first direction first) is raised."""
    per = _per_call(model)

    def run(rows, cfg):                 # derivatives along dirs[rows], records
        whys = []

        def values(*offsets):
            s = len(offsets[0])
            at = points(model, *(np.tile(t, len(rows))[:, None] *
                                 np.repeat(d[rows], s, axis=0)
                                 for t, d in zip(offsets, dirs)))
            out, why = zip(*(at(slice(i, i + per))
                             for i in range(0, s * len(rows), per)))
            whys.append(np.concatenate(why))
            return np.concatenate(out).reshape(len(rows), s, -1).swapaxes(0, 1)
        return stencil(values, cfg), whys[0]

    rows = np.arange(len(dirs[0]))
    value, why = run(rows, model.cfg)
    shrank = (why["reason"] > 0).reshape(len(rows), -1).any(axis=1)
    if shrank.any():
        value[shrank], why = run(rows[shrank],
                                 DiffConfig(model.cfg.step / 10.0, model.cfg.scheme))
        raise_failure(why[np.argmax(why["reason"] > 0)], model.radius)
    return value, shrank


def _theta_points(model, v):                    # log exp theta(v)
    shadow, why = model.shadows(v)
    logs, failed = log_matrix(model.rep.element(shadow)[0])
    coords, off = model.rep.coords_of(logs, 1e-8)
    return coords, first_failure(why, failed, off)


def _transport(model, c):                       # rho of exp(c)
    R, why = model.transport.element(c)
    return R.reshape(len(c), -1), why


def _embedded_transport(model, v):              # rho of Phi(v)
    shadow, why = model.shadows(v)
    R, off = _transport(model, shadow)
    return R, first_failure(why, off)


def _defect_points(model, c, v):
    """(g Phi(p) g^-1) Phi(q(g, p))^-1 for g = exp(c) and the point p over
    v, at each pair of rows of the stacks c and v.

    Only exp(-theta(rho_g v)) depends on the pair.  exp(+-c) with rho_g, and
    Phi(p), are tables over the bitwise-distinct rows of c with -c (the
    offsets are symmetric: the rows of c) and of v, built once in chunks
    of :func:`_per_call` rows and indexed per point with their failures.
    """
    rep, per, k = model.rep, _per_call(model), len(c)

    def table(rows, kernel):            # kernel of the distinct rows, row index
        keys = np.ascontiguousarray(rows).view((np.void, 8 * rows.shape[1]))
        _, first, inverse = np.unique(keys.ravel(), return_index=True,
                                      return_inverse=True)
        out = [np.concatenate(part) for part in zip(*(
            kernel(rows[first[i:i + per]]) for i in range(0, len(first), per)))]
        return out, inverse

    def group(c):                       # exp(c), rho of it, and the failures
        G, why = rep.element(c)
        return G, model.transport.element(c)[0], why

    def embedded(v):                    # Phi(p) and the failures of theta(v)
        shadow, why = model.shadows(v)
        return rep.element(shadow)[0], why

    (exps, rhos, why_c), signed = table(np.concatenate([c, -c]), group)
    (phis, why_v), p = table(v, embedded)

    def at(sl):
        g, q = signed[:k][sl], p[sl]
        gp, _, off = chart_products(exps[g], phis[q], rep)
        conj, _, off_inv = chart_products(gp, exps[signed[k:][sl]], rep)
        _, moved, out = _act(model, rhos[g], v[sl])
        _, value, off_moved = chart_products(conj, rep.element(-moved)[0], rep)
        return value, first_failure(why_c[g], why_v[q], off, off_inv, out,
                                    off_moved)
    return at


def _tangent_triple(model: LocalRackModel):
    """:func:`recover_tangent_triple` and the mask of its d + n + d
    directions that shrank.

    Each tensor is a first derivative, since the action is linear in the
    point: the transport rho of exp(s e_i) differentiates to the action
    matrix of e_i, and that of Phi(t e_a) to the matrix of y -> [e_a, y],
    whose transpose is the slice ``bracket[a]``.
    """
    n, d = model.triple.dim_g, model.triple.dim_v
    (theta, s1), (action, s2), (bracket, s3) = (       # each point on its own
        _recover(model, derivative_at_identity,
                 lambda model, x, f=points: lambda sl: f(model, x[sl]), np.eye(k))
        for points, k in ((_theta_points, d), (_transport, n),
                          (_embedded_transport, d)))
    return (theta.T, action.reshape(n, d, d),
            bracket.reshape(d, d, d).swapaxes(1, 2)), np.concatenate([s1, s2, s3])


def recover_tangent_triple(model: LocalRackModel):
    """Differentiate the model back to (theta, action, bracket) tensors, in
    the layout the triple stores them: the embedding matrix (n, d), the
    action stack (n, d, d) and the derived bracket tensor (d, d, d)."""
    return _tangent_triple(model)[0]


def recover_equivariance_defect(model: LocalRackModel, a, v):
    """The defect map recovered from the group-valued defect of the model.

    Differentiates (g Phi(p) g^-1) Phi(q(g, p))^-1 in the group direction a
    and the point direction v; the mixed derivative equals
    [a, theta(v)] - theta(a . v).  Stacks (k, n) and (k, d) of directions
    give the k derivatives and the mask of pairs whose stencil shrank, one
    pair (a stack of one) its derivative alone.  Directions are read by the
    value rule: StructuralError names a malformed one.
    """
    a, v = frozen_array(a, None, "direction a"), frozen_array(v, None, "direction v")
    if a.ndim == 1:
        return recover_equivariance_defect(model, a[None], v[None])[0][0]
    a = frozen_array(a, (None, model.triple.dim_g), "direction a")
    v = frozen_array(v, (len(a), model.triple.dim_v), "direction v")
    if not len(a):                      # no stencil point to tabulate
        return np.zeros((0, model.triple.dim_g)), np.zeros(0, dtype=bool)
    return _recover(model, mixed_second_derivative, _defect_points, a, v)


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegrationReport:
    """Aggregated law-suite and recovery results for one model."""

    passed: bool
    strict: bool
    h_dim: int
    scheme: str
    step: float
    laws: dict
    roundtrip: dict
    defect: dict
    shrank: tuple                   # directions whose stencil shrank, of all
    skips: dict                     # skipped samples by suite and reason name

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "strict": self.strict,
            "h_dim": self.h_dim,
            "scheme": self.scheme,
            "step": self.step,
            "laws": {k: v.to_dict() for k, v in self.laws.items()},
            "roundtrip": dict(self.roundtrip),
            "defect": dict(self.defect),
        }


def run_integration_suites(model: LocalRackModel, samples: int = 200,
                           seed: int = 0,
                           roundtrip_tol: float = 1e-4) -> IntegrationReport:
    """Run every law suite, the tensor round trip, and the defect comparison."""
    suites = {"group_set": check_local_group_set_laws,
              "rack": check_local_rack_laws, "equivariance": check_equivariance}
    skips = {name: {} for name in suites}
    laws = {name: suite(model, samples, seed + k, skips=skips[name])
            for k, (name, suite) in enumerate(suites.items())}

    tr = model.triple
    exact = {"theta": tr.theta.matrix, "action": tr.action.action_matrices,
             "bracket": tr.derived_bracket.bracket_tensor}
    tangent, shrank = _tangent_triple(model)
    roundtrip = {f"{name}_residual": float(np.max(np.abs(rec - exact[name])))
                 for name, rec in zip(exact, tangent)}
    r_max = float(np.max(list(roundtrip.values())))     # a NaN propagates
    roundtrip.update(max_residual=r_max, tolerance=roundtrip_tol,
                     passed=bool(r_max <= roundtrip_tol))

    algebraic = equivariance_defect(tr, np.eye(tr.dim_g))   # one per basis element
    numeric, defect_shrank = recover_equivariance_defect(     # a outer, v inner
        model, np.repeat(np.eye(tr.dim_g), tr.dim_v, axis=0),
        np.tile(np.eye(tr.dim_v), (tr.dim_g, 1)))
    numeric = numeric.reshape(tr.dim_g, tr.dim_v, tr.dim_g)
    gap = float(np.max(np.abs(numeric - np.swapaxes(algebraic, 1, 2))))
    defect = {
        "max_gap": gap,
        "tolerance": _DEFECT_TOL,
        "passed": bool(gap <= _DEFECT_TOL),
        "pairs": tr.dim_g * tr.dim_v,
    }

    passed = all(r.passed for r in laws.values()) and \
        roundtrip["passed"] and defect["passed"]
    return IntegrationReport(
        passed=passed,
        strict=bool(model.h_basis.dim == tr.dim_g),
        h_dim=int(model.h_basis.dim),
        scheme=model.cfg.scheme,
        step=model.cfg.step,
        laws=laws,
        roundtrip=roundtrip,
        defect=defect,
        shrank=(int(shrank.sum() + defect_shrank.sum()),
                shrank.size + defect_shrank.size),
        skips=skips,
    )
