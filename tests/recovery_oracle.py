"""The scalar recovery, kept as a test oracle for the stacked one.

This is the integrate recovery code as it ran before its stencils were
batched: one stencil per basis direction, one ``GroupElement`` and
``RackPoint`` per stencil point, the group product and inverse of single
elements, and a stencil that raises ``DomainError`` rerun once at a tenth
of the step.  Single elements, points and actions go through the package's
single-input edge, and the kernels it has no edge for (``log_matrix``,
``coords_of``, ``chart_products``) run on stacks of one and raise the
failure of that slice.  The group lives in the model's faithful
representation; the module's transport rho_g of a single element is
``GroupElement.exp`` in the model's transport.  The action and bracket are
first derivatives of rho of exp(t e_i) and of Phi(t e_a), one direction at
a time;
``mixed_action_bracket`` keeps their older mixed second derivatives of the
local action and the rack product, one basis pair at a time, as an
independent cross-check.
The recovery functions take the same arguments as ``leibrack.integrate``'s
single forms and return the same arrays; ``tests/test_stacked_recovery.py``
compares them.  ``suite_oracle.py`` takes its group operations from here.
"""

from __future__ import annotations

import numpy as np

from leibrack.errors import DomainError
from leibrack.integrate import LocalRackModel, RackPoint, embed_point, \
    local_action, rack_product
from leibrack.localgroup import DiffConfig, GroupElement, MatrixRep, \
    chart_products, log_matrix, raise_failure


def one(kernel, *args):
    """A stacked kernel on one slice: the first slice of each of its
    outputs, or the failure of that slice raised.  Every array argument is
    a single input, given to the kernel as a stack of one."""
    *out, why = kernel(*(a[None] if isinstance(a, np.ndarray) else a
                         for a in args))
    raise_failure(why[0])
    return [o[0] for o in out]


# ---------------------------------------------------------------------------
# group operations
# ---------------------------------------------------------------------------

def group_mul(g1: GroupElement, g2: GroupElement, rep: MatrixRep) -> GroupElement:
    """Product in the chart: multiply matrices, log, recover coordinates;
    :func:`chart_products` on one pair."""
    M, coords = one(chart_products, g1.matrix, g2.matrix, rep)
    return GroupElement(coords, M)


def group_inverse(g: GroupElement, rep: MatrixRep) -> GroupElement:
    """Inversion is coordinate negation in the exponential chart."""
    return GroupElement.exp(rep, -g.coords)


def _conjugate(model: LocalRackModel, g: GroupElement,
               p: RackPoint) -> GroupElement:
    """g Phi(p) g^-1, through matrix products and logarithms."""
    return group_mul(group_mul(g, embed_point(model, p), model.rep),
                     group_inverse(g, model.rep), model.rep)


# ---------------------------------------------------------------------------
# scalar stencils
# ---------------------------------------------------------------------------

def derivative_at_identity(curve, cfg: DiffConfig = DiffConfig()) -> np.ndarray:
    """d/dt curve(t) at t = 0.

    central:    (f(h) - f(-h)) / 2h, truncation O(h^2)
    richardson: (-f(2h) + 8 f(h) - 8 f(-h) + f(-2h)) / 12h, truncation O(h^4)
    """
    h = cfg.step
    f = lambda t: np.asarray(curve(t), dtype=float)
    if cfg.scheme == "richardson":
        return (-f(2 * h) + 8.0 * f(h) - 8.0 * f(-h) + f(-2 * h)) / (12.0 * h)
    return (f(h) - f(-h)) / (2.0 * h)


def mixed_second_derivative(surface, cfg: DiffConfig = DiffConfig()) -> np.ndarray:
    """d^2/dt1 dt2 surface(t1, t2) at the origin.

    The central stencil uses four evaluations with O(h^2) truncation; the
    Richardson variant combines two stencil widths (eight evaluations) for
    O(h^4).  Rounding error grows like eps / h^2, so very small steps hurt.
    """
    f = lambda a, b: np.asarray(surface(a, b), dtype=float)

    def cross(h):
        return (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4.0 * h * h)

    if cfg.scheme == "richardson":
        return (4.0 * cross(cfg.step) - cross(2.0 * cfg.step)) / 3.0
    return cross(cfg.step)


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------

def _shrink_once(run, cfg: DiffConfig, *args):
    """Run the stencil ``run(*args, cfg)``; if it exits the domain, shrink the
    step by 10 and retry once."""
    try:
        return run(*args, cfg)
    except DomainError:
        return run(*args, DiffConfig(cfg.step / 10.0, cfg.scheme))


def _transport(model: LocalRackModel, g: GroupElement) -> np.ndarray:
    """rho_g: the transport of V by a group element, from its coordinates."""
    return GroupElement.exp(model.transport, g.coords).matrix


def recover_tangent_triple(model: LocalRackModel):
    """Differentiate the model back to (theta, action, bracket) tensors.

    Returns the triple of arrays in the same layout the triple stores them:
    the embedding matrix (n, d), the action stack (n, d, d) and the derived
    bracket tensor (d, d, d).  Each is a first derivative along one basis
    direction at a time: of the chart coordinates of Phi(t e_j), of the
    transport rho of exp(t e_i) (the action matrix of e_i), and of rho of
    Phi(t e_a) (the transpose of the bracket slice of e_a).
    """
    n, d = model.triple.dim_g, model.triple.dim_v
    eye_g, eye_v = np.eye(n), np.eye(d)

    theta_rec = np.empty((n, d))
    for j in range(d):
        def curve(t, ej=eye_v[j]):
            g = embed_point(model, model.point(t * ej))
            return one(model.rep.coords_of, *one(log_matrix, g.matrix), 1e-8)[0]
        theta_rec[:, j] = _shrink_once(derivative_at_identity, model.cfg, curve)

    action_rec = np.empty((n, d, d))
    for i in range(n):
        def curve(t, ai=eye_g[i]):
            return _transport(model, GroupElement.exp(model.rep, t * ai))
        action_rec[i] = _shrink_once(derivative_at_identity, model.cfg, curve)

    bracket_rec = np.empty((d, d, d))
    for a in range(d):
        def curve(t, ea=eye_v[a]):
            return _transport(model, embed_point(model, model.point(t * ea)))
        bracket_rec[a] = _shrink_once(derivative_at_identity, model.cfg, curve).T
    return theta_rec, action_rec, bracket_rec


def mixed_action_bracket(model: LocalRackModel):
    """The action and bracket tensors as mixed second derivatives of the
    local action and the rack product, one basis pair at a time: the
    recovery as it ran before it used that the action is linear in the
    point, kept as an independent cross-check of the first derivatives."""
    n, d = model.triple.dim_g, model.triple.dim_v
    eye_g, eye_v = np.eye(n), np.eye(d)

    action_rec = np.empty((n, d, d))
    for i in range(n):
        for j in range(d):
            def surface(t1, t2, ai=eye_g[i], ej=eye_v[j]):
                g = GroupElement.exp(model.rep, t2 * ai)
                return local_action(model, g, model.point(t1 * ej)).v
            action_rec[i, :, j] = _shrink_once(mixed_second_derivative,
                                               model.cfg, surface)

    bracket_rec = np.empty((d, d, d))
    for a in range(d):
        for b in range(d):
            def surface(t1, t2, ea=eye_v[a], eb=eye_v[b]):
                return rack_product(model, model.point(t1 * ea),
                                    model.point(t2 * eb)).v
            bracket_rec[a, b, :] = _shrink_once(mixed_second_derivative,
                                                model.cfg, surface)
    return action_rec, bracket_rec


def recover_equivariance_defect(model: LocalRackModel, a, v) -> np.ndarray:
    """The defect map recovered from the group-valued defect of the model.

    Differentiates (g Phi(p) g^-1) Phi(q(g, p))^-1 in the group direction a
    and the point direction v; the mixed derivative equals
    [a, theta(v)] - theta(a . v).
    """
    a = np.asarray(a, dtype=float)
    v = np.asarray(v, dtype=float)

    def surface(t1, t2):
        g = GroupElement.exp(model.rep, t1 * a)
        p = model.point(t2 * v)
        conj = _conjugate(model, g, p)
        moved = embed_point(model, local_action(model, g, p))
        return group_mul(conj, group_inverse(moved, model.rep), model.rep).coords

    return _shrink_once(mixed_second_derivative, model.cfg, surface)
