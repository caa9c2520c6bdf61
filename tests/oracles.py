"""Reference implementations that tests compare the package against.

`eval_checked` is the interpreter `expr.eval_many` replaced: it tests every
node's domain as it goes, in the order of its own copy of the DAG walk,
`topo`.  `add`, `sub`, `mul`, `div` and `neg` are the constructors whose
folds the package's must reproduce node for node.  `evaluate` reads one
expression at one point through `eval_many`.  `finite_difference` is the numeric oracle for
`expr.differentiate`.  `riemann_sectional` reads sectional curvatures off
`geometry.riemann_up`, for the model spaces' known constants.
"""

import math

import numpy as np

from solitonlab import geometry as geo
from solitonlab.expr import (_NP_FUNC, ZERO, DomainError, Expression, UnboundParameterError,
                             _node, _points, const, eval_many)


def _is_const(e, v=None):
    return e.kind == "const" and (v is None or e.payload == v)


def add(a: Expression, b: Expression) -> Expression:
    if _is_const(a) and _is_const(b):
        v = a.payload + b.payload
        if math.isfinite(v):
            return const(v)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return _node("add", None, (a, b))


def sub(a: Expression, b: Expression) -> Expression:
    if a is b:
        return ZERO
    if _is_const(a) and _is_const(b):
        v = a.payload - b.payload
        if math.isfinite(v):
            return const(v)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return _node("sub", None, (a, b))


def neg(a: Expression) -> Expression:
    if _is_const(a):
        return const(-a.payload)
    if a.kind == "neg":
        return a.args[0]
    return _node("neg", None, (a,))


def mul(a: Expression, b: Expression) -> Expression:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a) and _is_const(b):
        v = a.payload * b.payload
        if math.isfinite(v):
            return const(v)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return _node("mul", None, (a, b))


def div(a: Expression, b: Expression) -> Expression:
    if _is_const(a, 0.0):
        return ZERO
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b) and b.payload != 0.0:
        v = a.payload / b.payload
        if math.isfinite(v):
            return const(v)
    return _node("div", None, (a, b))


def topo(roots):
    """Deduplicated post-order over the DAG spanned by `roots`, and its shared nodes."""
    order, seen, shared = [], set(), set()
    stack = [(r, False) for r in reversed(roots)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if node in seen:
            shared.add(node)
            continue
        seen.add(node)
        stack.append((node, True))
        for c in reversed(node.args):
            if c in seen:
                shared.add(c)
            else:
                stack.append((c, False))
    return order, shared


def _first_true(mask):
    a = np.asarray(mask)
    if a.ndim == 0:
        return 0
    return int(np.argmax(a))


def eval_checked(exprs, points, binding=None, mode="strict"):
    """Reference interpreter for eval_many: checks every node's domain."""
    pts = _points(points, mode)
    n_pts, dim = pts.shape
    binding = binding or {}
    roots = list(exprs)

    bad_total = np.zeros(n_pts, dtype=bool)
    vals: dict = {}
    with np.errstate(all="ignore"):
        for node in topo(roots)[0]:
            k = node.kind
            hazard = None
            if k == "const":
                v = np.float64(node.payload)
            elif k == "coord":
                if node.payload >= dim:
                    raise ValueError(
                        f"expression uses coordinate index {node.payload} "
                        f"but points have dimension {dim}"
                    )
                v = pts[:, node.payload]
            elif k == "param":
                try:
                    v = np.float64(binding[node.payload])
                except KeyError:
                    raise UnboundParameterError(
                        f"parameter {node.payload!r} has no bound value"
                    ) from None
            elif k == "add":
                v = vals[id(node.args[0])] + vals[id(node.args[1])]
            elif k == "sub":
                v = vals[id(node.args[0])] - vals[id(node.args[1])]
            elif k == "neg":
                v = -vals[id(node.args[0])]
            elif k == "mul":
                v = vals[id(node.args[0])] * vals[id(node.args[1])]
            elif k == "div":
                b = vals[id(node.args[1])]
                hazard = (np.asarray(b) == 0.0, "division by zero")
                v = vals[id(node.args[0])] / b
            elif k == "pow":
                b = vals[id(node.args[0])]
                if node.payload < 0:
                    hazard = (np.asarray(b) == 0.0, "zero raised to a negative power")
                v = np.asarray(b) ** node.payload
            elif k == "ln":
                c = vals[id(node.args[0])]
                hazard = (np.asarray(c) <= 0.0, "logarithm of a non-positive value")
                v = np.log(c)
            elif k == "sqrt":
                c = vals[id(node.args[0])]
                hazard = (np.asarray(c) < 0.0, "square root of a negative value")
                v = np.sqrt(c)
            else:
                v = _NP_FUNC[k](vals[id(node.args[0])])

            bad = ~np.isfinite(np.asarray(v))
            reason = f"non-finite result in {k}"
            if hazard is not None and np.any(hazard[0]):
                bad = bad | hazard[0]
                reason = hazard[1]
            if np.any(bad):
                if mode == "strict":
                    raise DomainError(reason, _first_true(bad))
                bad_total |= np.broadcast_to(np.asarray(bad), (n_pts,))
                v = np.where(np.asarray(bad), np.nan, v) if np.asarray(v).ndim else np.nan
            vals[id(node)] = v

    out = np.empty((len(roots), n_pts), dtype=float)
    for i, r in enumerate(roots):
        out[i, :] = vals[id(r)]
    if mode == "masked":
        ok = ~bad_total
        out[:, bad_total] = np.nan
        return out, ok
    return out


def evaluate(e: Expression, point, binding=None) -> float:
    """Evaluate a single expression at one point (strict semantics)."""
    pt = np.asarray(point, dtype=float).reshape(1, -1)
    return float(eval_many([e], pt, binding)[0, 0])


def finite_difference(e: Expression, coord_index: int, point, binding=None, step=1e-4):
    """Richardson-extrapolated central difference; oracle for differentiate."""
    pt = np.asarray(point, dtype=float)

    def central(h):
        lo, hi = pt.copy(), pt.copy()
        hi[coord_index] += h
        lo[coord_index] -= h
        return (evaluate(e, hi, binding) - evaluate(e, lo, binding)) / (2.0 * h)

    d1 = central(step)
    d2 = central(step / 2.0)
    return (4.0 * d2 - d1) / 3.0


class DegeneratePlaneError(geo.GeometryError):
    """Sectional curvature requested for a degenerate 2-plane."""


def riemann_sectional(g, p, u, v) -> float:
    """Sectional curvature of span(u, v) at the point p."""
    n = g.chart.dim
    pt = geo.points_array([p])
    gv = eval_checked([g.comps[i][j] for i in range(n) for j in range(n)],
                      pt, g.chart.binding)[:, 0].reshape(n, n)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    uu = u @ gv @ u
    vv = v @ gv @ v
    uv = u @ gv @ v
    denom = uu * vv - uv * uv
    if denom <= 1e-12:
        raise DegeneratePlaneError("plane is degenerate at the given point")
    rup = geo.riemann_up(g)
    flat = [rup[l][k][i][j] for l in range(n) for k in range(n) for i in range(n) for j in range(n)]
    rv = eval_checked(flat, pt, g.chart.binding)[:, 0].reshape(n, n, n, n)
    # g(R(u,v)v, u) with R(u,v)w = u^i v^j w^k R[l][k][i][j] ∂_l
    rw = np.einsum("lkij,i,j,k->l", rv, u, v, v)
    num = rw @ gv @ u
    return float(num / denom)
