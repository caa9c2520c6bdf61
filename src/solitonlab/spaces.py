"""Model geometries and warped products.

Euclidean space, round spheres in stereographic coordinates, hyperbolic space
in the upper half-space chart, height functions on the curved models, and
B x_f F warped products.  O'Neill's Ricci formulas are built from the base's
and the fiber's own curvature, as expressions on the product chart, so the
symbolic Ricci tensor of the assembled product metric can be checked
against them.

Sphere chart: g_ij = 4 r^4 / (r^2 + |x|^2)^2 delta_ij, sectional curvature
1/r^2, covering the sphere minus one point.  Hyperbolic chart: g = x_n^{-2}
delta on x_n > 0, curvature -1.  Height functions restrict ambient linear
functions of the standard embeddings: the round sphere in R^{n+1}, and the
hyperboloid sheet p_{n+1} >= 1 inside Minkowski space, reached from the
half-space chart through the usual model map.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np

from . import expr as ex
from .geometry import (
    Chart, Frozen, GeometryError, MetricField, ScalarField, eval_scalar, eval_tensors,
    grad_norm2, hessian, laplacian, ricci, sample_points, sym2,
)


class ModelSpace(Frozen):
    _fields = ("kind", "dim", "radius", "curvature", "chart", "metric")

    def __init__(self, kind: str, dim: int, radius: float, curvature: float,
                 chart: Chart, metric: MetricField):
        vars(self).update(kind=kind, dim=dim, radius=radius, curvature=curvature,
                          chart=chart, metric=metric)


class HeightFunction(Frozen):
    _fields = ("direction", "curvature", "field")

    def __init__(self, direction: tuple, curvature: float, field: ScalarField):
        vars(self).update(direction=direction, curvature=curvature, field=field)


class WarpedProduct(Frozen):
    _fields = ("base_chart", "base_metric", "fiber_metric", "fiber_dim",
               "warping", "chart", "metric")

    def __init__(self, base_chart: Chart, base_metric: MetricField,
                 fiber_metric: MetricField, fiber_dim: int,
                 warping: ScalarField,        # on the base chart
                 chart: Chart,                # assembled product chart
                 metric: MetricField):
        vars(self).update(base_chart=base_chart, base_metric=base_metric,
                          fiber_metric=fiber_metric, fiber_dim=fiber_dim,
                          warping=warping, chart=chart, metric=metric)

    @property
    def dim(self) -> int:
        return self.base_chart.dim + self.fiber_dim


def _coord_names(prefix, n):
    return tuple(f"{prefix}{i + 1}" for i in range(n))


def make_euclidean(n: int) -> ModelSpace:
    if n < 2:
        raise ValueError("model spaces need dimension >= 2")
    chart = Chart(_coord_names("x", n), ((-1.5, 1.5),) * n)
    rows = sym2(n, lambda i, j: ex.ONE if i == j else ex.ZERO)
    return ModelSpace("euclidean", n, 0.0, 0.0, chart, MetricField(chart, rows))


def make_sphere(n: int, r: float = 1.0) -> ModelSpace:
    if n < 2:
        raise ValueError("model spaces need dimension >= 2")
    if not (r > 0):
        raise ValueError("sphere radius must be positive")
    chart = Chart(_coord_names("x", n), ((-2.0 * r, 2.0 * r),) * n)
    norm2 = ex.nsum(ex.powi(ex.coord(i), 2) for i in range(n))
    conf = ex.div(ex.const(4.0 * r ** 4), ex.powi(ex.add(ex.const(r * r), norm2), 2))
    rows = sym2(n, lambda i, j: conf if i == j else ex.ZERO)
    return ModelSpace("sphere", n, r, 1.0 / r ** 2, chart, MetricField(chart, rows))


def make_hyperbolic(n: int) -> ModelSpace:
    if n < 2:
        raise ValueError("model spaces need dimension >= 2")
    box = ((-1.0, 1.0),) * (n - 1) + ((0.4, 2.5),)
    chart = Chart(_coord_names("x", n), box, domain=(ex.coord(n - 1),))
    w = ex.powi(ex.coord(n - 1), -2)
    rows = sym2(n, lambda i, j: w if i == j else ex.ZERO)
    return ModelSpace("hyperbolic", n, 0.0, -1.0, chart, MetricField(chart, rows))


def sphere_embedding(space: ModelSpace):
    """Ambient coordinates of the round-sphere embedding, as n+1 expressions."""
    n, r = space.dim, space.radius
    norm2 = ex.nsum(ex.powi(ex.coord(i), 2) for i in range(n))
    denom = ex.add(norm2, ex.const(r * r))
    comps = [ex.div(ex.mul(ex.const(2.0 * r * r), ex.coord(i)), denom) for i in range(n)]
    comps.append(ex.div(ex.mul(ex.const(r), ex.sub(norm2, ex.const(r * r))), denom))
    return tuple(comps)


def hyperboloid_embedding(space: ModelSpace):
    """Hyperboloid-sheet coordinates (p_{n+1} >= 1) from the half-space chart."""
    n = space.dim
    s = ex.coord(n - 1)
    q = ex.nsum(ex.powi(ex.coord(i), 2) for i in range(n))
    two_s = ex.mul(ex.const(2.0), s)
    comps = [ex.div(ex.coord(i), s) for i in range(n - 1)]
    comps.append(ex.div(ex.sub(q, ex.ONE), two_s))
    comps.append(ex.div(ex.add(q, ex.ONE), two_s))
    return tuple(comps)


def height_function(space: ModelSpace, v) -> HeightFunction:
    """Restriction of the ambient linear function of direction v.

    Satisfies the Hessian equation of the model: Hess h_v = -c h_v g with
    c the sectional curvature.  The direction must be unit: Euclidean norm 1
    for the sphere, Minkowski norm <v,v> = -1 for the hyperboloid.
    """
    v = tuple(float(c) for c in v)
    n = space.dim
    if len(v) != n + 1:
        raise ValueError(f"direction must have {n + 1} components")
    if space.kind == "sphere":
        if abs(sum(c * c for c in v) - 1.0) > 1e-9:
            raise ValueError("sphere height direction must have Euclidean norm 1")
        emb = sphere_embedding(space)
    elif space.kind == "hyperbolic":
        mink = sum(c * c for c in v[:-1]) - v[-1] * v[-1]
        if abs(mink + 1.0) > 1e-9:
            raise ValueError("hyperbolic height direction must have Minkowski norm -1")
        emb = hyperboloid_embedding(space)
    else:
        raise ValueError("height functions require a sphere or hyperbolic model")
    h = ex.nsum(ex.mul(ex.const(c), p) for c, p in zip(v, emb))
    return HeightFunction(v, space.curvature, ScalarField(space.chart, h))


# ---------------------------------------------------------------------------
# warped products


def _as_chart_metric(obj):
    if isinstance(obj, ModelSpace):
        return obj.chart, obj.metric
    return obj


def _fresh_names(taken, count):
    for prefix in ("y", "z", "w", "v"):
        names = _coord_names(prefix, count)
        if not (set(names) & taken):
            return names
    raise ValueError("could not find fresh fiber coordinate names")


def check_warping(base_chart: Chart, f: ScalarField, seed: int = 0) -> None:
    """Raise GeometryError unless the warping f, a scalar on base_chart, is
    positive at 64 seeded samples of it."""
    if f.chart != base_chart:
        raise ValueError("warping function must live on the base chart")
    pts = sample_points(base_chart, 64, seed)
    fv = eval_scalar(f, pts)
    if not np.all(fv > 0.0):
        bad = pts[int(np.argmin(fv))]
        raise GeometryError(f"non-positive warping at sample {tuple(map(float, bad))}")


def _lift(e, coords, nb: int, params):
    """Fiber expression e on the product chart: printed over coords[nb:] and
    parsed over coords, so fiber coordinate i becomes coordinate nb + i."""
    return ex.parse_expression(ex.to_text(e, coords[nb:]), coords, dict(params))


def _blocks(d: int, nb: int, horizontal, vertical) -> tuple:
    """Rows horizontal(i, j) for i, j < nb, vertical(i-nb, j-nb) for i, j >= nb, else 0."""
    return sym2(d, lambda i, j: horizontal(i, j) if j < nb
                else ex.ZERO if i < nb else vertical(i - nb, j - nb))


def make_warped(base, fiber, f: ScalarField, *, seed: int = 0) -> WarpedProduct:
    """Assemble B x_f F with metric g_B + f^2 g_F (blockwise, no cross terms).

    `base` and `fiber` may each be a ModelSpace or a (chart, metric) pair.
    The warping f must pass check_warping.  The product chart carries the
    parameters of both charts, which must have distinct names.
    Fiber coordinates named like a base coordinate or parameter are renamed
    (y1, y2, ... or the first free of z, w, v).  Each fiber metric entry and
    domain predicate moves to the product chart by _lift.
    """
    base_chart, base_metric = _as_chart_metric(base)
    check_warping(base_chart, f, seed)
    fiber_chart, fiber_metric = _as_chart_metric(fiber)
    nb, m = base_chart.dim, fiber_chart.dim
    params = base_chart.params + fiber_chart.params
    taken = set(base_chart.coords) | {name for name, _ in params}
    fiber_names = fiber_chart.coords
    if taken.intersection(fiber_names):
        fiber_names = _fresh_names(taken, m)
    coords = base_chart.coords + fiber_names
    lift = partial(_lift, coords=coords, nb=nb, params=params)
    chart = Chart(coords, base_chart.box + fiber_chart.box,
                  domain=base_chart.domain + tuple(map(lift, fiber_chart.domain)),
                  params=params)
    f2 = ex.powi(f.expr, 2)
    metric = MetricField(chart, _blocks(
        nb + m, nb, lambda i, j: base_metric.comps[i][j],
        lambda i, j: ex.mul(f2, lift(fiber_metric.comps[i][j]))))
    return WarpedProduct(base_chart, base_metric, fiber_metric, m, f, chart, metric)


@lru_cache(maxsize=None)
def oneill_tensor(w: WarpedProduct) -> tuple:
    """O'Neill's Ricci of the product w, as symmetric rows on w.chart: the
    horizontal block Ric_B - (m/f) Hess_B f from the base DAGs as they are
    (base coordinates come first), a zero mixed block, and the vertical block
    Ric_F - (lap f / f + (m-1) |grad f|^2 / f^2) f^2 g_F, with Ric_F moved
    over by _lift and f^2 g_F the product metric's own entries."""
    g, f, nb, m = w.base_metric, w.warping, w.base_chart.dim, w.fiber_dim
    ric_b, hess_f, ric_f = ricci(g).comps, hessian(g, f).comps, ricci(w.fiber_metric).comps
    m_over_f = ex.div(ex.const(float(m)), f.expr)
    coef = ex.add(ex.div(laplacian(g, f).expr, f.expr), ex.mul(
        ex.const(m - 1.0), ex.div(grad_norm2(g, f).expr, ex.powi(f.expr, 2))))
    return _blocks(
        w.dim, nb, lambda i, j: ex.sub(ric_b[i][j], ex.mul(m_over_f, hess_f[i][j])),
        lambda i, j: ex.sub(_lift(ric_f[i][j], w.chart.coords, nb, w.chart.params),
                            ex.mul(coef, w.metric.comps[nb + i][nb + j])))


def oneill_ricci(w: WarpedProduct, points) -> np.ndarray:
    """oneill_tensor(w) at one point, a (d, d) array, or at an (N, d) batch,
    an (N, d, d) array, in one eval_tensors call: each lane is evaluated on
    its own, so a batch gives the same bits as its points one at a time."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != w.dim:
        raise ValueError(f"point must have {w.dim} coordinates")
    out = eval_tensors(w.chart, [oneill_tensor(w)], pts.reshape(-1, w.dim))[0]
    return out[0] if pts.ndim == 1 else out


# ---------------------------------------------------------------------------
# the warped line


def line_chart(box=(-1.5, 1.5)) -> Chart:
    return Chart(("t",), (tuple(box),))


def line_metric(chart: Chart = None) -> MetricField:
    chart = chart or line_chart()
    return MetricField(chart, ((ex.ONE,),))


def warping_solution(k: float, A: float, l: float, box=(-1.5, 1.5)) -> ScalarField:
    """The profile f(t) = (A/s) sinh(s t) + sqrt((A^2+l)/-k) cosh(s t), s = sqrt(-k).

    Requires k < 0, A != 0, l >= 0; then f > 0 on all of R, f'' + k f = 0, and
    (f')^2 + k f^2 = -l.
    """
    k, A, l = float(k), float(A), float(l)
    if not k < 0:
        raise ValueError("warping_solution requires k < 0")
    if A == 0:
        raise ValueError("warping_solution requires A != 0")
    if l < 0:
        raise ValueError("warping_solution requires l >= 0")
    s = math.sqrt(-k)
    t = ex.coord(0)
    st = ex.mul(ex.const(s), t)
    f = ex.add(ex.mul(ex.const(A / s), ex.sinh(st)),
               ex.mul(ex.const(math.sqrt((A * A + l) / -k)), ex.cosh(st)))
    return ScalarField(line_chart(box), f)
