"""Randomized suites for the universal tensor identities.

These checks do not depend on any soliton structure: contracted Bianchi,
the four product/derivative formulas

    div(phi T) = phi div T + T(grad phi, .)
    nabla(phi T) = phi nabla T + d phi (x) T
    (1/2) d|grad phi|^2 = Hess phi(grad phi, .)
    div Hess phi = Ric(grad phi, .) + d(lap phi)

and the contraction rule

    div(T(phi Z)) = phi (div T)(Z) + phi <nabla Z, T> + T(grad phi, Z)

hold on every Riemannian metric, so they are exercised on randomly perturbed
metrics with random polynomial fields.  Perturbations keep strict diagonal
dominance on the sampling box, so every generated metric is positive definite
by construction.  All randomness is seeded; a suite called twice with the
same arguments sees the same metrics, fields, and points.

The random coefficients are parameters, named per entry and term and never
per seed, and their drawn values live on the metric's chart.  So all suite
metrics of one dimension have the same components, every suite call at that
dimension reaches the same interned roots and replays the same tape, and a
suite evaluates its metrics' points in blocks of ex._BLOCK, each parameter
bound to a float in a block inside one metric and to per-point lanes in a
block that spans metrics.  The quadratics and each suite's residual builder
are memoized on those interned inputs, so a suite call after the first at
its dimension builds no node; a builder returns ((name, roots), ...), which
no caller can change.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import expr as ex
from . import geometry as geo
from . import soliton as so
from . import spaces as sp
from .geometry import Chart, MetricField, ScalarField, SymTensorField, VectorField

SUITE_TOL = 1e-7
_TAGS = {"fg": 13, "lemma21": 17}


def _chart(n: int, params=()) -> Chart:
    return Chart(tuple(f"x{i+1}" for i in range(n)), ((-1.0, 1.0),) * n, params=params)


def _term_count(n: int) -> int:
    return (n + 1) * (n + 2) // 2


@lru_cache(maxsize=None)
def quadratics(n: int, names: tuple) -> tuple:
    """Quadratics c_0 + sum c_i x_i + sum_{i<=j} c_ij x_i x_j over parameters.

    Quadratic `name` has the parameters name_0, name_1, ... in that term
    order, so it depends only on n and `name`.  Returned in `names` order,
    and memoized on (n, names).
    """
    x = [ex.coord(i) for i in range(n)]
    monomials = [ex.ONE] + x + [ex.mul(x[i], x[j]) for i in range(n) for j in range(i, n)]
    return tuple(ex.nsum(ex.mul(ex.param(f"{name}_{t}"), m) for t, m in enumerate(monomials))
                 for name in names)


def quadratic_values(rng, n: int, names, scale: float = 0.5) -> dict:
    """{parameter: value} for quadratics(n, names), uniform in (-scale, scale)
    and drawn from `rng` quadratic by quadratic, term by term."""
    draws = rng.uniform(-scale, scale, (len(names), _term_count(n)))
    return {f"{name}_{t}": v for name, row in zip(names, draws.tolist())
            for t, v in enumerate(row)}


def _upper(prefix: str, n: int) -> tuple:
    """Names of a symmetric tensor's upper-triangle entries, row-major."""
    return tuple(f"{prefix}{i}{j}" for i in range(n) for j in range(i, n))


def random_perturbed_metric(rng, n: int) -> MetricField:
    """delta_ij plus a small random quadratic perturbation.

    Entry (i, j) perturbs by the quadratic `g{i}{j}` (see quadratics), whose
    coefficient values the chart carries.  Each entry's perturbation is
    bounded by 0.4/n on the box, so the rows stay strictly diagonally
    dominant and the metric is positive definite everywhere it is sampled.
    """
    names = _upper("g", n)
    values = quadratic_values(rng, n, names, 0.4 / (n * _term_count(n)))
    it = iter(quadratics(n, names))
    comps = geo.sym2(n, lambda i, j: ex.add(ex.ONE, next(it)) if i == j else next(it))
    return MetricField(_chart(n, values.items()), comps)


def suite_metrics(dim: int = 3, metric_count: int = 20, seed: int = 7):
    """The deterministic family of perturbed metrics shared by all suites.

    All of them have the same components; only their charts' parameter
    values differ.
    """
    rng = np.random.default_rng((seed, 3))
    return [random_perturbed_metric(rng, dim) for _ in range(metric_count)]


def _field_names(n: int, vector: bool) -> tuple:
    return ("phi",) + _upper("T", n) + (tuple(f"Z{k}" for k in range(n)) if vector else ())


def suite_fields(n: int, vector: bool = False):
    """The random fields of the suites, as quadratics over parameters (see
    quadratics): a scalar `phi`, a symmetric tensor `T{i}{j}` and, with
    `vector`, a vector `Z{k}`.  Returns (phi, T's symmetric rows, Z's
    components or None)."""
    quads = quadratics(n, _field_names(n, vector))
    m = 1 + n * (n + 1) // 2
    return quads[0], geo.sym_rows(quads[1:m]), quads[m:] if vector else None


def field_values(rng, n: int, vector: bool = False) -> dict:
    """The coefficient values of suite_fields(n, vector), drawn from `rng`
    field by field in that order."""
    return quadratic_values(rng, n, _field_names(n, vector))


def _suite_points(chart, point_count, seed, idx):
    return geo.sample_points(chart, point_count, 7919 * seed + idx)


def _run_suite(gs, point_count, seed, tol, residuals, fields=None):
    """One report per residual, over the sampled points of every metric.

    `residuals(g)` returns ((name, roots), ...) in report order.
    `fields(idx, n)`, when given, returns the coefficient values of metric
    idx's random fields (see field_values), which join its chart's values.
    Every metric must have the first one's components and parameter names
    (suite_metrics gives such a list), else ValueError names the first that
    differs.  The residuals are asked for once, over the first metric's
    chart without its values, so every call of one dimension reaches the same
    roots, and the suites' memoized builders (bianchi_residuals, ...) hand
    out roots built by an earlier call.  The derivative memo is released once
    they are built (ex.release_derivatives).  Then one geo.gnorms pass per block
    of ex._BLOCK points evaluates them over the metric-major concatenation
    of every metric's points.  A pass inside one metric binds its values as
    floats; a pass that spans metrics binds each parameter to one lane, its
    value on each point's metric.  Either way every point gets the bits a
    pass over its own metric would give it, the memory a suite holds beside
    its result is that of one block, and a DomainError names a point of its
    pass.
    """
    if not gs:
        return []
    params = [g.chart.params for g in gs]
    if fields is not None:
        params = [p + tuple(fields(idx, g.chart.dim).items())
                  for idx, (p, g) in enumerate(zip(params, gs))]
    pts = [_suite_points(g.chart, point_count, seed, idx) for idx, g in enumerate(gs)]
    comps, names = gs[0].comps, tuple(k for k, _ in params[0])
    for idx, (g, p) in enumerate(zip(gs, params)):
        if g.comps != comps or tuple(k for k, _ in p) != names:
            raise ValueError(f"suite metric {idx} differs from metric 0 in its "
                             "components or parameter names")
    coords, box = gs[0].chart.coords, gs[0].chart.box
    checks = residuals(MetricField(Chart(coords, box), comps))
    # the build is done: the blocks below reuse the derivative memo's memory
    ex.release_derivatives()
    roots = [r for _, r in checks]
    # (parameters x metrics), and each point's metric
    table = np.array([[v for _, v in p] for p in params]).T
    metric = np.repeat(np.arange(len(gs)), [len(p) for p in pts])
    pts = np.concatenate(pts)
    cols = []
    for lo in range(0, len(pts), ex._BLOCK):
        at = metric[lo:lo + ex._BLOCK]
        values = table[:, at[0]].tolist() if at[0] == at[-1] else table[:, at]
        chart = Chart(coords, box, params=zip(names, values))
        cols.append(geo.gnorms(MetricField(chart, comps), roots, pts[lo:lo + ex._BLOCK]))
    return [so._report(name, tol, pts, np.concatenate([col[k] for col in cols]),
                       metrics=len(gs), points_per_metric=point_count, seed=seed)
            for k, (name, _) in enumerate(checks)]


@lru_cache(maxsize=None)
def bianchi_residuals(g):
    """div Ric - (1/2) dR."""
    div_ric = geo.divergence_sym2(g, geo.ricci(g))
    scal = geo.scalar_curvature(g)
    return (("bianchi", tuple(ex.sub(div_ric.comps[j],
                                     ex.mul(ex.const(0.5), ex.differentiate(scal.expr, j)))
                              for j in range(g.chart.dim))),)


@lru_cache(maxsize=None)
def fg_residuals(g):
    """The four product/derivative formulas over suite_fields(n)."""
    n = g.chart.dim
    chart = g.chart
    phi, T, _ = suite_fields(n)
    T = SymTensorField(chart, T)
    phi_f = ScalarField(chart, phi)
    grad_phi = geo.gradient(g, phi_f).comps
    dphi = [ex.differentiate(phi, a) for a in range(n)]
    out = {}

    phiT = SymTensorField(chart, geo.sym2(n, lambda i, j: ex.mul(phi, T.comps[i][j])))
    # div(phi T) - phi div T - T(grad phi, .)
    lhs = geo.divergence_sym2(g, phiT)
    rhs_div = geo.divergence_sym2(g, T)
    out["fg-div-product"] = tuple(
        ex.sub(lhs.comps[j],
               ex.add(ex.mul(phi, rhs_div.comps[j]),
                      ex.nsum(ex.mul(T.comps[i][j], grad_phi[i]) for i in range(n))))
        for j in range(n))

    # nabla(phi T) - phi nabla T - d phi (x) T
    lhs3 = geo.covariant_derivative_sym2(g, phiT)
    rhs3 = geo.covariant_derivative_sym2(g, T)
    out["fg-covariant-product"] = tuple(
        tuple(tuple(ex.sub(lhs3[a][i][j],
                           ex.add(ex.mul(phi, rhs3[a][i][j]), ex.mul(dphi[a], T.comps[i][j])))
                    for j in range(n)) for i in range(n)) for a in range(n))

    # (1/2) d|grad phi|^2 - Hess phi(grad phi, .)
    gn2 = geo.grad_norm2(g, phi_f).expr
    hess = geo.hessian(g, phi_f)
    out["fg-half-grad-square"] = tuple(
        ex.sub(ex.mul(ex.const(0.5), ex.differentiate(gn2, j)),
               ex.nsum(ex.mul(hess.comps[i][j], grad_phi[i]) for i in range(n)))
        for j in range(n))

    # div Hess phi - Ric(grad phi, .) - d(lap phi)
    div_hess = geo.divergence_sym2(g, hess)
    ric = geo.ricci(g)
    lap = geo.laplacian(g, phi_f).expr
    out["fg-hessian-divergence"] = tuple(
        ex.sub(div_hess.comps[j],
               ex.add(ex.nsum(ex.mul(ric.comps[i][j], grad_phi[i]) for i in range(n)),
                      ex.differentiate(lap, j)))
        for j in range(n))
    return tuple(out.items())


@lru_cache(maxsize=None)
def lemma21_residuals(g):
    """div(T(phi Z)) - phi (div T)(Z) - phi <nabla Z, T> - T(grad phi, Z)
    over suite_fields(n, vector=True)."""
    n = g.chart.dim
    chart = g.chart
    phi, T, Z = suite_fields(n, vector=True)
    T, Z = SymTensorField(chart, T), VectorField(chart, Z)
    grad_phi = geo.gradient(g, ScalarField(chart, phi)).comps

    # LHS = div W with the vector W = T(phi Z)
    phi_z = VectorField(chart, [ex.mul(phi, Z.comps[k]) for k in range(n)])
    lhs = geo.divergence_vector(g, geo.sym2_apply(g, T, phi_z)).expr

    div_t = geo.divergence_sym2(g, T)
    term1 = ex.mul(phi, ex.nsum(ex.mul(div_t.comps[j], Z.comps[j])
                                for j in range(n)))
    nabla_z = geo.covariant_derivative_vector(g, Z)
    term2 = ex.mul(phi, geo.inner_rank2(g, nabla_z, T).expr)
    term3 = ex.nsum(ex.mul(T.comps[i][j], ex.mul(grad_phi[i], Z.comps[j]))
                    for i in range(n) for j in range(n))
    return (("lemma21", ex.sub(lhs, ex.add(ex.add(term1, term2), term3))),)


def bianchi_suite(dim: int = 3, metric_count: int = 20, point_count: int = 100,
                  seed: int = 7, tol: float = SUITE_TOL, metrics=None):
    """Contracted Bianchi: div Ric = (1/2) dR on random metrics."""
    gs = metrics if metrics is not None else suite_metrics(dim, metric_count, seed)
    return _run_suite(gs, point_count, seed, tol, bianchi_residuals)


def fg_formulas_suite(dim: int = 3, metric_count: int = 20, point_count: int = 100,
                      seed: int = 7, tol: float = SUITE_TOL, metrics=None):
    """The four product/derivative formulas, one aggregated report each."""
    gs = metrics if metrics is not None else suite_metrics(dim, metric_count, seed)

    def fields(idx, n):
        return field_values(np.random.default_rng((seed, idx, _TAGS["fg"])), n)

    return _run_suite(gs, point_count, seed, tol, fg_residuals, fields)


def lemma21_suite(dim: int = 3, metric_count: int = 20, point_count: int = 100,
                  seed: int = 7, tol: float = SUITE_TOL, metrics=None):
    """div(T(phi Z)) = phi (div T)(Z) + phi <nabla Z, T> + T(grad phi, Z)."""
    gs = metrics if metrics is not None else suite_metrics(dim, metric_count, seed)

    def fields(idx, n):
        return field_values(np.random.default_rng((seed, idx, _TAGS["lemma21"])), n,
                            vector=True)

    return _run_suite(gs, point_count, seed, tol, lemma21_residuals, fields)


def oneill_suite(w, count: int = 100, seed: int = 7, tol: float = 1e-9):
    """g-norm of the symbolic Ricci of an assembled warped product minus
    O'Neill's blockwise formulas (spaces.oneill_tensor) at sampled points."""
    pts = geo.sample_points(w.chart, count, seed, metric=w.metric)
    ric, formulas = geo.ricci(w.metric).comps, sp.oneill_tensor(w)
    res = geo.sym2(w.dim, lambda i, j: ex.sub(ric[i][j], formulas[i][j]))
    return so.run_checks(w.metric, pts, [("oneill", tol, res)],
                         points_per_metric=count, seed=seed)
