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
"""

from __future__ import annotations

import numpy as np

from . import expr as ex
from . import geometry as geo
from . import soliton as so
from . import spaces as sp
from .geometry import Chart, MetricField, ScalarField, SymTensorField, VectorField

SUITE_TOL = 1e-7
_TAGS = {"bianchi": 11, "fg": 13, "lemma21": 17}


def _chart(n: int) -> Chart:
    return Chart(tuple(f"x{i+1}" for i in range(n)), ((-1.0, 1.0),) * n)


def random_polynomial(rng, n: int, scale: float = 0.5) -> ex.Expression:
    """Random quadratic sum c0 + sum c_i x_i + sum c_ij x_i x_j, coefficients
    uniform in (-scale, scale)."""
    terms = [ex.const(rng.uniform(-scale, scale))]
    for i in range(n):
        terms.append(ex.mul(ex.const(rng.uniform(-scale, scale)), ex.coord(i)))
    for i in range(n):
        for j in range(i, n):
            terms.append(ex.mul(ex.const(rng.uniform(-scale, scale)),
                                ex.mul(ex.coord(i), ex.coord(j))))
    return ex.nsum(terms)


def random_perturbed_metric(rng, n: int) -> MetricField:
    """delta_ij plus a small random quadratic perturbation.

    Each entry's perturbation is bounded by 0.4/n on the box, so the rows stay
    strictly diagonally dominant and the metric is positive definite
    everywhere it is sampled.
    """
    chart = _chart(n)
    terms_per_entry = 1 + n + n * (n + 1) // 2
    scale = 0.4 / (n * terms_per_entry)

    def entry(i, j):
        q = random_polynomial(rng, n, scale)
        return ex.add(ex.ONE, q) if i == j else q

    return MetricField(chart, geo.sym2(n, entry))


def random_vector(rng, chart: Chart) -> VectorField:
    n = chart.dim
    return VectorField(chart, [random_polynomial(rng, n) for _ in range(n)])


def random_sym2(rng, chart: Chart) -> SymTensorField:
    n = chart.dim
    return SymTensorField(chart, geo.sym2(n, lambda i, j: random_polynomial(rng, n)))


def suite_metrics(dim: int = 3, metric_count: int = 20, seed: int = 7):
    """The deterministic family of perturbed metrics shared by all suites."""
    rng = np.random.default_rng((seed, 3))
    return [random_perturbed_metric(rng, dim) for _ in range(metric_count)]


def _suite_points(chart, point_count, seed, idx):
    return geo.sample_points(chart, point_count, 7919 * seed + idx)


def _run_suite(gs, point_count, seed, tol, residuals):
    """One report per residual, over the sampled points of every metric.

    `residuals(idx, g)` returns {name: comps} in report order; one
    so.run_checks call evaluates them all at metric idx's own points.
    """
    runs = [so.run_checks(g, _suite_points(g.chart, point_count, seed, idx),
                          [(name, tol, c) for name, c in residuals(idx, g).items()])
            for idx, g in enumerate(gs)]
    pts = np.concatenate([reps[0].points for reps in runs])
    return [so._report(col[0].name, tol, pts, np.concatenate([r.residuals for r in col]),
                       metrics=len(gs), points_per_metric=point_count, seed=seed)
            for col in zip(*runs)]


def bianchi_suite(dim: int = 3, metric_count: int = 20, point_count: int = 100,
                  seed: int = 7, tol: float = SUITE_TOL, metrics=None):
    """Contracted Bianchi: div Ric = (1/2) dR on random metrics."""
    gs = metrics if metrics is not None else suite_metrics(dim, metric_count, seed)

    def residuals(idx, g):
        div_ric = geo.divergence_sym2(g, geo.ricci(g))
        scal = geo.scalar_curvature(g)
        return {"bianchi": [ex.sub(div_ric.comps[j],
                                   ex.mul(ex.const(0.5), ex.differentiate(scal.expr, j)))
                            for j in range(g.chart.dim)]}

    return _run_suite(gs, point_count, seed, tol, residuals)


def fg_formulas_suite(dim: int = 3, metric_count: int = 20, point_count: int = 100,
                      seed: int = 7, tol: float = SUITE_TOL, metrics=None):
    """The four product/derivative formulas, one aggregated report each."""
    gs = metrics if metrics is not None else suite_metrics(dim, metric_count, seed)

    def residuals(idx, g):
        n = g.chart.dim
        chart = g.chart
        rng = np.random.default_rng((seed, idx, _TAGS["fg"]))
        phi = random_polynomial(rng, n)
        T = random_sym2(rng, chart)
        phi_f = ScalarField(chart, phi)
        grad_phi = geo.gradient(g, phi_f).comps
        dphi = [ex.differentiate(phi, a) for a in range(n)]
        out = {}

        phiT = SymTensorField(chart, geo.sym2(n, lambda i, j: ex.mul(phi, T.comps[i][j])))
        # div(phi T) - phi div T - T(grad phi, .)
        lhs = geo.divergence_sym2(g, phiT)
        rhs_div = geo.divergence_sym2(g, T)
        out["fg-div-product"] = [
            ex.sub(lhs.comps[j],
                   ex.add(ex.mul(phi, rhs_div.comps[j]),
                          ex.nsum(ex.mul(T.comps[i][j], grad_phi[i]) for i in range(n))))
            for j in range(n)]

        # nabla(phi T) - phi nabla T - d phi (x) T
        lhs3 = geo.covariant_derivative_sym2(g, phiT)
        rhs3 = geo.covariant_derivative_sym2(g, T)
        out["fg-covariant-product"] = [
            [[ex.sub(lhs3[a][i][j],
                     ex.add(ex.mul(phi, rhs3[a][i][j]), ex.mul(dphi[a], T.comps[i][j])))
              for j in range(n)] for i in range(n)] for a in range(n)]

        # (1/2) d|grad phi|^2 - Hess phi(grad phi, .)
        gn2 = geo.grad_norm2(g, phi_f).expr
        hess = geo.hessian(g, phi_f)
        out["fg-half-grad-square"] = [
            ex.sub(ex.mul(ex.const(0.5), ex.differentiate(gn2, j)),
                   ex.nsum(ex.mul(hess.comps[i][j], grad_phi[i]) for i in range(n)))
            for j in range(n)]

        # div Hess phi - Ric(grad phi, .) - d(lap phi)
        div_hess = geo.divergence_sym2(g, hess)
        ric = geo.ricci(g)
        lap = geo.laplacian(g, phi_f).expr
        out["fg-hessian-divergence"] = [
            ex.sub(div_hess.comps[j],
                   ex.add(ex.nsum(ex.mul(ric.comps[i][j], grad_phi[i]) for i in range(n)),
                          ex.differentiate(lap, j)))
            for j in range(n)]
        return out

    return _run_suite(gs, point_count, seed, tol, residuals)


def lemma21_suite(dim: int = 3, metric_count: int = 20, point_count: int = 100,
                  seed: int = 7, tol: float = SUITE_TOL, metrics=None):
    """div(T(phi Z)) = phi (div T)(Z) + phi <nabla Z, T> + T(grad phi, Z)."""
    gs = metrics if metrics is not None else suite_metrics(dim, metric_count, seed)

    def residuals(idx, g):
        n = g.chart.dim
        chart = g.chart
        rng = np.random.default_rng((seed, idx, _TAGS["lemma21"]))
        phi = random_polynomial(rng, n)
        T = random_sym2(rng, chart)
        Z = random_vector(rng, chart)
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
        return {"lemma21": ex.sub(lhs, ex.add(ex.add(term1, term2), term3))}

    return _run_suite(gs, point_count, seed, tol, residuals)


def oneill_suite(w, count: int = 100, seed: int = 7, tol: float = 1e-9):
    """Direct symbolic Ricci of an assembled warped product against the
    blockwise base/fiber formulas, componentwise sup over sampled points."""
    if w.chart is None:
        raise ValueError("the comparison needs an explicit product chart")
    pts = geo.sample_points(w.chart, count, seed, metric=w.metric)
    direct = geo.eval_tensors(w.chart, [geo.ricci(w.metric).comps], pts)[0]
    res = np.max(np.abs(direct - sp.oneill_ricci(w, pts)), axis=(1, 2))
    return [so._report("oneill", tol, pts, res, points_per_metric=count, seed=seed)]
