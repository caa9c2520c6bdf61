"""Soliton structures, residual operators, and structural identity checks.

The central object is SolitonStructure: a metric g together with a vector
field X (or a potential u with X = grad u), a function h, and a soliton
function lambda, satisfying

    Ric + (h/2) L_X g = lambda g          (vector form)
    Ric + h Hess u    = lambda g          (gradient form)

when the structure is genuine.  A check is a (name, tol, residual) triple;
run_checks evaluates a list of them, and any fields whose verdicts its
caller decides (such as the h = -m/u probe and mu), in one pass at sampled
points.  The builders of fields and checks (derive, soliton_check,
divric_check, eqpprinc_check, conformal_factor_check, mu_scalar_field) are
memoized with lru_cache on their frozen arguments, and return frozen fields
or tuples of interned nodes, so a repeated call builds nothing and no caller
can change a cached value.  Sign convention:
the soliton is expanding when lambda < 0, steady when lambda = 0, shrinking
when lambda > 0.

For gradient structures with h = -m/u the module also checks the conserved
quantity mu = lambda u^2 + u lap u + (m-1)|grad u|^2 (constant when lambda
is), the 1-form identity

    d((n-2)/m u^2 lambda - u lap u - (m-1)|grad u|^2)
        - ((m+n-2)/m) lambda d(u^2) = 0,

and builds warped-product Einstein metrics B x_u F^m with Ric = lambda g.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import expr as ex
from . import geometry as geo
from . import spaces as sp
from .geometry import Frozen, MetricField, ScalarField, SymTensorField, VectorField

FORM_FREE = "free"
FORM_M_OVER_U = "m-over-u"
FORM_NEG_M_OVER_U = "neg-m-over-u"
FORMS = (FORM_FREE, FORM_M_OVER_U, FORM_NEG_M_OVER_U)

LAMBDA_SPREAD_TOL = 1e-8       # h-Ricci soliton vs h-almost: constancy of lambda
HOMOTHETY_SPREAD_TOL = 1e-6    # triviality: relative spread of (2/n) div X
STEADY_EPS = 1e-12
PRECHECK_TOL = 1e-8            # divric/eqpprinc: the defining residual must pass too


class PreconditionError(Exception):
    """A check was invoked on a structure that fails its preconditions."""


class SolitonStructure(Frozen):
    _fields = ("metric", "h", "lam", "vector_field", "potential", "h_form", "m")

    def __init__(self, metric: MetricField, h: ScalarField, lam: ScalarField,
                 vector_field: VectorField = None, potential: ScalarField = None,
                 h_form: str = FORM_FREE, m: float = None):
        vars(self).update(metric=metric, h=h, lam=lam, vector_field=vector_field,
                          potential=potential, h_form=h_form, m=m)
        if vector_field is None and potential is None:
            raise ValueError("need a vector field or a potential")
        if vector_field is not None and potential is not None:
            raise ValueError("give either a vector field or a potential, not both")
        if h_form not in FORMS:
            raise ValueError(f"unknown h form {h_form!r}")
        if h_form != FORM_FREE:
            if potential is None:
                raise ValueError(f"h form {h_form!r} needs a gradient structure")
            if m is None or not m > 0:
                raise ValueError(f"h form {h_form!r} needs m > 0")
        for f in (h, lam, vector_field, potential):
            if f is not None and f.chart != metric.chart:
                raise ValueError("all structure fields must live on the metric's chart")

    @property
    def chart(self):
        return self.metric.chart

    @property
    def is_gradient(self) -> bool:
        return self.potential is not None


class DerivedFields(Frozen):
    _fields = ("X", "S", "S0", "ric0", "div_x")

    def __init__(self, X: VectorField,
                 S: SymTensorField,       # ½ L_X g
                 S0: SymTensorField,      # traceless part
                 ric0: SymTensorField, div_x: ScalarField):
        vars(self).update(X=X, S=S, S0=S0, ric0=ric0, div_x=div_x)


@lru_cache(maxsize=None)
def derive(s: SolitonStructure) -> DerivedFields:
    g = s.metric
    X = s.vector_field if s.vector_field is not None else geo.gradient(g, s.potential)
    S = geo.half_lie_derivative_metric(g, X)
    S0 = geo.traceless(g, S)
    ric0 = geo.traceless(g, geo.ricci(g))
    div_x = geo.divergence_vector(g, X)
    return DerivedFields(X, S, S0, ric0, div_x)


class ResidualReport:
    def __init__(self, name: str, tolerance: float, points: np.ndarray,
                 residuals: np.ndarray, sup: float, passed: bool, worst_point: tuple,
                 metadata: dict = None):
        self.name = name
        self.tolerance = tolerance
        self.points = points
        self.residuals = residuals
        self.sup = sup
        self.passed = passed
        self.worst_point = worst_point
        self.metadata = {} if metadata is None else metadata


def _report(name, tol, pts, res, **metadata) -> ResidualReport:
    """The report of residual values at the points, reduced by |r|."""
    res = np.abs(np.asarray(res, dtype=float))
    i = int(np.argmax(res))
    sup = float(res[i])
    return ResidualReport(name, float(tol), pts, res, sup, sup <= tol,
                          tuple(pts[i]), metadata)


def default_points(s, count: int = 200, seed: int = 42) -> np.ndarray:
    """Seeded admissible samples for a structure, or for a chart.

    For a structure, h, lambda and u (or X) are evaluated strictly at the
    samples, so a field that is undefined there raises DomainError even when
    constant folding drops it from every residual.
    """
    if isinstance(s, SolitonStructure):
        pts = geo.sample_points(s.chart, count, seed, metric=s.metric)
        geo.eval_tensors(s.chart, [s.h.expr, s.lam.expr, s.potential.expr
                                   if s.is_gradient else s.vector_field.comps], pts)
        return pts
    return geo.sample_points(s, count, seed)


# ---------------------------------------------------------------------------
# residual operators


def run_checks(g: MetricField, points, checks, *, fields=(), **metadata) -> list:
    """One ResidualReport per (name, tol, residual) check, in order, each with
    its own copy of `metadata`, then the gnorms values of each of `fields`,
    whose verdicts the caller decides: all from one geo.gnorms call."""
    pts = geo.points_array(points)
    res = geo.gnorms(g, [c[2] for c in checks] + list(fields), pts)
    return [_report(name, tol, pts, r, **metadata)
            for (name, tol, _), r in zip(checks, res)] + res[len(checks):]


@lru_cache(maxsize=None)
def soliton_check(s: SolitonStructure, tol: float = 1e-8, gradient: bool = False):
    """The check Ric + (h/2) L_X g - lambda g = 0, or with `gradient` the
    check Ric + h Hess u - lambda g = 0, which needs a potential."""
    if gradient and not s.is_gradient:
        raise PreconditionError("gradient residual needs a structure with a potential")
    g = s.metric
    term = geo.hessian(g, s.potential) if gradient else derive(s).S
    ric = geo.ricci(g)
    T = geo.sym2(g.chart.dim, lambda i, j: ex.sub(
        ex.add(ric.comps[i][j], ex.mul(s.h.expr, term.comps[i][j])),
        ex.mul(s.lam.expr, g.comps[i][j])))
    return ("gradient-soliton-residual" if gradient else "soliton-residual"), tol, T


def soliton_residual(s: SolitonStructure, points, tol: float = 1e-8) -> ResidualReport:
    """g-norm of Ric + (h/2) L_X g - lambda g at the given points."""
    return run_checks(s.metric, points, [soliton_check(s, tol)])[0]


def gradient_soliton_residual(s: SolitonStructure, points, tol: float = 1e-8) -> ResidualReport:
    """g-norm of Ric + h Hess u - lambda g; needs a potential."""
    return run_checks(s.metric, points, [soliton_check(s, tol, gradient=True)])[0]


def verified_sup(rep: ResidualReport, why: str = "") -> float:
    """The sup of a passing defining report, which an identity's precheck
    reads; PreconditionError when the report failed."""
    if not rep.passed:
        raise PreconditionError(f"{rep.name.replace('-', ' ')} {rep.sup:.3e} "
                                f"exceeds {rep.tolerance:g}{why}")
    return rep.sup


def _mean_spread(vals):
    """(mean, (max - min) / max(1, |mean|)) of sampled values.  One sample
    has no spread to measure, so fewer than two is a PreconditionError."""
    if len(vals) < 2:
        raise PreconditionError("a relative spread needs at least 2 sample "
                                f"points (--points), got {len(vals)}")
    mean = float(np.mean(vals))
    return mean, float((np.max(vals) - np.min(vals)) / max(1.0, abs(mean)))


def lambda_is_constant(s: SolitonStructure, points) -> bool:
    """Relative spread of lambda below 1e-8: h-Ricci soliton, not just almost."""
    vals = geo.eval_scalar(s.lam, points)
    return _mean_spread(vals)[1] < LAMBDA_SPREAD_TOL


def classify_lambda(s: SolitonStructure, points) -> str:
    """The class of lambda's values at the points; see lambda_class."""
    return lambda_class(geo.eval_scalar(s.lam, points))


def lambda_class(vals) -> str:
    """expanding / steady / shrinking per the sign of lambda, a value or an
    array of them (steady: |lambda| <= 1e-12 everywhere; mixed signs:
    undefined).  Note the convention: expanding means lambda < 0."""
    if np.all(np.abs(vals) <= STEADY_EPS):
        return "steady"
    if np.all(vals > STEADY_EPS):
        return "shrinking"
    if np.all(vals < -STEADY_EPS):
        return "expanding"
    return "undefined"


class TrivialityVerdict:
    def __init__(self, trivial: bool, constant: float, sup_traceless: float,
                 spread: float, lambda_spread: float = 0.0,
                 classification: str = None):    # lambda_class of the lambda values
        self.trivial = trivial
        self.constant = constant
        self.sup_traceless = sup_traceless
        self.spread = spread
        self.lambda_spread = lambda_spread
        self.classification = classification


def triviality_fields(s: SolitonStructure) -> list:
    """Traceless ½ L_X g, div X and lambda: the gnorms roots of triviality_verdict."""
    d = derive(s)
    return [d.S0.comps, d.div_x.expr, s.lam.expr]


def triviality_verdict(s: SolitonStructure, values, tol: float = 1e-8) -> TrivialityVerdict:
    """triviality_check's verdict from the gnorms values of triviality_fields."""
    s0, div_x, lam = values
    sup0 = float(np.max(s0))
    mean, spread = _mean_spread((2.0 / s.chart.dim) * div_x)
    _, lam_spread = _mean_spread(lam)
    trivial = (sup0 <= tol and spread < HOMOTHETY_SPREAD_TOL
               and lam_spread < LAMBDA_SPREAD_TOL)
    return TrivialityVerdict(trivial, mean, sup0, spread, lam_spread, lambda_class(lam))


def triviality_check(s: SolitonStructure, points, tol: float = 1e-8) -> TrivialityVerdict:
    """Trivial iff X is homothetic (L_X g = c g, c constant) and the structure
    is an honest soliton (lambda constant).

    Homothety is tested as vanishing traceless part of ½ L_X g plus relative
    spread of the candidate constant (2/n) div X below 1e-6.  A structure with
    varying lambda counts as nontrivial even when X is homothetic: the flat
    gradient example has X = 2x but is a genuinely non-Einstein almost
    structure, and its source labels it nontrivial on those grounds.
    """
    return triviality_verdict(s, geo.gnorms(s.metric, triviality_fields(s), points), tol)


class ConformalVerdict:
    def __init__(self, conformal: bool, sup_traceless: float, rho_samples: np.ndarray,
                 rho: ScalarField, traceless_part: SymTensorField, points: np.ndarray,
                 residuals: np.ndarray):
        self.conformal = conformal
        self.sup_traceless = sup_traceless
        self.rho_samples = rho_samples
        self.rho = rho
        self.traceless_part = traceless_part
        self.points = points
        self.residuals = residuals


def conformal_killing_check(g: MetricField, X: VectorField, points,
                            tol: float = 1e-8) -> ConformalVerdict:
    """Does L_X g = 2 rho g hold?  Passes iff the traceless part of ½ L_X g
    vanishes at the points; the conformal factor is rho = div X / n."""
    pts = geo.points_array(points)
    n = g.chart.dim
    S0 = geo.traceless(g, geo.half_lie_derivative_metric(g, X))
    rho = ScalarField(g.chart, ex.div(geo.divergence_vector(g, X).expr, ex.const(n)))
    norms, rho_vals = geo.gnorms(g, [S0.comps, rho.expr], pts)
    sup0 = float(np.max(norms))
    return ConformalVerdict(sup0 <= tol, sup0, rho_vals, rho, S0, pts, norms)


@lru_cache(maxsize=None)
def conformal_factor_check(g: MetricField, rho: ScalarField, tol: float = 1e-9):
    """The check Hess rho + (R/(n(n-1))) rho g = 0 (the conformal-factor equation)."""
    n = g.chart.dim
    hess = geo.hessian(g, rho)
    scal = geo.scalar_curvature(g)
    coef = ex.mul(ex.div(scal.expr, ex.const(n * (n - 1))), rho.expr)
    T = geo.sym2(n, lambda i, j: ex.add(hess.comps[i][j], ex.mul(coef, g.comps[i][j])))
    return "conformal-factor-hessian", tol, T


def conformal_factor_hessian_check(g: MetricField, rho: ScalarField, points,
                                   tol: float = 1e-9) -> ResidualReport:
    """g-norm of Hess rho + (R/(n(n-1))) rho g at the points."""
    return run_checks(g, points, [conformal_factor_check(g, rho, tol)])[0]


def potential_from_factor(g: MetricField, rho: ScalarField, points) -> ScalarField:
    """u = -(n(n-1)/R) rho, for constant nonzero scalar curvature.

    The returned potential satisfies ½ L_{grad u} g = rho g on the samples.
    """
    pts = geo.points_array(points)
    n = g.chart.dim
    mean, spread = _mean_spread(geo.eval_scalar(geo.scalar_curvature(g), pts))
    if spread >= 1e-8:
        raise PreconditionError(
            f"scalar curvature is not constant (relative spread {spread:.3e})")
    if abs(mean) <= 1e-10:
        raise PreconditionError("scalar curvature vanishes; no potential of this form")
    return ScalarField(g.chart, ex.mul(ex.const(-n * (n - 1) / mean), rho.expr))


# ---------------------------------------------------------------------------
# structural identities of verified structures


@lru_cache(maxsize=None)
def divric_check(s: SolitonStructure, tol: float = 1e-7):
    """The check of divric_identity_residual."""
    d = derive(s)
    g = s.metric
    n = g.chart.dim
    div_ric0 = geo.divergence_sym2(g, d.ric0)
    lhs1 = ex.nsum(ex.mul(div_ric0.comps[j], d.X.comps[j]) for j in range(n))
    grad_x = geo.covariant_derivative_vector(g, d.X)
    lhs2 = geo.inner_rank2(g, grad_x, d.ric0).expr
    dr = [ex.differentiate(geo.scalar_curvature(g).expr, j) for j in range(n)]
    rhs1 = ex.mul(ex.const((n - 2) / (2.0 * n)),
                  ex.nsum(ex.mul(dr[j], d.X.comps[j]) for j in range(n)))
    s0_sq = geo.inner_rank2(g, d.S0, d.S0).expr
    rhs2 = ex.mul(s.h.expr, s0_sq)
    return "divric-identity", tol, ex.sub(ex.add(lhs1, lhs2), ex.sub(rhs1, rhs2))


def divric_identity_residual(s: SolitonStructure, points, tol: float = 1e-7) -> ResidualReport:
    """|div(Ric0(X)) - (n-2)/(2n) <grad R, X> + h |S0|^2| at the points.

    The left side is expanded as (div Ric0)(X) + <grad X, Ric0>.  Requires the
    structure to satisfy the soliton equation first.
    """
    pre, rep = run_checks(s.metric, points, [soliton_check(s, PRECHECK_TOL),
                                             divric_check(s, tol)])
    rep.metadata["precheck_sup"] = verified_sup(
        pre, "; the divergence identity only holds on verified structures")
    return rep


def neg_form_probe(s: SolitonStructure) -> ex.Expression:
    """h u + m, which vanishes where h = -m/u; PreconditionError, before any
    evaluation, unless the structure declares that form."""
    if s.h_form != FORM_NEG_M_OVER_U:
        raise PreconditionError("this check needs the declared form h = -m/u")
    return ex.add(ex.mul(s.h.expr, s.potential.expr), ex.const(float(s.m)))


def neg_form_m(s: SolitonStructure, probe) -> float:
    """The m of a structure declared h = -m/u, once `probe`, the values of
    neg_form_probe(s) at the points, vanishes there."""
    m = float(s.m)
    dev = float(np.max(np.abs(probe)))
    if dev > 1e-8 * max(1.0, m):
        raise PreconditionError(
            f"declared form h = -m/u is inconsistent with h (deviation {dev:.3e})")
    return m


@lru_cache(maxsize=None)
def mu_scalar_field(s: SolitonStructure) -> ScalarField:
    """lambda u^2 + u lap u + (m-1) |grad u|^2 as a scalar field."""
    g = s.metric
    u = s.potential.expr
    m = float(s.m)
    lap = geo.laplacian(g, s.potential).expr
    grad2 = geo.grad_norm2(g, s.potential).expr
    mu = ex.add(ex.add(ex.mul(s.lam.expr, ex.powi(u, 2)), ex.mul(u, lap)),
                ex.mul(ex.const(m - 1.0), grad2))
    return ScalarField(g.chart, mu)


def mu_report(pts, m: float, lam, mu_vals, tol: float = 1e-9) -> ResidualReport:
    """The report of mu_field from the values of lambda and of mu_scalar_field
    at the points, for a structure whose h = -m/u was checked."""
    lam_mean, lam_spread = _mean_spread(lam)
    if lam_spread >= LAMBDA_SPREAD_TOL:
        raise PreconditionError(
            f"lambda is not constant (relative spread {lam_spread:.3e}); "
            "the conserved quantity needs an h-Ricci soliton")
    mu_mean = float(np.mean(mu_vals))
    return _report("mu-constancy", tol, pts, mu_vals - mu_mean, mu_estimate=mu_mean,
                   lambda_estimate=lam_mean, m=m)


def mu_field(s: SolitonStructure, points, tol: float = 1e-9) -> ResidualReport:
    """Constancy of mu = lambda u^2 + u lap u + (m-1)|grad u|^2.

    Needs the declared form h = -m/u and constant lambda; the report carries
    the mu estimate (mean over points) and the max deviation from it.
    """
    pts = geo.points_array(points)
    dev, lam, mu = geo.gnorms(s.metric, [neg_form_probe(s), s.lam.expr,
                                         mu_scalar_field(s).expr], pts)
    return mu_report(pts, neg_form_m(s, dev), lam, mu, tol)


@lru_cache(maxsize=None)
def eqpprinc_check(s: SolitonStructure, tol: float = 1e-8):
    """The check of eqpprinc_residual, for h = -m/u with the structure's m."""
    g = s.metric
    n = g.chart.dim
    m = float(s.m)
    u = s.potential.expr
    u2 = ex.powi(u, 2)
    lap = geo.laplacian(g, s.potential).expr
    grad2 = geo.grad_norm2(g, s.potential).expr
    phi = ex.sub(ex.sub(ex.mul(ex.const((n - 2) / m), ex.mul(u2, s.lam.expr)),
                        ex.mul(u, lap)),
                 ex.mul(ex.const(m - 1.0), grad2))
    c2 = ex.const((m + n - 2) / m)
    return "eqpprinc-identity", tol, tuple(
        ex.sub(ex.differentiate(phi, j), ex.mul(ex.mul(c2, s.lam.expr),
                                                ex.differentiate(u2, j)))
        for j in range(n))


def eqpprinc_residual(s: SolitonStructure, points, tol: float = 1e-8) -> ResidualReport:
    """g-norm of the 1-form
    d((n-2)/m u^2 lambda - u lap u - (m-1)|grad u|^2) - ((m+n-2)/m) lambda d(u^2),
    which vanishes on gradient (-m/u)-almost structures."""
    probe = neg_form_probe(s)
    pre, rep, dev = run_checks(s.metric, points, [
        soliton_check(s, PRECHECK_TOL, gradient=True), eqpprinc_check(s, tol)], fields=[probe])
    rep.metadata.update(m=neg_form_m(s, dev), precheck_sup=verified_sup(pre))
    return rep


# ---------------------------------------------------------------------------
# the warped-Einstein construction


def fiber_dimension(s: SolitonStructure) -> int:
    """The fiber dimension of the warped-Einstein construction: the m of the
    base's declared h = -m/u, which must be an integer >= 2."""
    if s.h_form != FORM_NEG_M_OVER_U:
        raise PreconditionError("the warped-Einstein construction needs the "
                                "declared form h = -m/u")
    if not (float(s.m).is_integer() and s.m >= 2):
        raise ValueError(f"fiber dimension m must be an integer >= 2, got {s.m:g}")
    return int(s.m)


def warped_einstein_construct(s: SolitonStructure, fiber_dim: int = None,
                              fiber_mu: float = None, *, points=None, count: int = 200,
                              seed: int = 42, tol: float = 1e-8):
    """Build B x_u F^m from a gradient (-m/u)-Ricci soliton and verify Einstein.

    The base fixes the fiber: m is its fiber_dimension, and the fiber is
    Einstein with Ric_F = mu <,>, mu the base's conserved quantity (taken as 0
    within 1e-9), so it is flat, round or scaled hyperbolic by mu's sign.
    fiber_dim and fiber_mu, when given, must match m and mu (within 1e-7).
    lambda must be constant, and the warping u must pass spaces.check_warping.
    The assembled product metric's Ricci tensor is compared against lambda g.
    Returns (WarpedProduct, report).
    """
    m = fiber_dimension(s)
    if fiber_dim is not None and fiber_dim != m:
        raise ValueError(f"fiber dimension {fiber_dim} must equal the m = {m} of the "
                         "declared h = -m/u form")
    pts = geo.points_array(points) if points is not None else default_points(s, count, seed)
    murep = mu_field(s, pts)
    if not murep.passed:
        raise PreconditionError(
            f"conserved quantity is not constant (deviation {murep.sup:.3e})")
    mu_est = murep.metadata["mu_estimate"]
    lam_est = murep.metadata["lambda_estimate"]
    if fiber_mu is not None and abs(mu_est - fiber_mu) > 1e-7:
        raise ValueError(
            f"fiber Einstein constant {fiber_mu:g} does not match the base's "
            f"conserved quantity {mu_est:.12g}")

    meta = {
        "lambda": lam_est, "mu": mu_est, "lambda_positive": lam_est > 0,
        "compactness_note": ("the compact case needs lambda > 0; recorded, "
                             "not enforced"),
    }
    fiber = einstein_fiber(m, mu_est if abs(mu_est) > 1e-9 else 0.0)
    w = sp.make_warped((s.chart, s.metric), fiber, s.potential, seed=seed)
    prod_pts = geo.sample_points(w.chart, len(pts), seed, metric=w.metric)
    prod_ric = geo.ricci(w.metric)
    T = geo.sym2(w.chart.dim, lambda i, j: ex.sub(
        prod_ric.comps[i][j], ex.mul(ex.const(lam_est), w.metric.comps[i][j])))
    return w, run_checks(w.metric, prod_pts, [("warped-einstein", tol, T)], **meta)[0]


def einstein_fiber(dim: int, mu: float):
    """An Einstein fiber with Ric = mu <,>: flat for mu = 0, round for mu > 0,
    scaled hyperbolic for mu < 0."""
    if mu == 0:
        return sp.make_euclidean(dim)
    if mu > 0:
        return sp.make_sphere(dim, math.sqrt((dim - 1) / mu))
    model = sp.make_hyperbolic(dim)
    scale = ex.const((dim - 1) / (-mu))
    comps = geo.sym2(dim, lambda i, j: ex.mul(scale, model.metric.comps[i][j]))
    return (model.chart, MetricField(model.chart, comps))
