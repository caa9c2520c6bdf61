"""A catalog of explicit soliton structures with known closed forms.

Each constructor returns a ready-to-verify structure (or, for the conformal
fields, a vector field plus an expected-failure flag).  EXAMPLES, the one
catalog table, pairs every catalog id with its constructor, its default
parameters, the verdicts its check suite is expected to realize and any
checks of its own.  run_example evaluates a structure's suite and the
entry's checks in one pass (structure_checks) and reports whether all
expectations were met — including the one construction that is supposed to
fail its conformal check and does.  `run_example` and `build_structure` reach
the constructors through one memo on the entry and its resolved parameters,
so a call at new points or a new seed constructs nothing.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

from . import expr as ex
from . import geometry as geo
from . import soliton as so
from . import spaces as sp
from .geometry import Chart, MetricField, ScalarField, VectorField

HESSIAN_EQ_TOL = 1e-9   # |Hess u + k u g| on the pseudo-hyperbolic examples


def _check_m(m) -> float:
    m = float(m)
    if m == 0:
        raise ValueError("m must be nonzero")
    return m


def _c_over_u(metric: MetricField, u_expr, c: float, lam_expr) -> so.SolitonStructure:
    """The gradient structure h = c/u: the form tag takes c's sign, and m = |c|."""
    chart = metric.chart
    return so.SolitonStructure(
        metric, ScalarField(chart, ex.div(ex.const(c), u_expr)),
        ScalarField(chart, lam_expr), potential=ScalarField(chart, u_expr),
        h_form=so.FORM_M_OVER_U if c > 0 else so.FORM_NEG_M_OVER_U, m=abs(c))


def example_space_form(c, n, m, tau) -> so.SolitonStructure:
    """u = tau - c*h_v/n, h = m/u on the curvature-c space form.

    lambda = c(n-1) + (m c^2/(n tau - c h_v)) h_v.  For c = 1 positivity of u
    forces tau > 1/n; for c = -1 the chart gets the predicate u > 0 and the
    admissible region must be nonempty in the sampling box.
    """
    c = int(c)
    if c not in (-1, 1):
        raise ValueError("c must be -1 or 1")
    n = int(n)
    if n < 2:
        raise ValueError("need n >= 2")
    m = _check_m(m)
    tau = float(tau)
    if c == 1 and not tau > 1.0 / n:
        raise ValueError(f"tau = {tau:g} must exceed 1/n = {1.0 / n:g} on the sphere")
    space = sp.make_sphere(n) if c == 1 else sp.make_hyperbolic(n)
    v = (0.0,) * n + (1.0,)
    hv = sp.height_function(space, v).field.expr
    u_expr = ex.sub(ex.const(tau), ex.div(ex.mul(ex.const(float(c)), hv), ex.const(n)))
    chart = space.chart
    if c == -1:
        chart = Chart(chart.coords, chart.box, domain=chart.domain + (u_expr,),
                      params=chart.params)
        try:
            geo.sample_points(chart, 16, 0)
        except geo.SamplingError as err:
            raise ValueError(
                f"tau = {tau:g} leaves no admissible region in the box") from err
    return _c_over_u(MetricField(chart, space.metric.comps), u_expr, m, ex.add(
        ex.const(c * (n - 1.0)),
        ex.div(ex.mul(ex.const(m * c * c), hv),
               ex.sub(ex.const(n * tau), ex.mul(ex.const(float(c)), hv)))))


def example_euclidean_gradient(n, m, tau) -> so.SolitonStructure:
    """u = tau + |x|^2, h = m/u, lambda = 2m/u on flat space; tau > 0."""
    n = int(n)
    m = _check_m(m)
    tau = float(tau)
    if not tau > 0:
        raise ValueError("tau must be positive")
    E = sp.make_euclidean(n)
    u_expr = ex.add(ex.const(tau),
                    ex.nsum(ex.powi(ex.coord(i), 2) for i in range(n)))
    return _c_over_u(E.metric, u_expr, m, ex.div(ex.const(2.0 * m), u_expr))


def example_euclidean_claimed_conformal(n):
    """The field (x_n x_1, ..., x_n x_{n-1}, x_n^2/2) on flat space.

    Claimed conformal; it is not: the traceless part of half the Lie
    derivative has (i,n) entries x_i/2.  Returned with an expected-failure
    flag so the catalog records the discrepancy instead of hiding it.
    """
    n = int(n)
    E = sp.make_euclidean(n)
    xn = ex.coord(n - 1)
    comps = [ex.mul(xn, ex.coord(i)) for i in range(n - 1)]
    comps.append(ex.mul(ex.const(0.5), ex.powi(xn, 2)))
    return VectorField(E.chart, comps), True


def example_euclidean_corrected_conformal(n):
    """The special-conformal repair <x,e_n> x - (|x|^2/2) e_n.

    First n-1 components agree with the claimed field; the last becomes
    x_n^2 - |x|^2/2.  Genuinely conformal with factor rho = x_n.  Marked
    non-failure.  A repair supplied by this tool, not part of the source
    catalog the claimed field was copied from.
    """
    n = int(n)
    E = sp.make_euclidean(n)
    xn = ex.coord(n - 1)
    norm2 = ex.nsum(ex.powi(ex.coord(i), 2) for i in range(n))
    comps = [ex.mul(xn, ex.coord(i)) for i in range(n - 1)]
    comps.append(ex.sub(ex.powi(xn, 2), ex.mul(ex.const(0.5), norm2)))
    return VectorField(E.chart, comps), False


def _pseudo_hyperbolic_base(n, k, A, l):
    """Line chart, profile f, and potential u = sign(A) f'/s for R x_f F.

    For l = 0 the potential coincides with f and is positive on all of R; for
    l > 0 it is positive only past the zero of f' at t0 = artanh(-A/sqrt(A^2+l))/s,
    so the box moves to a half-line segment on the positive side and the chart
    carries the predicate u > 0.
    """
    s = math.sqrt(-k)
    if l > 0:
        r = -A / math.sqrt(A * A + l)
        if abs(r) >= 1.0:
            raise ValueError(f"l = {l:g} is below the rounding of A^2 = {A * A:g}, so f' "
                             "has no zero to bound the box; give l = 0 or a larger l")
        t0 = math.atanh(r) / s
        box = (t0 + 0.15, t0 + 2.15) if A > 0 else (t0 - 2.15, t0 - 0.15)
    else:
        box = (-1.5, 1.5)
    f = sp.warping_solution(k, A, l, box=box)
    u_expr = ex.mul(ex.const(math.copysign(1.0, A) / s),
                    ex.differentiate(f.expr, 0))
    chart = f.chart
    if l > 0:
        chart = Chart(chart.coords, chart.box, domain=(u_expr,))
        f = ScalarField(chart, f.expr)
    return chart, f, u_expr


@lru_cache(maxsize=None)
def pseudo_hyperbolic_product(n, k, A, l):
    """The warped space R x_f F^{n-1} itself, plus its potential expression.

    Memoized on (n, k, A, l), as `check-identity oneill` calls it directly:
    a repeated call samples no warping check and builds nothing.
    """
    n = int(n)
    if n < 3:
        raise ValueError("need n >= 3 (the fiber needs dimension >= 2)")
    k, A, l = float(k), float(A), float(l)
    if not k < 0:
        raise ValueError("k must be negative")
    if A == 0:
        raise ValueError("A must be nonzero")
    if l < 0:
        raise ValueError("l must be nonnegative")
    chart, f, u_expr = _pseudo_hyperbolic_base(n, k, A, l)
    fiber = so.einstein_fiber(n - 1, -(n - 2) * l)
    return sp.make_warped((chart, sp.line_metric(chart)), fiber, f), u_expr


def example_pseudo_hyperbolic(n, k, A, l, m=None, h_expr=None) -> so.SolitonStructure:
    """Gradient structure on R x_f F^{n-1} with f'' + k f = 0, (f')^2 + k f^2 = -l.

    The fiber is flat for l = 0 and hyperbolic (rescaled to Einstein constant
    -(n-2)l) for l > 0.  The potential u satisfies Hess u + k u g = 0.  With
    the default h = -m/u the soliton function is the constant (n+m-1)k; an
    explicit h_expr (in the product coordinates, e.g. "sinh(t)") gives the
    h-almost structure with lambda = (n-1)k - h k u.
    """
    W, u_expr = pseudo_hyperbolic_product(n, k, A, l)
    n, k = int(n), float(k)
    if h_expr is None:
        m = _check_m(m)
        return _c_over_u(W.metric, u_expr, -m, ex.const((n + m - 1) * k))
    h_e = W.chart.parse(h_expr) if isinstance(h_expr, str) else h_expr
    lam = ScalarField(W.chart, ex.sub(
        ex.const((n - 1) * k), ex.mul(h_e, ex.mul(ex.const(k), u_expr))))
    return so.SolitonStructure(W.metric, ScalarField(W.chart, h_e), lam,
                               potential=ScalarField(W.chart, u_expr))


def example_neg_m_sphere(n, m, a, b) -> so.SolitonStructure:
    """u = a h_v + b with b > |a| on the round sphere; h = -m/u.

    lambda = (n-1) + m a h_v/(a h_v + b) is non-constant whenever a != 0, so
    this is a genuinely almost structure.
    """
    n = int(n)
    m = _check_m(m)
    if not m > 0:
        raise ValueError("m must be positive for the -m/u form")
    a, b = float(a), float(b)
    if not b > abs(a):
        raise ValueError(f"need b > |a| for a positive potential (got a={a:g}, b={b:g})")
    S = sp.make_sphere(n)
    hv = sp.height_function(S, (0.0,) * n + (1.0,)).field.expr
    u_expr = ex.add(ex.mul(ex.const(a), hv), ex.const(b))
    return _c_over_u(S.metric, u_expr, -m, ex.add(
        ex.const(n - 1.0), ex.div(ex.mul(ex.const(m * a), hv), u_expr)))


# ---------------------------------------------------------------------------
# registry and suite runner


def _hessian_equation(s: so.SolitonStructure, p: dict) -> list:
    """Hess u + k u g = 0 characterizes the pseudo-hyperbolic potential."""
    g, ku = s.metric, ex.mul(ex.const(float(p["k"])), s.potential.expr)
    hess = geo.hessian(g, s.potential)
    T = geo.sym2(g.chart.dim, lambda i, j: ex.add(
        hess.comps[i][j], ex.mul(ku, g.comps[i][j])))
    return [("potential-hessian-equation", HESSIAN_EQ_TOL, T)]


def _pseudo_hyperbolic_class(p: dict):
    """With h = -m/u, lambda is the constant (n+m-1)k; a free h sets no class."""
    if p["h_expr"] is not None:
        return None
    return so.lambda_class((p["n"] + p["m"] - 1) * p["k"])


class ExampleSpec(geo.Frozen):
    """One catalog entry: how to build it and what its suite must show.

    A structure entry's constructor returns a SolitonStructure; any other
    returns a flat-space vector field and whether its conformal check is
    expected to fail.  For a structure, `classification` and `trivial` map
    the parameters to the expected verdicts, and `checks` maps the structure
    and parameters to the entry's own (name, tol, residual) checks.
    """
    _fields = ("example_id", "build", "defaults", "structure", "classification",
               "trivial", "checks", "exclusive")

    def __init__(self, example_id: str, build: Callable,
                 defaults: tuple,                             # ((name, value), ...)
                 structure: bool = True,
                 classification: Callable = lambda p: None,   # None: any class
                 trivial: Callable = lambda p: False,
                 checks: Callable = lambda s, p: (),
                 exclusive: tuple = ()):                      # parameter pairs not both given
        vars(self).update(example_id=example_id, build=build, defaults=defaults,
                          structure=structure, classification=classification,
                          trivial=trivial, checks=checks, exclusive=exclusive)

    def params(self, overrides=None) -> dict:
        p = dict(self.defaults)
        given = {k: v for k, v in (overrides or {}).items() if v is not None}
        for key in given:
            if key not in p:
                raise ValueError(f"unknown parameter {key!r} for {self.example_id}")
        for a, b in self.exclusive:
            if a in given and b in given:
                raise ValueError(f"{self.example_id} takes {a!r} or {b!r}, not both")
        p.update(given)
        return p


EXAMPLES = {spec.example_id: spec for spec in (
    ExampleSpec("space-form-gradient", example_space_form,
                (("c", 1), ("n", 3), ("m", 2.0), ("tau", 1.0))),
    ExampleSpec("euclidean-gradient", example_euclidean_gradient,
                (("n", 3), ("m", 3.0), ("tau", 1.0)),
                classification=lambda p: "shrinking" if p["m"] > 0 else "expanding"),
    ExampleSpec("euclidean-conformal-claimed", example_euclidean_claimed_conformal,
                (("n", 3),), structure=False),
    ExampleSpec("euclidean-conformal-corrected", example_euclidean_corrected_conformal,
                (("n", 3),), structure=False),
    ExampleSpec("pseudo-hyperbolic", example_pseudo_hyperbolic,
                (("n", 3), ("k", -1.0), ("A", 1.0), ("l", 0.0), ("m", 2.0),
                 ("h_expr", None)),
                classification=_pseudo_hyperbolic_class, checks=_hessian_equation,
                exclusive=(("m", "h_expr"),)),
    # at a = 0 the potential is constant, and the structure trivial
    ExampleSpec("neg-m-sphere", example_neg_m_sphere,
                (("n", 3), ("m", 2.0), ("a", 1.0), ("b", 2.0)),
                trivial=lambda p: p["a"] == 0),
)}


def _spec(example_id: str) -> ExampleSpec:
    if example_id not in EXAMPLES:
        known = ", ".join(sorted(EXAMPLES))
        raise ValueError(f"unknown example {example_id!r} (known: {known})")
    return EXAMPLES[example_id]


@lru_cache(maxsize=None)
def _construct(example_id: str, params: tuple):
    """The construction of catalog entry example_id at its resolved
    (name, value) parameters: a frozen structure, or a frozen vector field
    and its expected-failure flag.  Memoized, so a call at new points or a
    new seed builds nothing; the memo grows per distinct parameter set."""
    return EXAMPLES[example_id].build(**dict(params))


def build_structure(example_id: str, params=None) -> so.SolitonStructure:
    """The soliton structure of a catalog entry, defaults overridden by params."""
    spec = _spec(example_id)
    if not spec.structure:
        raise ValueError(f"example {example_id!r} carries no soliton structure")
    return _construct(example_id, tuple(spec.params(params).items()))


class ExampleRun:
    """run_example's result: the entry and its parameters, which run_example
    fills in with its reports, verdicts, structure and notes."""

    def __init__(self, example_id: str, params: dict):
        self.example_id, self.params = example_id, params
        self.checks, self.notes, self.passed = [], [], False
        self.classification = self.trivial = self.triviality = self.structure = None


def structure_checks(s: so.SolitonStructure, pts, tol: float, divric: bool = True,
                     checks=()):
    """The declared suite for a structure, then the entry's own `checks`,
    and its triviality verdict, from one so.run_checks call: (reports,
    TrivialityVerdict).  The call evaluates the defining residual(s) at
    `tol`, the identities the form makes applicable, `checks`, and the
    fields the rest is decided from: the verdict's, and for h = -m/u the
    probe h u + m and mu.  The identities are reported only when the soliton
    residual passes; their prechecks read the defining reports, and
    mu-constancy joins them when the verdict finds lambda constant.
    `divric=False` leaves the divergence identity out (the manifest report
    does not list it).
    """
    pts = geo.points_array(pts)
    defining = [so.soliton_check(s, tol)]
    if s.is_gradient:
        defining.append(so.soliton_check(s, tol, gradient=True))
    identities = [so.divric_check(s)] if divric else []
    fields = so.triviality_fields(s)
    neg = s.h_form == so.FORM_NEG_M_OVER_U
    if neg:
        identities.append(so.eqpprinc_check(s))
        fields += [so.neg_form_probe(s), so.mu_scalar_field(s).expr]
    out = so.run_checks(s.metric, pts, [*defining, *identities, *checks], fields=fields)
    k, j = len(defining), len(defining) + len(identities)
    reports, found, own, vals = out[:k], out[k:j], out[j:-len(fields)], out[-len(fields):]
    verdict = so.triviality_verdict(s, vals[:3], tol)
    if not reports[0].passed:
        return reports + own, verdict
    if divric:
        found[0].metadata["precheck_sup"] = reports[0].sup
    if neg:
        m = so.neg_form_m(s, vals[3])
        found[-1].metadata.update(precheck_sup=so.verified_sup(reports[1]), m=m)
        if verdict.lambda_spread < so.LAMBDA_SPREAD_TOL:  # listed before eqpprinc-identity
            found.insert(len(found) - 1, so.mu_report(pts, m, vals[2], vals[4]))
    return reports + found + own, verdict


def run_example(example_id: str, params=None, count: int = 200,
                tol: float = 1e-8, seed: int = 42) -> ExampleRun:
    """Build the catalog entry, run its suite, and compare against the
    expected verdicts (an expected failure that fails counts as success)."""
    spec = _spec(example_id)
    p = spec.params(params)
    run = ExampleRun(example_id, p)
    expect_fail, missed = (), []
    built = _construct(example_id, tuple(p.items()))

    if not spec.structure:
        X, expect_failure = built
        g = sp.make_euclidean(int(p["n"])).metric
        pts = geo.sample_points(g.chart, count, seed)
        verdict = so.conformal_killing_check(g, X, pts, tol)
        run.checks.append(so._report("conformal-killing", tol, pts, verdict.residuals))
        if expect_failure:
            expect_fail = ("conformal-killing",)
            run.notes.append("conformal claim does not hold; failure expected")
    else:
        s = built
        pts = so.default_points(s, count, seed)
        run.structure = s
        run.checks, tv = structure_checks(s, pts, tol, checks=spec.checks(s, p))
        run.triviality, run.trivial, run.classification = tv, tv.trivial, tv.classification
        want = spec.classification(p)
        if want is not None and run.classification != want:
            missed.append(f"classification {run.classification!r}, expected {want!r}")
        if run.trivial != spec.trivial(p):
            missed.append(f"triviality {run.trivial}, expected {spec.trivial(p)}")

    run.notes += missed
    run.passed = not missed and all(rep.passed != (rep.name in expect_fail)
                                    for rep in run.checks)
    return run
