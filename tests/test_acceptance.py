# acceptance gate: eleven end-to-end criteria, one test (and one verdict
# line) each.  Tolerances are pinned here on purpose; do not loosen them.

import json
import time

import numpy as np

from solitonlab import cli
from solitonlab import examples as exm
from solitonlab import expr as ex
from solitonlab import geometry as geo
from solitonlab import identities as idn
from solitonlab import soliton as so
from solitonlab import spaces as sp


def _line(num, desc, ok):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_space_form_soliton_residual():
    t0 = time.perf_counter()
    s = exm.example_space_form(c=1, n=3, m=2.0, tau=1.0)
    pts = so.default_points(s, count=200, seed=42)
    rep = so.soliton_residual(s, pts, tol=1e-8)
    grad = so.gradient_soliton_residual(s, pts, tol=1e-8)
    elapsed = time.perf_counter() - t0
    _line(1, "space-form gradient structure solves the fundamental equation "
             f"(sup {rep.sup:.2e} over 200 samples, {elapsed:.1f}s)",
          rep.passed and grad.passed and len(pts) == 200 and elapsed < 10.0)


def test_criterion_02_euclidean_gradient_shrinking():
    s = exm.example_euclidean_gradient(n=3, m=3.0, tau=1.0)
    pts = so.default_points(s, count=200, seed=42)
    rep = so.gradient_soliton_residual(s, pts, tol=1e-10)
    cls = so.classify_lambda(s, pts)
    _line(2, f"flat-space gradient structure (sup {rep.sup:.2e} < 1e-10, "
             f"classified {cls})",
          rep.passed and cls == "shrinking")


def test_criterion_03_height_function_hessian():
    space = sp.make_sphere(3, 1.0)
    hf = sp.height_function(space, (0.0, 0.0, 0.0, 1.0))
    pts = so.default_points(space.chart, count=200, seed=42)
    hess = geo.hessian(space.metric, hf.field)
    n = 3
    T = [[ex.add(hess.comps[i][j], ex.mul(hf.field.expr, space.metric.comps[i][j]))
          for j in range(n)] for i in range(n)]
    _, ginv = geo.eval_metric(space.metric, pts)
    tv = geo.eval_sym2_comps(T, pts)
    sup = float(np.max(geo.gnorm_sym2(tv, ginv)))
    _line(3, f"height-function Hessian equation on the unit 3-sphere "
             f"(sup {sup:.2e} < 1e-9)", sup < 1e-9)


def test_criterion_04_oneill_oracle():
    base = sp.line_metric()
    f = geo.ScalarField(base.chart, ex.exp(ex.coord(0)))
    w = sp.make_warped((base.chart, base), sp.make_euclidean(2), f)
    ric = geo.ricci(w.metric)
    pts = geo.points_array(geo.sample_points(w.chart, 100, seed=42))
    rv = geo.eval_sym2_comps(ric.comps, pts)
    gv = geo.eval_sym2_comps(w.metric.comps, pts)
    worst_formula = worst_einstein = 0.0
    for a, p in enumerate(pts):
        formulas = sp.oneill_ricci(w, p)
        worst_formula = max(worst_formula, float(np.max(np.abs(rv[a] - formulas))))
        worst_einstein = max(worst_einstein, float(np.max(np.abs(rv[a] + 2.0 * gv[a]))))
    _line(4, "direct Ricci of the exponentially warped line agrees with the "
             f"product formulas ({worst_formula:.2e}) and with -2g "
             f"({worst_einstein:.2e}), both < 1e-9",
          worst_formula < 1e-9 and worst_einstein < 1e-9)


def test_criterion_05_conserved_quantity_and_first_integral():
    s = exm.example_pseudo_hyperbolic(3, -1.0, 1.0, 0.0, m=2.0)
    pts = so.default_points(s, count=200, seed=42)
    rep = so.mu_field(s, pts, tol=1e-9)
    mu_zero = abs(rep.metadata["mu_estimate"]) < 1e-9
    # independent first-integral oracle in plain numpy: with k=-1, A=1, l=0
    # the profile is e^t, so (f')^2 + k f^2 must vanish
    t = np.linspace(-1.5, 1.5, 201)
    fv = np.sinh(t) + np.cosh(t)
    dfv = np.cosh(t) + np.sinh(t)
    oracle = float(np.max(np.abs(dfv ** 2 - fv ** 2)))
    _line(5, f"conserved quantity constant at 0 (deviation {rep.sup:.2e} < 1e-9) "
             f"and the raw first integral holds ({oracle:.2e} < 1e-12)",
          rep.passed and mu_zero and oracle < 1e-12)


def test_criterion_06_one_form_identity_neg_m_sphere():
    s = exm.example_neg_m_sphere(n=3, m=2.0, a=1.0, b=2.0)
    pts = so.default_points(s, count=200, seed=42)
    rep = so.eqpprinc_residual(s, pts, tol=1e-8)
    _line(6, "structural 1-form identity on the sphere example "
             f"(sup {rep.sup:.2e} < 1e-8)", rep.passed)


def test_criterion_07_warped_einstein_construction():
    s = exm.example_pseudo_hyperbolic(3, -1.0, 1.0, 0.0, m=2.0)
    w, rep = so.warped_einstein_construct(s, 2, 0.0, count=200, seed=42, tol=1e-8)
    lam = rep.metadata["lambda"]
    # direct spot check: Ric of the 5-dim product equals -4 g
    pts = geo.points_array(geo.sample_points(w.chart, 50, seed=42, metric=w.metric))
    rv = geo.eval_sym2_comps(geo.ricci(w.metric).comps, pts)
    gv = geo.eval_sym2_comps(w.metric.comps, pts)
    direct = float(np.max(np.abs(rv + 4.0 * gv)))
    _line(7, f"5-dimensional warped product is Einstein with lambda = {lam:g} "
             f"(report sup {rep.sup:.2e}, direct check {direct:.2e}, both < 1e-8)",
          rep.passed and w.dim == 5 and abs(lam + 4.0) < 1e-12 and direct < 1e-8)


def test_criterion_08_universal_identity_suites():
    t0 = time.perf_counter()
    metrics = idn.suite_metrics(dim=3, metric_count=20, seed=7)
    reports = (idn.bianchi_suite(metric_count=20, point_count=100, metrics=metrics)
               + idn.fg_formulas_suite(metric_count=20, point_count=100,
                                       metrics=metrics)
               + idn.lemma21_suite(metric_count=20, point_count=100,
                                   metrics=metrics))
    elapsed = time.perf_counter() - t0
    ok = all(r.passed and r.sup < 1e-7 for r in reports)
    worst = max(r.sup for r in reports)
    _line(8, f"{len(reports)} identity suites over 20 random metrics x 100 "
             f"points (worst sup {worst:.2e} < 1e-7, {elapsed:.1f}s < 60s)",
          ok and len(reports) == 6 and elapsed < 60.0)


def test_criterion_09_conformal_field_discrepancy():
    E = sp.make_euclidean(3)
    pts = so.default_points(E.chart, count=200, seed=42)
    claimed, expect_failure = exm.example_euclidean_claimed_conformal(3)
    v_claimed = so.conformal_killing_check(E.metric, claimed, pts, tol=1e-8)
    # the obstruction itself: traceless (i, n) entries are exactly x_i/2
    entry_dev = 0.0
    for i in range(2):
        vals = ex.eval_many([v_claimed.traceless_part.comps[i][2]], pts)[0]
        entry_dev = max(entry_dev, float(np.max(np.abs(vals - pts[:, i] / 2.0))))
    corrected, _ = exm.example_euclidean_corrected_conformal(3)
    v_fixed = so.conformal_killing_check(E.metric, corrected, pts, tol=1e-8)
    rho_dev = float(np.max(np.abs(v_fixed.rho_samples - pts[:, 2])))
    _line(9, "claimed conformal field fails with the predicted traceless "
             f"entries x_i/2 ({entry_dev:.2e} < 1e-10) while the corrected "
             f"field passes with factor x_n ({rho_dev:.2e})",
          expect_failure and not v_claimed.conformal and entry_dev < 1e-10
          and v_fixed.conformal and rho_dev < 1e-9)


def test_criterion_10_conformal_factor_equation():
    space = sp.make_sphere(3, 1.0)
    hf = sp.height_function(space, (0.0, 0.0, 0.0, 1.0))
    pts = so.default_points(space.chart, count=200, seed=42)
    Rv = geo.eval_scalar(geo.scalar_curvature(space.metric), pts)
    rep = so.conformal_factor_hessian_check(space.metric, hf.field, pts, tol=1e-9)
    u = so.potential_from_factor(space.metric, hf.field, pts)
    u_is_minus_hv = float(np.max(np.abs(
        geo.eval_scalar(u, pts) + geo.eval_scalar(hf.field, pts))))
    # ½ L_{grad u} g = rho g, measured in the g-norm
    S = geo.lie_derivative_metric(space.metric, geo.gradient(space.metric, u))
    n = 3
    T = [[ex.sub(ex.mul(ex.const(0.5), S.comps[i][j]),
                 ex.mul(hf.field.expr, space.metric.comps[i][j]))
          for j in range(n)] for i in range(n)]
    _, ginv = geo.eval_metric(space.metric, pts)
    tv = geo.eval_sym2_comps(T, pts)
    lie_dev = float(np.max(geo.gnorm_sym2(tv, ginv)))
    _line(10, f"conformal-factor equation on the unit 3-sphere (R = 6, residual "
              f"{rep.sup:.2e} < 1e-9) and its potential u = -h_v reproduces the "
              f"factor ({lie_dev:.2e} < 1e-9)",
          rep.passed and float(np.max(np.abs(Rv - 6.0))) < 1e-9
          and u_is_minus_hv < 1e-12 and lie_dev < 1e-9)


def test_criterion_11_byte_identical_reports(capsys):
    outputs = []
    for argv in (["verify-example", "neg-m-sphere", "--points", "60"],
                 ["check-identity", "bianchi", "--random-metrics", "4",
                  "--points", "30"]):
        runs = []
        for _ in range(2):
            code = cli.main(list(argv))
            runs.append(capsys.readouterr().out)
            assert code == 0
        outputs.append(runs)
    ok = all(a == b and json.loads(a) for a, b in outputs)
    _line(11, "repeated CLI runs with identical flags emit byte-identical "
              "JSON reports", ok)
