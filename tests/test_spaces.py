# model spaces, height functions, warped products, warping profiles

import math

import numpy as np
import pytest

from solitonlab import examples as exm
from solitonlab import expr as ex
from solitonlab import geometry as geo
from solitonlab import spaces as sp


def test_model_space_constructors_validate():
    with pytest.raises(ValueError):
        sp.make_euclidean(1)
    with pytest.raises(ValueError):
        sp.make_sphere(3, 0.0)
    with pytest.raises(ValueError):
        sp.make_hyperbolic(1)


def test_sphere_embedding_lands_on_sphere():
    space = sp.make_sphere(3, 2.0)
    emb = sp.sphere_embedding(space)
    pts = np.random.default_rng(0).uniform(-3.0, 3.0, size=(30, 3))
    vals = ex.eval_many(list(emb), pts)
    np.testing.assert_allclose(np.sum(vals ** 2, axis=0), 4.0, atol=1e-12)


def test_hyperboloid_embedding_minkowski_norm():
    space = sp.make_hyperbolic(3)
    emb = sp.hyperboloid_embedding(space)
    pts = geo.points_array(geo.sample_points(space.chart, 30, seed=3))
    vals = ex.eval_many(list(emb), pts)
    mink = np.sum(vals[:-1] ** 2, axis=0) - vals[-1] ** 2
    np.testing.assert_allclose(mink, -1.0, atol=1e-11)
    assert np.all(vals[-1] >= 1.0)  # upper sheet


def test_height_function_direction_validation():
    s3 = sp.make_sphere(3, 1.0)
    with pytest.raises(ValueError):
        sp.height_function(s3, (1.0, 0.0, 0.0))  # wrong length
    with pytest.raises(ValueError):
        sp.height_function(s3, (2.0, 0.0, 0.0, 0.0))  # not unit
    h3 = sp.make_hyperbolic(3)
    with pytest.raises(ValueError):
        sp.height_function(h3, (0.0, 0.0, 1.0, 0.0))  # Minkowski norm +1
    with pytest.raises(ValueError):
        sp.height_function(sp.make_euclidean(3), (0, 0, 0, 1))


def test_height_function_tilted_direction():
    # Hessian equation holds for any admissible direction, not only poles
    space = sp.make_sphere(2, 1.0)
    v = np.array([1.0, 2.0, 2.0]) / 3.0
    hf = sp.height_function(space, tuple(v))
    hess = geo.hessian(space.metric, hf.field)
    pts = geo.points_array(geo.sample_points(space.chart, 30, seed=9))
    hv = geo.eval_sym2_comps(hess.comps, pts)
    hval = geo.eval_scalar(hf.field, pts)
    gv = geo.eval_sym2_comps(space.metric.comps, pts)
    assert np.max(np.abs(hv + hval[:, None, None] * gv)) < 1e-9
    assert np.max(np.abs(hval)) <= 1.0 + 1e-12


def test_warping_solution_constraints():
    with pytest.raises(ValueError):
        sp.warping_solution(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        sp.warping_solution(-1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        sp.warping_solution(-1.0, 1.0, -2.0)


@pytest.mark.parametrize("k,A,l", [(-1.0, 1.0, 0.0), (-1.0, -2.0, 0.0),
                                   (-4.0, 2.0, 3.0), (-0.5, 1.5, 1.0)])
def test_warping_solution_odes(k, A, l):
    f = sp.warping_solution(k, A, l)
    chart = f.chart
    t = np.linspace(-1.5, 1.5, 61).reshape(-1, 1)
    fv = ex.eval_many([f.expr], t)[0]
    assert np.all(fv > 0.0)
    df = ex.differentiate(f.expr, 0)
    ddf = ex.differentiate(df, 0)
    ode = ex.eval_many([ddf], t)[0] + k * fv
    assert np.max(np.abs(ode)) < 1e-11
    # first integral, checked with raw numpy against the closed form
    s = math.sqrt(-k)
    B = math.sqrt((A * A + l) / -k)
    tt = t[:, 0]
    fv_np = (A / s) * np.sinh(s * tt) + B * np.cosh(s * tt)
    dfv_np = A * np.cosh(s * tt) + B * s * np.sinh(s * tt)
    np.testing.assert_allclose(fv, fv_np, atol=1e-12)
    first = ex.eval_many([df], t)[0] ** 2 + k * fv ** 2
    assert np.max(np.abs(first + l)) < 1e-11
    assert np.max(np.abs(dfv_np ** 2 + k * fv_np ** 2 + l)) < 1e-11


def test_line_chart_and_metric():
    c = sp.line_chart((0.0, 2.0))
    assert c.coords == ("t",)
    assert c.box == ((0.0, 2.0),)
    g = sp.line_metric(c)
    assert g.comps[0][0] is ex.ONE


def test_make_warped_block_structure():
    base = sp.line_metric()
    f = geo.ScalarField(base.chart, ex.exp(ex.coord(0)))
    w = sp.make_warped((base.chart, base), sp.make_euclidean(2), f)
    assert w.dim == 3
    assert w.chart.coords == ("t", "x1", "x2")
    # no cross terms, fiber block carries f^2
    pt = np.array([[0.3, 0.1, -0.2]])
    gv = geo.eval_sym2_comps(w.metric.comps, pt)[0]
    assert gv[0, 1] == 0.0 and gv[0, 2] == 0.0
    assert gv[0, 0] == 1.0
    e2t = math.exp(0.6)
    np.testing.assert_allclose(gv[1:, 1:], e2t * np.eye(2), atol=1e-14)


def test_make_warped_renames_colliding_fiber_coords():
    base = sp.make_euclidean(2)
    f = geo.ScalarField(base.chart, ex.add(ex.const(2.0), ex.powi(ex.coord(0), 2)))
    w = sp.make_warped(base, sp.make_euclidean(2), f)
    assert w.chart.coords == ("x1", "x2", "y1", "y2")


def test_make_warped_propagates_domains():
    base = sp.make_hyperbolic(2)  # domain x2 > 0
    f = geo.ScalarField(base.chart, ex.coord(1))
    w = sp.make_warped(base, sp.make_hyperbolic(2), f)
    # base predicate stays at slot 1, fiber predicate shifts to slot 3
    assert len(w.chart.domain) == 2
    pts = geo.sample_points(w.chart, 40, seed=0)
    assert pts.shape == (40, 4)
    assert np.all(pts[:, 1] > 0) and np.all(pts[:, 3] > 0)


def fiber_with_a_parameter():
    chart = geo.Chart(("x1", "x2"), ((-1.0, 1.0), (-1.0, 1.0)), params=(("a", 0.7),),
                      domain=(ex.parse_expression("a + x2", ("x1", "x2"), ("a",)),))
    P = chart.parse
    return chart, geo.MetricField(chart, geo.sym_rows([P("1 + a*x1^2"), P("a*x1*x2"),
                                                       P("2 - x2")]))


@pytest.mark.parametrize("fiber", [lambda: sp.make_sphere(3, 1.7),
                                   lambda: sp.make_hyperbolic(2), fiber_with_a_parameter],
                         ids=["round-1.7", "hyperbolic", "parameter"])
def test_make_warped_reads_the_fiber_at_the_product_fiber_columns(fiber):
    base = sp.make_euclidean(2)
    f = geo.ScalarField(base.chart, ex.add(ex.const(2.0), ex.powi(ex.coord(0), 2)))
    fiber_chart, fiber_metric = sp._as_chart_metric(fiber())
    w = sp.make_warped(base, fiber(), f)
    nb, m = base.dim, fiber_chart.dim
    assert w.chart.coords == base.chart.coords + tuple(f"y{i + 1}" for i in range(m))
    assert w.chart.params == fiber_chart.params
    pts = geo.sample_points(w.chart, 50, seed=3, metric=w.metric)
    fiber_domain = w.chart.domain[len(base.chart.domain):]
    prod, shifted = geo.eval_tensors(w.chart, [w.metric.comps, fiber_domain], pts)
    (f2,) = geo.eval_tensors(base.chart, [ex.powi(f.expr, 2)], pts[:, :nb])
    own, preds = geo.eval_tensors(fiber_chart, [fiber_metric.comps, fiber_chart.domain],
                                  pts[:, nb:])
    # every fiber-block entry is f^2 times the fiber's entry at columns nb + i, bit for bit
    assert np.array_equal(prod[:, nb:, nb:], f2[:, None, None] * own)
    assert not prod[:, :nb, nb:].any()
    assert np.array_equal(shifted, preds)


def test_make_warped_rejects_nonpositive_warping():
    base = sp.make_euclidean(2)
    f = geo.ScalarField(base.chart, ex.coord(0))  # changes sign on the box
    with pytest.raises(geo.GeometryError, match="non-positive warping"):
        sp.make_warped(base, sp.make_euclidean(2), f)
    g = geo.ScalarField(sp.line_chart(), ex.ONE)
    with pytest.raises(ValueError, match="base chart"):
        sp.make_warped(base, sp.make_euclidean(2), g)


def test_oneill_matches_direct_ricci_exponential_line():
    # R x_{e^t} R^2 is Einstein with Ric = -2g
    base = sp.line_metric()
    f = geo.ScalarField(base.chart, ex.exp(ex.coord(0)))
    w = sp.make_warped((base.chart, base), sp.make_euclidean(2), f)
    ric = geo.ricci(w.metric)
    pts = geo.points_array(geo.sample_points(w.chart, 25, seed=11))
    rv = geo.eval_sym2_comps(ric.comps, pts)
    gv = geo.eval_sym2_comps(w.metric.comps, pts)
    for a, p in enumerate(pts):
        formulas = sp.oneill_ricci(w, p)
        np.testing.assert_allclose(rv[a], formulas, atol=1e-9)
        np.testing.assert_allclose(rv[a], -2.0 * gv[a], atol=1e-9)


def test_oneill_matches_direct_ricci_curved_fiber():
    f = sp.warping_solution(-1.0, 1.0, 3.0)
    w = sp.make_warped((f.chart, sp.line_metric(f.chart)), sp.make_sphere(2, 1.0), f)
    ric = geo.ricci(w.metric)
    pts = geo.points_array(geo.sample_points(w.chart, 15, seed=4))
    rv = geo.eval_sym2_comps(ric.comps, pts)
    for a, p in enumerate(pts):
        np.testing.assert_allclose(rv[a], sp.oneill_ricci(w, p), atol=1e-8)


@pytest.mark.parametrize("params", [{}, {"k": -16.0, "A": 10.0, "l": 4.0}])
def test_oneill_batch_is_bitwise_the_per_point_formula(params):
    p = exm.EXAMPLES["pseudo-hyperbolic"].params(params)
    w, _ = exm.pseudo_hyperbolic_product(p["n"], p["k"], p["A"], p["l"])
    pts = geo.sample_points(w.chart, 200, 42, metric=w.metric)
    batch = sp.oneill_ricci(w, pts)
    assert batch.shape == (200, w.chart.dim, w.chart.dim)
    np.testing.assert_array_equal(batch, [sp.oneill_ricci(w, q) for q in pts])


def test_oneill_batch_on_a_flat_fiber_over_a_3d_base():
    S = sp.make_sphere(3, 1.3)
    x1, x2, x3 = (ex.coord(i) for i in range(3))
    f = geo.ScalarField(S.chart, ex.add(ex.const(2.0),
                                        ex.mul(ex.sin(x1), ex.cos(ex.mul(x2, x3)))))
    w = sp.make_warped(S, sp.make_euclidean(2), f)
    pts = geo.sample_points(w.chart, 100, 5, metric=w.metric)
    np.testing.assert_array_equal(sp.oneill_ricci(w, pts),
                                  [sp.oneill_ricci(w, q) for q in pts])


def test_oneill_ricci_makes_one_strict_call_on_the_product_chart(monkeypatch):
    # the cached O'Neill DAG, all blocks at once
    w, _ = exm.pseudo_hyperbolic_product(3, -1.0, 1.0, 0.0)
    pts = geo.sample_points(w.chart, 30, 7, metric=w.metric)
    calls = []
    eval_many = ex.eval_many

    def counted(exprs, points, binding=None, mode="strict"):
        calls.append((mode, points.shape[1]))
        return eval_many(exprs, points, binding, mode)

    monkeypatch.setattr(ex, "eval_many", counted)
    sp.oneill_ricci(w, pts)
    assert calls == [("strict", 3)]


@pytest.mark.parametrize("fiber", [sp.make_euclidean(2), sp.make_sphere(2),
                                   sp.make_hyperbolic(2)], ids=lambda F: F.kind)
def test_oneill_matches_direct_ricci_on_a_curved_2d_base(fiber):
    # g_B is not the identity here, so g_B and its inverse cannot stand in
    # for each other in the Laplacian and |grad f|^2 contractions
    H = sp.make_hyperbolic(2)
    w = sp.make_warped(H, fiber, geo.ScalarField(H.chart, H.chart.parse("2 + x1^2*x2")))
    pts = geo.sample_points(w.chart, 40, 3, metric=w.metric)
    direct = geo.eval_tensors(w.chart, [geo.ricci(w.metric).comps], pts)[0]
    np.testing.assert_allclose(sp.oneill_ricci(w, pts), direct, rtol=0, atol=1e-9)
