# universal identity suites on random perturbed metrics

import numpy as np
import pytest

from solitonlab import examples as exm
from solitonlab import expr as ex
from solitonlab import geometry as geo
from solitonlab import identities as idn


def test_random_perturbed_metric_is_spd_on_box():
    rng = np.random.default_rng(17)
    g = idn.random_perturbed_metric(rng, 3)
    pts = np.random.default_rng(1).uniform(-1, 1, size=(200, 3))
    gv = geo.eval_sym2_comps(g.comps, pts)
    eig = np.linalg.eigvalsh(gv)
    assert np.all(eig[:, 0] > 0.1)  # comfortably positive definite


def test_suite_metrics_deterministic():
    a = idn.suite_metrics(3, 4, seed=7)
    b = idn.suite_metrics(3, 4, seed=7)
    assert len(a) == 4
    for ga, gb in zip(a, b):
        assert ga.comps == gb.comps  # interned expressions: equality is identity


def test_bianchi_suite_small():
    reports = idn.bianchi_suite(metric_count=5, point_count=40)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.name == "bianchi" and rep.passed
    assert rep.metadata["metrics"] == 5
    assert len(rep.residuals) == 5 * 40


def test_fg_formulas_suite_small():
    reports = idn.fg_formulas_suite(metric_count=5, point_count=40)
    names = [r.name for r in reports]
    assert names == ["fg-div-product", "fg-covariant-product",
                     "fg-half-grad-square", "fg-hessian-divergence"]
    for rep in reports:
        assert rep.passed, (rep.name, rep.sup)
        assert rep.sup < idn.SUITE_TOL


def test_lemma21_suite_small():
    reports = idn.lemma21_suite(metric_count=5, point_count=40)
    assert len(reports) == 1 and reports[0].name == "lemma21"
    assert reports[0].passed


def test_suites_share_a_metric_family():
    metrics = idn.suite_metrics(3, 3, seed=7)
    b = idn.bianchi_suite(metric_count=3, point_count=30, metrics=metrics)
    f = idn.fg_formulas_suite(metric_count=3, point_count=30, metrics=metrics)
    l = idn.lemma21_suite(metric_count=3, point_count=30, metrics=metrics)
    for rep in b + f + l:
        assert rep.passed


def test_suite_determinism_across_calls():
    a = idn.bianchi_suite(metric_count=3, point_count=30)
    b = idn.bianchi_suite(metric_count=3, point_count=30)
    assert a[0].sup == b[0].sup
    np.testing.assert_array_equal(a[0].residuals, b[0].residuals)
    fa = idn.fg_formulas_suite(metric_count=2, point_count=20)
    fb = idn.fg_formulas_suite(metric_count=2, point_count=20)
    for ra, rb in zip(fa, fb):
        assert ra.sup == rb.sup


def test_suite_residuals_are_nontrivially_small():
    # the identities hold to near machine precision, far below the gate
    rep = idn.bianchi_suite(metric_count=3, point_count=30)[0]
    assert 0.0 <= rep.sup < 1e-10


def test_oneill_suite_on_catalog_product():
    W, _ = exm.pseudo_hyperbolic_product(3, -1.0, 1.0, 0.0)
    reports = idn.oneill_suite(W, count=40)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.name == "oneill" and rep.passed
    assert rep.sup < 1e-9


def test_oneill_suite_curved_fiber():
    W, _ = exm.pseudo_hyperbolic_product(3, -4.0, 2.0, 3.0)
    reports = idn.oneill_suite(W, count=30)
    assert reports[0].passed


def test_dimension_two_guard_or_support():
    # the identity suites run in any dimension >= 2
    for suite, count in ((idn.bianchi_suite, 1), (idn.fg_formulas_suite, 4),
                         (idn.lemma21_suite, 1)):
        reports = suite(dim=2, metric_count=3, point_count=30)
        assert len(reports) == count
        assert all(r.passed and len(r.residuals) == 90 for r in reports)


def test_fg_formulas_suite_makes_one_strict_call_per_metric(monkeypatch):
    calls = []
    eval_many = ex.eval_many

    def counted(exprs, points, binding=None, mode="strict"):
        calls.append(mode)
        return eval_many(exprs, points, binding, mode)

    monkeypatch.setattr(ex, "eval_many", counted)
    reports = idn.fg_formulas_suite(metric_count=3, point_count=20)
    assert len(reports) == 4 and all(r.passed for r in reports)
    assert calls == ["strict"] * 3
