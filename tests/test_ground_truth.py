# ground truth for the identity suites: the zero test mod p of tests/oracles.py
# decides whether a residual vanishes identically, and the float verdict must
# agree with it.  The suite metric of a dimension is value-free: its
# coefficients are parameters, which the oracle draws mod p with the coordinates,
# so a zero here holds for every metric of the suites' perturbation family.

import numpy as np
import pytest

from oracles import zero_mod_p
from solitonlab import examples as exm
from solitonlab import expr as ex
from solitonlab import geometry as geo
from solitonlab import identities as idn
from solitonlab import soliton as so
from solitonlab.geometry import Chart, MetricField


def value_free_metric(dim):
    g = idn.suite_metrics(dim, 1)[0]
    return MetricField(Chart(g.chart.coords, g.chart.box), g.comps)


def components(roots):
    return list(np.array(roots, dtype=object).flat)


def planted_bianchi(g):
    # div Ric - 0.50001 dR: the contracted Bianchi identity with a relative
    # 2e-5 defect in its dR term
    div_ric = geo.divergence_sym2(g, geo.ricci(g))
    scal = geo.scalar_curvature(g).expr
    return (("bianchi", tuple(ex.sub(div_ric.comps[j],
                                     ex.mul(ex.const(0.50001), ex.differentiate(scal, j)))
                              for j in range(g.chart.dim))),)


SUITES = [(suite, dim) for dim in (3, 4) for suite in ("bianchi", "fg", "lemma21")]


@pytest.mark.parametrize("suite,dim", SUITES + [("bianchi", 5)])
def test_suite_residuals_vanish_mod_p(suite, dim):
    residuals = getattr(idn, f"{suite}_residuals")(value_free_metric(dim))
    for name, roots in residuals:
        assert set(zero_mod_p(components(roots), np.random.default_rng(dim))) == {0}, name


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_planted_bianchi_defect_is_nonzero_mod_p(dim):
    ((_, roots),) = planted_bianchi(value_free_metric(dim))
    assert 0 not in zero_mod_p(roots, np.random.default_rng(dim))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the float sup 3.66e-8 of the planted defect is below "
                   "SUITE_TOL, so the absolute-tolerance verdict passes it")
def test_float_verdict_on_the_planted_bianchi_defect_is_the_oracles():
    ((_, roots),) = planted_bianchi(value_free_metric(5))
    identity = set(zero_mod_p(roots, np.random.default_rng(5))) == {0}
    (rep,) = idn._run_suite(idn.suite_metrics(5, 2, 7), 100, 7, idn.SUITE_TOL,
                            planted_bianchi)
    assert rep.passed == identity


# the catalog's rational entries.  Their constants are float folds, exact only
# when dyadic: a fold such as (n - 2)/m = 2/3 rounds, and the zero test sees
# the rounding.  ROADMAP item 3 (exact constants) or item 9 (m as a
# parameter) removes that; until then the rows with such a fold are nonzero.
CATALOG = [("neg-m-sphere", {}), ("euclidean-gradient", {}),
           ("space-form-gradient", {"c": 1}), ("space-form-gradient", {"c": -1}),
           ("euclidean-gradient", {"n": 5, "m": 7.0})]


def catalog_id(case):
    example_id, params = case
    return " ".join([example_id, *(f"--{k} {v:g}" for k, v in params.items())])


def check_roots(check):
    _, _, residual = check   # a tensor field, a tuple of roots or one root
    return components(getattr(residual, "comps", residual))


def eqpprinc_roots(s):
    # the identity holds on h = -m/u; an h = m/u entry is that form with -m
    if s.h_form == so.FORM_M_OVER_U:
        s = so.SolitonStructure(s.metric, s.h, s.lam, potential=s.potential, m=-s.m)
    return check_roots(so.eqpprinc_check(s))


@pytest.mark.parametrize("case", CATALOG, ids=catalog_id)
def test_catalog_structure_residuals_vanish_mod_p(case):
    s = exm.build_structure(*case)
    rng = np.random.default_rng(0)
    for check in (so.soliton_check(s), so.soliton_check(s, gradient=True),
                  so.divric_check(s)):
        assert set(zero_mod_p(check_roots(check), rng)) == {0}, check[0]


@pytest.mark.parametrize("case", [("neg-m-sphere", {}), ("space-form-gradient", {"c": 1}),
                                  ("space-form-gradient", {"c": -1}),
                                  ("euclidean-gradient", {"m": 2.0}),
                                  ("euclidean-gradient", {"n": 5, "m": 4.0})],
                         ids=catalog_id)
def test_eqpprinc_vanishes_mod_p_where_its_constants_are_dyadic(case):
    s = exm.build_structure(*case)
    assert set(zero_mod_p(eqpprinc_roots(s), np.random.default_rng(0))) == {0}


@pytest.mark.parametrize("case", [("neg-m-sphere", {"n": 4, "m": 3.0}),
                                  ("euclidean-gradient", {}),
                                  ("euclidean-gradient", {"n": 5, "m": 7.0})],
                         ids=catalog_id)
def test_eqpprinc_is_nonzero_mod_p_where_a_constant_rounds(case):
    # (n - 2)/m and (m + n - 2)/m are folded in float64: 2/3 and 5/3, -1/3
    # and 2/3, -3/7 and 4/7
    s = exm.build_structure(*case)
    assert 0 not in zero_mod_p(eqpprinc_roots(s), np.random.default_rng(0))
