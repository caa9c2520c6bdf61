# negative controls: a planted defect of relative size 1e-3 in one side of an
# identity makes its check FAIL, and leaves every other check of the suite passing

import pytest

from solitonlab import cli
from solitonlab import expr as ex
from solitonlab import geometry as geo
from solitonlab import identities as idn
from solitonlab.geometry import ScalarField, SymTensorField

EPS = 1e-3


def fields(g, vector=False):
    """phi, T and Z of the suites over g's chart (see identities.suite_fields)."""
    phi, T, Z = idn.suite_fields(g.chart.dim, vector)
    return ScalarField(g.chart, phi), SymTensorField(g.chart, T), Z


def bianchi_dr(g):
    # div Ric = 0.5 dR becomes div Ric = 0.501 dR
    scal = geo.scalar_curvature(g).expr
    return [ex.differentiate(scal, j) for j in range(g.chart.dim)]


def phi_div_t(g):
    phi, T, _ = fields(g)
    return [ex.mul(phi.expr, d) for d in geo.divergence_sym2(g, T).comps]


def dphi_t(g):
    phi, T, _ = fields(g)
    n = g.chart.dim
    return [[[ex.mul(ex.differentiate(phi.expr, a), T.comps[i][j]) for j in range(n)]
             for i in range(n)] for a in range(n)]


def half_d_grad_square(g):
    gn2 = geo.grad_norm2(g, fields(g)[0]).expr
    return [ex.mul(ex.const(0.5), ex.differentiate(gn2, j)) for j in range(g.chart.dim)]


def d_laplacian(g):
    lap = geo.laplacian(g, fields(g)[0]).expr
    return [ex.differentiate(lap, j) for j in range(g.chart.dim)]


def t_grad_phi_z(g):
    phi, T, Z = fields(g, vector=True)
    grad_phi = geo.gradient(g, phi).comps
    n = g.chart.dim
    return ex.nsum(ex.mul(T.comps[i][j], ex.mul(grad_phi[i], Z[j]))
                   for i in range(n) for j in range(n))


# check -> (suite, the term of one side that the defect scales by 1 + EPS)
CONTROLS = {
    "bianchi": (idn.bianchi_suite, bianchi_dr),
    "fg-div-product": (idn.fg_formulas_suite, phi_div_t),
    "fg-covariant-product": (idn.fg_formulas_suite, dphi_t),
    "fg-half-grad-square": (idn.fg_formulas_suite, half_d_grad_square),
    "fg-hessian-divergence": (idn.fg_formulas_suite, d_laplacian),
    "lemma21": (idn.lemma21_suite, t_grad_phi_z),
}


def minus(residual, term):
    """residual - EPS*term, componentwise over nested lists."""
    if isinstance(residual, list):
        return [minus(r, t) for r, t in zip(residual, term, strict=True)]
    return ex.sub(residual, ex.mul(ex.const(EPS), term))


@pytest.mark.parametrize("check", CONTROLS)
def test_planted_defect_fails_its_check(check, monkeypatch):
    suite, term = CONTROLS[check]
    run_suite = idn._run_suite

    def planted(gs, point_count, seed, tol, residuals, fields=None):
        def defective(g):
            out = residuals(g)
            out[check] = minus(out[check], term(g))
            return out

        return run_suite(gs, point_count, seed, tol, defective, fields)

    monkeypatch.setattr(idn, "_run_suite", planted)
    docs = {rep.name: cli.check_dict(rep) for rep in suite()}
    assert docs[check]["pass"] is False
    assert docs[check]["sup_residual"] >= 10 * idn.SUITE_TOL
    assert all(doc["pass"] for name, doc in docs.items() if name != check)
