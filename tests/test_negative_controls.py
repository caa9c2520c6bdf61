# negative controls: a planted defect of relative size 1e-3 in one side of an
# identity makes its check FAIL, and leaves every other check of the suite passing.
# Each defect is planted right after the unperturbed run has passed in the same
# process, so a check served from a stale cache entry fails its row.

import json

import pytest

from solitonlab import cli
from solitonlab import examples as exm
from solitonlab import expr as ex
from solitonlab import geometry as geo
from solitonlab import identities as idn
from solitonlab import soliton as so
from solitonlab import spaces as sp
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
    """residual - EPS*term, componentwise over nested lists or tuples."""
    if isinstance(residual, (list, tuple)):
        return [minus(r, t) for r, t in zip(residual, term, strict=True)]
    return ex.sub(residual, ex.mul(ex.const(EPS), term))


@pytest.mark.parametrize("check", CONTROLS)
def test_planted_defect_fails_its_check(check, monkeypatch):
    suite, term = CONTROLS[check]
    run_suite = idn._run_suite

    def planted(gs, point_count, seed, tol, residuals, fields=None):
        def defective(g):
            out = dict(residuals(g))
            out[check] = minus(out[check], term(g))
            return tuple(out.items())

        return run_suite(gs, point_count, seed, tol, defective, fields)

    assert all(rep.passed for rep in suite())
    monkeypatch.setattr(idn, "_run_suite", planted)
    docs = {rep.name: cli.check_dict(rep) for rep in suite()}
    assert docs[check]["pass"] is False
    assert docs[check]["sup_residual"] >= 10 * idn.SUITE_TOL
    assert all(doc["pass"] for name, doc in docs.items() if name != check)


def lam_g(s):
    # the right side lambda g of Ric + (h/2) L_X g = lambda g (or Ric + h Hess u)
    g = s.metric
    return [[ex.mul(s.lam.expr, e) for e in row] for row in g.comps]


def grad_x_ric(s):
    # Ric0 = Ric - (R/n) g becomes 1.001 Ric - (R/n) g in the left side's
    # <grad X, Ric0>; minus subtracts, so the term is negated
    d = so.derive(s)
    g = s.metric
    ric = geo.ricci(g)
    return ex.neg(geo.inner_rank2(g, geo.covariant_derivative_vector(g, d.X), ric).expr)


def c2_lam_du2(s):
    # the right side ((m+n-2)/m) lambda d(u^2) of the eqpprinc 1-form
    n, m = s.chart.dim, float(s.m)
    c2_lam = ex.mul(ex.const((m + n - 2) / m), s.lam.expr)
    u2 = ex.powi(s.potential.expr, 2)
    return [ex.mul(c2_lam, ex.differentiate(u2, j)) for j in range(n)]


def lam_u2(s):
    # mu = lambda u^2 + u lap u + (m-1)|grad u|^2 with its first term scaled by 0.999
    return ex.mul(s.lam.expr, ex.powi(s.potential.expr, 2))


# check -> (catalog entry, the soliton builder that the defect is planted in,
# the term that the defect scales).  Each entry keeps the planted check's
# preconditions: a failing gradient residual on an h = -m/u entry would stop
# its eqpprinc precheck, so that row runs on the h = m/u space form.
STRUCTURE_CONTROLS = {
    "soliton-residual": ("neg-m-sphere", "soliton_check", lam_g),
    "gradient-soliton-residual": ("space-form-gradient", "soliton_check", lam_g),
    "divric-identity": ("pseudo-hyperbolic", "divric_check", grad_x_ric),
    "eqpprinc-identity": ("neg-m-sphere", "eqpprinc_check", c2_lam_du2),
    "mu-constancy": ("pseudo-hyperbolic", "mu_scalar_field", lam_u2),
}


@pytest.mark.parametrize("check", STRUCTURE_CONTROLS)
def test_planted_structure_defect_fails_its_check(check, monkeypatch):
    example, builder, term = STRUCTURE_CONTROLS[check]
    before = exm.run_example(example).checks
    assert check in [rep.name for rep in before] and all(rep.passed for rep in before)
    build = getattr(so, builder)

    def planted(s, *args, **kwargs):
        out = build(s, *args, **kwargs)
        if builder == "mu_scalar_field":
            return ScalarField(out.chart, minus(out.expr, term(s)))
        name, tol, residual = out
        return (name, tol, minus(residual, term(s))) if name == check else out

    monkeypatch.setattr(so, builder, planted)
    reps = {rep.name: rep for rep in exm.run_example(example).checks}
    assert reps[check].passed is False
    assert reps[check].sup >= 10 * reps[check].tolerance
    assert all(rep.passed for name, rep in reps.items() if name != check)


# a structure whose h or lambda is off by a relative 1e-6 is no soliton, at
# any scale.  The float verdict reads an absolute tolerance of 1e-8, so it
# misses the defect once h Hess u or lambda g is small: those rows are strict
# xfails until ROADMAP item 3 scales the verdict with its summands.
REL = 1e-6


def h_scaled(s):
    return ex.mul(s.h.expr, ex.const(1 + REL)), s.lam.expr


def lam_shifted(s):
    # lambda + 1e-6 |lambda|, with |lambda| as sqrt(lambda^2)
    lam = s.lam.expr
    return s.h.expr, ex.add(lam, ex.mul(ex.const(REL), ex.sqrt(ex.powi(lam, 2))))


SMALL = pytest.mark.xfail(strict=True, raises=AssertionError,
                          reason="the residual is below the absolute tolerance "
                          "(ROADMAP item 3)")
RELATIVE_CONTROLS = [
    pytest.param(example, params, plant, id=f"{example}{tag}-{plant.__name__}", marks=marks)
    for example, params, tag, marks in [
        ("neg-m-sphere", {}, "", ()), ("euclidean-gradient", {}, "", ()),
        ("space-form-gradient", {"c": 1}, "", ()), ("space-form-gradient", {"c": -1}, "-c-1", ()),
        ("pseudo-hyperbolic", {}, "", ()),
        ("euclidean-gradient", {"m": 1e-3}, "-m-0.001", SMALL)]
    for plant in (h_scaled, lam_shifted)]


@pytest.mark.parametrize("example,params,plant", RELATIVE_CONTROLS)
def test_relative_defect_in_h_or_lambda_fails_the_soliton_residual(example, params, plant):
    s = exm.build_structure(example, params)
    pts = so.default_points(s)
    before, _ = exm.structure_checks(s, pts, 1e-8)
    assert all(rep.passed for rep in before)
    h, lam = plant(s)
    bad = so.SolitonStructure(s.metric, ScalarField(s.chart, h), ScalarField(s.chart, lam),
                              potential=s.potential, h_form=s.h_form, m=s.m)
    reps = {rep.name: rep for rep in exm.structure_checks(bad, pts, 1e-8)[0]}
    for name in ("soliton-residual", "gradient-soliton-residual"):
        assert reps[name].passed is False, f"{name} sup {reps[name].sup:.2e}"


def scaled_g(coef):
    """coef * g_ij, as rows."""
    return lambda g, meta: [[ex.mul(coef(g, meta), e) for e in row] for row in g.comps]


def height_rho():
    # the conformal factor that check-identity conformal-factor checks on S^3
    return sp.height_function(sp.make_sphere(3), (0.0, 0.0, 0.0, 1.0)).field


def hess_rho(g, meta):
    # the Hess rho side of Hess rho + (R/(n(n-1))) rho g = 0
    return geo.hessian(g, height_rho()).comps


def hess_u(g, meta):
    # the Hess u side of Hess u + k u g = 0, on the pseudo-hyperbolic defaults
    s = exm.build_structure("pseudo-hyperbolic")
    assert s.metric == g
    return geo.hessian(g, s.potential).comps


def planted_in_run_checks(term):
    """The planting for a check that so.run_checks reduces: its residual
    minus EPS * term(metric, the run's metadata)."""
    def plant(check, monkeypatch):
        run_checks = so.run_checks

        def planted(g, points, checks, **metadata):
            checks = [(name, tol, minus(r, term(g, metadata)) if name == check else r)
                      for name, tol, r in checks]
            return run_checks(g, points, checks, **metadata)

        monkeypatch.setattr(so, "run_checks", planted)
    return plant


def planted_in_traceless(check, monkeypatch):
    # conformal-killing reads the traceless part of (1/2) L_X g; the conformal
    # side (tr S / n) g = rho g that it removes is scaled by 1 + EPS
    traceless = geo.traceless

    def planted(g, S):
        rho = ex.div(geo.trace(g, S).expr, ex.const(g.chart.dim))
        return SymTensorField(g.chart, minus(traceless(g, S).comps,
                                             scaled_g(lambda *_: rho)(g, None)))

    monkeypatch.setattr(geo, "traceless", planted)


def planted_in_oneill(check, monkeypatch):
    # the blockwise O'Neill formula side of the comparison, scaled by 1 + EPS
    oneill_tensor = sp.oneill_tensor
    monkeypatch.setattr(sp, "oneill_tensor", lambda w: [
        [ex.mul(ex.const(1 + EPS), e) for e in row] for row in oneill_tensor(w)])


# check -> (the CLI argv that emits it, the planting of its defect)
CLI_CONTROLS = {
    "conformal-killing": ("verify-example euclidean-conformal-corrected",
                          planted_in_traceless),
    "conformal-factor-hessian": ("check-identity conformal-factor",
                                 planted_in_run_checks(hess_rho)),
    # the right side rho g of (1/2) L_{grad u} g = rho g
    "factor-potential": ("check-identity conformal-factor", planted_in_run_checks(
        scaled_g(lambda g, meta: height_rho().expr))),
    "potential-hessian-equation": ("verify-example pseudo-hyperbolic",
                                   planted_in_run_checks(hess_u)),
    "oneill": ("check-identity oneill", planted_in_oneill),
    # the right side lambda g of Ric = lambda g on the product
    "warped-einstein": ("construct-warped --base pseudo-hyperbolic", planted_in_run_checks(
        scaled_g(lambda g, meta: ex.const(meta["lambda"])))),
}


def cli_checks(argv, capsys):
    """The check documents that `solitonlab <argv>` prints, by name."""
    cli.main(argv.split())
    return {doc["name"]: doc for doc in json.loads(capsys.readouterr().out)["checks"]}


@pytest.mark.parametrize("check", CLI_CONTROLS)
def test_planted_cli_defect_fails_its_check(check, monkeypatch, capsys):
    argv, plant = CLI_CONTROLS[check]
    before = cli_checks(argv, capsys)
    assert check in before and all(doc["pass"] for doc in before.values())
    plant(check, monkeypatch)
    docs = cli_checks(argv, capsys)
    assert docs.keys() == before.keys()
    assert docs[check]["pass"] is False
    assert docs[check]["sup_residual"] >= 10 * docs[check]["tolerance"]
    assert all(doc["pass"] for name, doc in docs.items() if name != check)


def test_every_emitted_check_has_a_control(capsys):
    # every check name the identities, the catalog and construct-warped can
    # emit has exactly one row above, and every row names an emitted check
    argvs = [f"check-identity {name} --points 20"
             + (" --random-metrics 1" if "random_metrics" in reads else "")
             for name, (_, _, reads) in cli.IDENTITIES.items()]
    argvs += [f"verify-example {example_id} --points 20" for example_id in exm.EXAMPLES]
    argvs.append(CLI_CONTROLS["warped-einstein"][0])
    emitted = set()
    for argv in argvs:
        emitted |= cli_checks(argv, capsys).keys()
    rows = [*CONTROLS, *STRUCTURE_CONTROLS, *CLI_CONTROLS]
    assert len(rows) == len(set(rows))
    assert emitted == set(rows)


def grad_term_on_the_fiber(w):
    # (|grad f|^2 / f^2) f^2 g_F on the vertical block, zero elsewhere
    nb, f = w.base_chart.dim, w.warping
    c = ex.div(geo.grad_norm2(w.base_metric, f).expr, ex.powi(f.expr, 2))
    return [[ex.mul(c, e) if min(i, j) >= nb else ex.ZERO for j, e in enumerate(row)]
            for i, row in enumerate(w.metric.comps)]


@pytest.mark.parametrize("params", ["", " --k -16 --A 10 --l 4"])
def test_oneill_with_m_for_m_minus_1_fails(params, monkeypatch, capsys):
    # (lap f / f + m |grad f|^2 / f^2) in the vertical coefficient, where
    # O'Neill has (m - 1): the formula side loses one grad term on the fiber
    argv = "check-identity oneill" + params
    assert cli_checks(argv, capsys)["oneill"]["pass"] is True
    oneill_tensor = sp.oneill_tensor
    monkeypatch.setattr(sp, "oneill_tensor", lambda w: [
        [ex.sub(a, b) for a, b in zip(row, grad_row)]
        for row, grad_row in zip(oneill_tensor(w), grad_term_on_the_fiber(w))])
    doc = cli_checks(argv, capsys)["oneill"]
    assert doc["pass"] is False
    assert doc["sup_residual"] >= 10 * doc["tolerance"]
