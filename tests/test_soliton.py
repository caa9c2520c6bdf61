# soliton structures: residual operators, classification, identities,
# conserved quantity, and the warped Einstein construction

from pathlib import Path

import numpy as np
import pytest

from solitonlab import examples as exm
from solitonlab import expr as ex
from solitonlab import geometry as geo
from solitonlab import manifest as mf
from solitonlab import soliton as so
from solitonlab import spaces as sp
from solitonlab.geometry import MetricField, ScalarField, VectorField


def einstein_sphere_structure(lam=2.0, h=1.0):
    """S^3(1) with X = 0: Ric = 2 g, so any h works with lambda = 2."""
    space = sp.make_sphere(3, 1.0)
    chart = space.chart
    zero = VectorField(chart, (ex.ZERO,) * 3)
    return so.SolitonStructure(space.metric, ScalarField(chart, ex.const(h)),
                               ScalarField(chart, ex.const(lam)), vector_field=zero)


def flat_gradient_structure(n=3, m=3.0, tau=1.0):
    """Euclidean space, u = tau + |x|^2, h = m/u, lambda = 2m/u."""
    E = sp.make_euclidean(n)
    chart = E.chart
    u = ex.add(ex.const(tau), ex.nsum(ex.powi(ex.coord(i), 2) for i in range(n)))
    h = ex.div(ex.const(m), u)
    lam = ex.div(ex.const(2.0 * m), u)
    return so.SolitonStructure(E.metric, ScalarField(chart, h), ScalarField(chart, lam),
                               potential=ScalarField(chart, u),
                               h_form=so.FORM_M_OVER_U, m=m)


def test_structure_validation():
    space = sp.make_sphere(2, 1.0)
    chart = space.chart
    one = ScalarField(chart, ex.ONE)
    u = ScalarField(chart, ex.coord(0))
    X = VectorField(chart, (ex.ONE, ex.ZERO))
    with pytest.raises(ValueError, match="vector field or a potential"):
        so.SolitonStructure(space.metric, one, one)
    with pytest.raises(ValueError, match="not both"):
        so.SolitonStructure(space.metric, one, one, vector_field=X, potential=u)
    with pytest.raises(ValueError, match="unknown h form"):
        so.SolitonStructure(space.metric, one, one, potential=u, h_form="weird")
    with pytest.raises(ValueError, match="gradient"):
        so.SolitonStructure(space.metric, one, one, vector_field=X,
                            h_form=so.FORM_M_OVER_U, m=2.0)
    with pytest.raises(ValueError, match="m > 0"):
        so.SolitonStructure(space.metric, one, one, potential=u,
                            h_form=so.FORM_NEG_M_OVER_U)
    other = sp.make_sphere(2, 2.0)
    with pytest.raises(ValueError, match="chart"):
        so.SolitonStructure(space.metric, ScalarField(other.chart, ex.ONE), one,
                            potential=u)
    s = so.SolitonStructure(space.metric, one, one, potential=u)
    assert s.is_gradient and s.chart is chart


def test_derive_is_cached():
    s = einstein_sphere_structure()
    assert so.derive(s) is so.derive(s)


def test_einstein_sphere_residual_zero():
    s = einstein_sphere_structure()
    pts = so.default_points(s, count=60)
    rep = so.soliton_residual(s, pts)
    assert rep.passed and rep.sup < 1e-12
    assert rep.name == "soliton-residual"
    assert len(rep.residuals) == 60
    # wrong lambda leaves a clean sqrt(n)*|dlam| signal
    bad = einstein_sphere_structure(lam=2.5)
    rep = so.soliton_residual(bad, pts)
    assert not rep.passed
    assert rep.sup == pytest.approx(0.5 * np.sqrt(3.0), rel=1e-9)


def test_gradient_and_vector_paths_agree():
    s = flat_gradient_structure()
    pts = so.default_points(s, count=50)
    grad_rep = so.gradient_soliton_residual(s, pts)
    # same structure with X = grad u spelled out
    X = geo.gradient(s.metric, s.potential)
    sv = so.SolitonStructure(s.metric, s.h, s.lam, vector_field=X)
    vec_rep = so.soliton_residual(sv, pts)
    assert grad_rep.passed and vec_rep.passed
    np.testing.assert_allclose(grad_rep.residuals, vec_rep.residuals, atol=1e-11)


def test_gradient_residual_needs_potential():
    s = einstein_sphere_structure()
    with pytest.raises(so.PreconditionError):
        so.gradient_soliton_residual(s, so.default_points(s, count=10))


def test_classify_lambda():
    pts = np.zeros((5, 3)) + 0.1
    assert so.classify_lambda(einstein_sphere_structure(lam=2.0), pts) == "shrinking"
    assert so.classify_lambda(einstein_sphere_structure(lam=-1.0), pts) == "expanding"
    assert so.classify_lambda(einstein_sphere_structure(lam=0.0), pts) == "steady"
    space = sp.make_sphere(3, 1.0)
    mixed = so.SolitonStructure(
        space.metric, ScalarField(space.chart, ex.ONE),
        ScalarField(space.chart, ex.coord(0)),
        vector_field=VectorField(space.chart, (ex.ZERO,) * 3))
    pts = np.array([[0.5, 0, 0], [-0.5, 0, 0]])
    assert so.classify_lambda(mixed, pts) == "undefined"
    assert so.triviality_check(mixed, pts).classification == "undefined"


MANIFESTS = Path(__file__).resolve().parents[1] / "perfbench" / "manifests"


@pytest.mark.parametrize("source", [
    i for i, spec in exm.EXAMPLES.items() if spec.structure] + sorted(
    p.name for p in MANIFESTS.glob("*.json")))
def test_triviality_verdict_carries_the_lambda_class(source):
    # the verdict classifies the lambda values it evaluates itself, so a
    # report needs no separate classify_lambda call
    s = (mf.load(str(MANIFESTS / source)).structure if source.endswith(".json")
         else exm.build_structure(source))
    pts = so.default_points(s, count=50, seed=3)
    assert so.triviality_check(s, pts).classification == so.classify_lambda(s, pts)


def test_rank0_check_report_holds_the_absolute_value():
    # gnorms returns a rank-0 residual signed; the report reduces it by |r|
    E = sp.make_euclidean(2)
    pts = np.array([[-0.5, 0.25], [0.75, -1.0], [-1.0, 0.0]])
    rep = so.run_checks(E.metric, pts, [("signed", 0.9, ex.coord(0))])[0]
    np.testing.assert_array_equal(rep.residuals, [0.5, 0.75, 1.0])
    assert (rep.sup, rep.worst_point, rep.passed) == (1.0, (-1.0, 0.0), False)


def test_lambda_is_constant():
    pts = so.default_points(sp.make_sphere(3, 1.0).chart, count=30)
    assert so.lambda_is_constant(einstein_sphere_structure(), pts)
    assert not so.lambda_is_constant(flat_gradient_structure(),
                                     so.default_points(sp.make_euclidean(3).chart, count=30))


def test_triviality_einstein_is_trivial():
    s = einstein_sphere_structure()
    v = so.triviality_check(s, so.default_points(s, count=40))
    assert v.trivial and v.sup_traceless < 1e-12 and v.constant == pytest.approx(0.0)


def test_triviality_homothetic_constant_lambda():
    # position field on flat space: L_X g = 2 g
    E = sp.make_euclidean(3)
    X = VectorField(E.chart, E.chart.coord_exprs())
    s = so.SolitonStructure(E.metric, ScalarField(E.chart, ex.ONE),
                            ScalarField(E.chart, ex.ONE), vector_field=X)
    v = so.triviality_check(s, so.default_points(s, count=40))
    assert v.trivial
    assert v.constant == pytest.approx(2.0)


def test_triviality_varying_lambda_is_nontrivial():
    # X = grad u is homothetic here, but lambda = 2m/u varies: not trivial
    s = flat_gradient_structure()
    v = so.triviality_check(s, so.default_points(s, count=40))
    assert not v.trivial
    assert v.sup_traceless < 1e-12          # the field itself is homothetic
    assert v.lambda_spread > so.LAMBDA_SPREAD_TOL


def test_triviality_nonconformal_field():
    E = sp.make_euclidean(3)
    X = VectorField(E.chart, (ex.coord(1), ex.ZERO, ex.ZERO))
    s = so.SolitonStructure(E.metric, ScalarField(E.chart, ex.ONE),
                            ScalarField(E.chart, ex.ONE), vector_field=X)
    v = so.triviality_check(s, so.default_points(s, count=40))
    assert not v.trivial and v.sup_traceless > 0.1


def test_conformal_killing_position_and_rotation():
    E = sp.make_euclidean(3)
    pts = so.default_points(E.chart, count=40)
    pos = VectorField(E.chart, E.chart.coord_exprs())
    v = so.conformal_killing_check(E.metric, pos, pts)
    assert v.conformal
    np.testing.assert_allclose(v.rho_samples, 1.0, atol=1e-13)
    rot = VectorField(E.chart, (ex.neg(ex.coord(1)), ex.coord(0), ex.ZERO))
    v = so.conformal_killing_check(E.metric, rot, pts)
    assert v.conformal
    np.testing.assert_allclose(v.rho_samples, 0.0, atol=1e-13)  # Killing: rho = 0
    skew = VectorField(E.chart, (ex.coord(1), ex.ZERO, ex.ZERO))
    assert not so.conformal_killing_check(E.metric, skew, pts).conformal


def test_conformal_factor_chain_on_sphere():
    # rho = h_v solves the factor equation; u = -(n(n-1)/R) rho = -h_v
    space = sp.make_sphere(3, 1.0)
    hf = sp.height_function(space, (0.0, 0.0, 0.0, 1.0))
    pts = so.default_points(space.chart, count=60)
    rep = so.conformal_factor_hessian_check(space.metric, hf.field, pts)
    assert rep.passed and rep.sup < 1e-9
    u = so.potential_from_factor(space.metric, hf.field, pts)
    np.testing.assert_allclose(geo.eval_scalar(u, pts),
                               -geo.eval_scalar(hf.field, pts), atol=1e-12)
    # and grad u is conformal with exactly that factor
    v = so.conformal_killing_check(space.metric, geo.gradient(space.metric, u), pts,
                                   tol=1e-9)
    assert v.conformal
    np.testing.assert_allclose(v.rho_samples, geo.eval_scalar(hf.field, pts), atol=1e-9)


def test_potential_from_factor_preconditions():
    E = sp.make_euclidean(3)
    rho = ScalarField(E.chart, ex.coord(0))
    pts = so.default_points(E.chart, count=20)
    with pytest.raises(so.PreconditionError, match="vanishes"):
        so.potential_from_factor(E.metric, rho, pts)
    # e^{0.2 x1^2} delta has R = -0.4 e^{-0.2 x1^2}: genuinely non-constant
    chart = geo.Chart(("x1", "x2"), ((-0.3, 0.3), (-0.3, 0.3)))
    conf = ex.exp(ex.mul(ex.const(0.2), ex.powi(ex.coord(0), 2)))
    gm = MetricField(chart, geo.sym_rows([conf, ex.ZERO, conf]))
    with pytest.raises(so.PreconditionError, match="not constant"):
        so.potential_from_factor(gm, ScalarField(chart, ex.ONE),
                                 np.array([[0.0, 0.0], [0.3, 0.1]]))


def test_divric_identity_on_verified_structure():
    s = exm.example_neg_m_sphere(3, 2.0, 1.0, 2.0)
    pts = so.default_points(s, count=60)
    rep = so.divric_identity_residual(s, pts)
    assert rep.passed
    assert rep.metadata["precheck_sup"] < 1e-8


def test_divric_refuses_unverified_structure():
    bad = einstein_sphere_structure(lam=3.0)  # Ric = 2g, not 3g
    with pytest.raises(so.PreconditionError, match="soliton residual"):
        so.divric_identity_residual(bad, so.default_points(bad, count=10))


def test_mu_field_zero_for_null_first_integral():
    s = exm.example_pseudo_hyperbolic(3, -1.0, 1.0, 0.0, m=2.0)
    pts = so.default_points(s, count=60)
    rep = so.mu_field(s, pts)
    assert rep.passed
    assert abs(rep.metadata["mu_estimate"]) < 1e-10
    assert rep.metadata["lambda_estimate"] == pytest.approx(-4.0)
    assert rep.metadata["m"] == 2.0


def test_mu_field_positive_first_integral():
    # (f')^2 + k f^2 = -l propagates to mu = (m-1) l
    m, l = 2.0, 3.0
    s = exm.example_pseudo_hyperbolic(3, -4.0, 2.0, l, m=m)
    rep = so.mu_field(s, so.default_points(s, count=60))
    assert rep.passed
    assert rep.metadata["mu_estimate"] == pytest.approx((m - 1.0) * l, abs=1e-9)


def test_mu_field_preconditions():
    pts_free = None
    free = exm.example_pseudo_hyperbolic(3, -1.0, 1.0, 0.0, h_expr="sinh(t)")
    pts_free = so.default_points(free, count=10)
    with pytest.raises(so.PreconditionError, match="-m/u"):
        so.mu_field(free, pts_free)
    varying = exm.example_neg_m_sphere(3, 2.0, 1.0, 2.0)
    with pytest.raises(so.PreconditionError, match="not constant"):
        so.mu_field(varying, so.default_points(varying, count=20))
    # declared form must match the actual h
    s = exm.example_pseudo_hyperbolic(3, -1.0, 1.0, 0.0, m=2.0)
    lying = so.SolitonStructure(s.metric, ScalarField(s.chart, ex.ONE), s.lam,
                                potential=s.potential,
                                h_form=so.FORM_NEG_M_OVER_U, m=2.0)
    with pytest.raises(so.PreconditionError, match="inconsistent"):
        so.mu_field(lying, so.default_points(s, count=10))


def test_eqpprinc_identity_and_precheck():
    s = exm.example_neg_m_sphere(3, 2.0, 1.0, 2.0)
    pts = so.default_points(s, count=60)
    rep = so.eqpprinc_residual(s, pts)
    assert rep.passed and rep.name == "eqpprinc-identity"
    broken = so.SolitonStructure(s.metric, s.h,
                                 ScalarField(s.chart, ex.const(5.0)),
                                 potential=s.potential,
                                 h_form=so.FORM_NEG_M_OVER_U, m=2.0)
    with pytest.raises(so.PreconditionError, match="gradient soliton residual"):
        so.eqpprinc_residual(broken, pts)


def test_warped_einstein_construct_flat_fiber():
    s = exm.example_pseudo_hyperbolic(3, -1.0, 1.0, 0.0, m=2.0)
    w, rep = so.warped_einstein_construct(s, 2, 0.0, count=80)
    assert rep.name == "warped-einstein"
    assert rep.passed
    assert w.dim == 5
    assert rep.metadata["lambda"] == pytest.approx(-4.0)
    assert rep.metadata["lambda_positive"] is False


def test_warped_einstein_construct_abstract():
    s = exm.example_pseudo_hyperbolic(3, -1.0, 1.0, 0.0, m=2.0)
    w, rep = so.warped_einstein_construct(s, 2, 0.0, fiber_kind="abstract", count=60)
    assert rep.name == "warped-einstein-base-block"
    assert rep.passed
    assert w is None


def test_warped_einstein_construct_hyperbolic_fiber():
    # l > 0 forces a negatively curved fiber with mu = (m-1) l... the fiber of
    # the *construction* uses the conserved quantity of the base as mu
    m, l = 2.0, 3.0
    s = exm.example_pseudo_hyperbolic(3, -4.0, 2.0, l, m=m)
    w, rep = so.warped_einstein_construct(s, 2, (m - 1.0) * l, count=60)
    assert rep.passed
    # positive mu picks a round fiber under "auto"
    assert w.fiber_chart is not None
    assert rep.metadata["lambda"] == pytest.approx((3 + m - 1) * -4.0)


def test_warped_einstein_construct_rejections():
    s = exm.example_pseudo_hyperbolic(3, -1.0, 1.0, 0.0, m=2.0)
    with pytest.raises(ValueError, match="does not match"):
        so.warped_einstein_construct(s, 2, 1.0, count=40)
    with pytest.raises(ValueError, match="must equal the m"):
        so.warped_einstein_construct(s, 3, 0.0, count=40)
    with pytest.raises(ValueError, match="integer"):
        so.warped_einstein_construct(s, 2.5, 0.0, count=40)
    varying = exm.example_neg_m_sphere(3, 2.0, 1.0, 2.0)
    with pytest.raises(so.PreconditionError):
        so.warped_einstein_construct(varying, 2, 0.0, count=40)


def test_einstein_fiber_kinds():
    flat = so.einstein_fiber(2, 0.0)
    assert isinstance(flat, sp.ModelSpace) and flat.kind == "euclidean"
    round_f = so.einstein_fiber(3, 2.0)
    assert round_f.kind == "sphere" and round_f.radius == pytest.approx(1.0)
    chart, gm = so.einstein_fiber(2, -3.0)
    ric = geo.ricci(gm)
    pts = geo.points_array(geo.sample_points(chart, 20, seed=1))
    rv = geo.eval_sym2_comps(ric.comps, pts)
    gv = geo.eval_sym2_comps(gm.comps, pts)
    assert np.max(np.abs(rv + 3.0 * gv)) < 1e-10
    with pytest.raises(ValueError, match="unknown fiber kind"):
        so.einstein_fiber(7, 1.5, "abstract")
    with pytest.raises(ValueError):
        so.einstein_fiber(2, 1.0, "flat")
    with pytest.raises(ValueError):
        so.einstein_fiber(2, -1.0, "sphere")
    with pytest.raises(ValueError):
        so.einstein_fiber(2, 1.0, "hyperbolic")
    with pytest.raises(ValueError):
        so.einstein_fiber(2, 1.0, "dodecahedron")


def test_default_points_deterministic():
    s = einstein_sphere_structure()
    a = so.default_points(s, count=30, seed=5)
    b = so.default_points(s, count=30, seed=5)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (30, 3)


def test_report_worst_point_tracks_argmax():
    s = einstein_sphere_structure(lam=2.0)
    # break the equation only near the north chart end via varying lambda
    space = sp.make_sphere(3, 1.0)
    lam = ScalarField(space.chart, ex.add(ex.const(2.0),
                                          ex.mul(ex.const(0.01), ex.coord(0))))
    bad = so.SolitonStructure(space.metric, s.h, lam, vector_field=s.vector_field)
    pts = so.default_points(bad, count=50)
    rep = so.soliton_residual(bad, pts)
    i = int(np.argmax(np.abs(pts[:, 0])))
    assert rep.worst_point == tuple(pts[i])
