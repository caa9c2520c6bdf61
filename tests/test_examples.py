# the worked-example catalog and its suite runner

from pathlib import Path

import numpy as np
import pytest

from solitonlab import cli
from solitonlab import examples as exm
from solitonlab import expr as ex
from solitonlab import geometry as geo
from solitonlab import manifest as mf
from solitonlab import soliton as so
from solitonlab import spaces as sp

MANIFESTS = Path(__file__).resolve().parents[1] / "perfbench" / "manifests"


@pytest.mark.parametrize("example_id", list(exm.EXAMPLES))
def test_catalog_defaults_pass(example_id):
    run = exm.run_example(example_id, count=120)
    assert run.passed, [(r.name, r.sup) for r in run.checks]
    assert run.checks


def test_space_form_gradient_residual_tiny():
    run = exm.run_example("space-form-gradient", count=120)
    by_name = {r.name: r for r in run.checks}
    assert by_name["soliton-residual"].sup < 1e-10
    assert by_name["gradient-soliton-residual"].sup < 1e-10
    assert "divric-identity" in by_name
    assert run.trivial is False


def test_space_form_hyperbolic_branch():
    run = exm.run_example("space-form-gradient",
                          {"c": -1, "tau": 5.0, "m": 2.0}, count=100)
    assert run.passed
    assert run.classification == "expanding"
    # the chart carries the u > 0 predicate
    u = run.structure.potential
    pts = so.default_points(run.structure, count=50)
    assert np.all(geo.eval_scalar(u, pts) > 0.0)


def test_space_form_rejections():
    with pytest.raises(ValueError, match="c must be"):
        exm.example_space_form(2, 3, 2.0, 1.0)
    with pytest.raises(ValueError, match="n >= 2"):
        exm.example_space_form(1, 1, 2.0, 1.0)
    with pytest.raises(ValueError, match="nonzero"):
        exm.example_space_form(1, 3, 0.0, 1.0)
    # tau > 1/n is strict on the sphere
    with pytest.raises(ValueError, match="must exceed"):
        exm.example_space_form(1, 3, 2.0, 1.0 / 3.0)
    # hyperbolic with tau too negative: u < 0 on the whole box
    with pytest.raises(ValueError, match="no admissible region"):
        exm.example_space_form(-1, 3, 2.0, -40.0)


def test_euclidean_gradient_shrinking_and_expanding():
    run = exm.run_example("euclidean-gradient", count=100)
    assert run.passed and run.classification == "shrinking"
    by_name = {r.name: r for r in run.checks}
    assert by_name["gradient-soliton-residual"].sup < 1e-10
    run = exm.run_example("euclidean-gradient", {"m": -3.0}, count=100)
    assert run.passed and run.classification == "expanding"


def test_euclidean_gradient_is_almost_but_homothetic():
    run = exm.run_example("euclidean-gradient", count=100)
    assert run.trivial is False
    assert run.triviality.sup_traceless < 1e-12
    assert run.triviality.lambda_spread > so.LAMBDA_SPREAD_TOL


def test_euclidean_gradient_rejections():
    with pytest.raises(ValueError, match="positive"):
        exm.example_euclidean_gradient(3, 2.0, 0.0)
    with pytest.raises(ValueError, match="nonzero"):
        exm.example_euclidean_gradient(3, 0.0, 1.0)


def test_claimed_conformal_fails_with_exact_entries():
    X, expect_failure = exm.example_euclidean_claimed_conformal(3)
    assert expect_failure
    E = sp.make_euclidean(3)
    pts = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.5, -0.5, 2.0]])
    v = so.conformal_killing_check(E.metric, X, pts)
    assert not v.conformal
    # traceless (i, n) entries are exactly x_i / 2
    T0 = v.traceless_part
    for i in range(2):
        vals = ex.eval_many([T0.comps[i][2]], pts)[0]
        np.testing.assert_allclose(vals, pts[:, i] / 2.0, atol=1e-10)


def test_claimed_conformal_run_counts_failure_as_success():
    run = exm.run_example("euclidean-conformal-claimed", count=80)
    assert run.passed
    assert not run.checks[0].passed
    assert run.notes  # the discrepancy is recorded


def test_corrected_conformal_passes_with_linear_factor():
    X, expect_failure = exm.example_euclidean_corrected_conformal(3)
    assert not expect_failure
    E = sp.make_euclidean(3)
    pts = so.default_points(E.chart, count=60)
    v = so.conformal_killing_check(E.metric, X, pts)
    assert v.conformal
    np.testing.assert_allclose(v.rho_samples, pts[:, 2], atol=1e-12)  # rho = x_n
    run = exm.run_example("euclidean-conformal-corrected", count=80)
    assert run.passed and run.checks[0].passed


def test_pseudo_hyperbolic_flat_fiber():
    run = exm.run_example("pseudo-hyperbolic", count=100)
    assert run.passed and run.classification == "expanding"
    by_name = {r.name: r for r in run.checks}
    assert "mu-constancy" in by_name
    assert abs(by_name["mu-constancy"].metadata["mu_estimate"]) < 1e-10
    assert "potential-hessian-equation" in by_name
    assert by_name["potential-hessian-equation"].sup < exm.HESSIAN_EQ_TOL


def test_pseudo_hyperbolic_negative_amplitude():
    run = exm.run_example("pseudo-hyperbolic", {"A": -1.0}, count=80)
    assert run.passed


def test_pseudo_hyperbolic_curved_fiber():
    m, l = 2.0, 3.0
    run = exm.run_example("pseudo-hyperbolic",
                          {"k": -4.0, "A": 2.0, "l": l, "m": m}, count=80)
    assert run.passed
    by_name = {r.name: r for r in run.checks}
    assert by_name["mu-constancy"].metadata["mu_estimate"] == pytest.approx(
        (m - 1.0) * l, abs=1e-8)
    # potential stays positive on the half-line chart
    u = run.structure.potential
    pts = so.default_points(run.structure, count=60)
    assert np.all(geo.eval_scalar(u, pts) > 0.0)


def test_pseudo_hyperbolic_free_h():
    run = exm.run_example("pseudo-hyperbolic", {"h_expr": "sinh(t)"}, count=80)
    assert run.passed
    by_name = {r.name: r for r in run.checks}
    assert "mu-constancy" not in by_name          # free form: no conserved quantity
    assert "eqpprinc-identity" not in by_name
    assert run.structure.h_form == so.FORM_FREE


def test_pseudo_hyperbolic_product_geometry():
    W, u_expr = exm.pseudo_hyperbolic_product(3, -1.0, 1.0, 0.0)
    assert W.dim == 3
    W, _ = exm.pseudo_hyperbolic_product(4, -1.0, 1.0, 2.0)
    assert W.fiber_dim == 3


@pytest.mark.parametrize("n", [3, 4])
def test_pseudo_hyperbolic_product_keeps_a_hyperbolic_fiber_for_tiny_l(n):
    # Ric_F = -(n-2)l g_F is within 1e-9 of flat here, yet the fiber is the
    # hyperbolic model scaled by (n-2)/((n-2)l) = 1e10, not a flat one
    W, _ = exm.pseudo_hyperbolic_product(n, -1.0, 1.0, 1e-10)
    model = sp.make_hyperbolic(n - 1)
    pts = geo.sample_points(model.chart, 16, 3)
    np.testing.assert_allclose(geo.eval_sym2_comps(W.fiber_metric.comps, pts),
                               1e10 * geo.eval_sym2_comps(model.metric.comps, pts),
                               rtol=1e-12)


def test_pseudo_hyperbolic_rejections():
    with pytest.raises(ValueError, match="n >= 3"):
        exm.example_pseudo_hyperbolic(2, -1.0, 1.0, 0.0, m=2.0)
    with pytest.raises(ValueError, match="k must be negative"):
        exm.example_pseudo_hyperbolic(3, 1.0, 1.0, 0.0, m=2.0)
    with pytest.raises(ValueError, match="A must be nonzero"):
        exm.example_pseudo_hyperbolic(3, -1.0, 0.0, 0.0, m=2.0)
    with pytest.raises(ValueError, match="l must be nonnegative"):
        exm.example_pseudo_hyperbolic(3, -1.0, 1.0, -1.0, m=2.0)
    with pytest.raises(ValueError, match="nonzero"):
        exm.example_pseudo_hyperbolic(3, -1.0, 1.0, 0.0, m=0.0)


def test_neg_m_sphere_suite():
    run = exm.run_example("neg-m-sphere", count=120)
    assert run.passed
    by_name = {r.name: r for r in run.checks}
    assert "eqpprinc-identity" in by_name
    assert "mu-constancy" not in by_name          # lambda varies
    assert run.classification == "shrinking"
    assert run.trivial is False


def test_neg_m_sphere_rejections():
    with pytest.raises(ValueError, match="b > |a|"):
        exm.example_neg_m_sphere(3, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        exm.example_neg_m_sphere(3, -2.0, 1.0, 2.0)


def test_run_example_unknown_id_and_param():
    with pytest.raises(ValueError, match="unknown example"):
        exm.run_example("torus-of-revolution")
    with pytest.raises(ValueError, match="unknown parameter"):
        exm.run_example("neg-m-sphere", {"radius": 2.0})


def test_example_spec_defaults_are_immutable_merge():
    spec = exm.EXAMPLES["pseudo-hyperbolic"]
    p = spec.params({"k": -2.0, "h_expr": None})
    assert p["k"] == -2.0 and p["h_expr"] is None
    assert dict(spec.defaults)["k"] == -1.0  # untouched


def test_runs_are_seed_deterministic():
    a = exm.run_example("neg-m-sphere", count=60, seed=9)
    b = exm.run_example("neg-m-sphere", count=60, seed=9)
    assert a.checks[0].sup == b.checks[0].sup
    assert a.checks[0].worst_point == b.checks[0].worst_point


def strict_calls(monkeypatch):
    """Record the roots of every strict ex.eval_many call from now on."""
    calls = []
    eval_many = ex.eval_many

    def recorded(exprs, points, binding=None, mode="strict"):
        exprs = list(exprs)
        if mode == "strict":
            calls.append(exprs)
        return eval_many(exprs, points, binding, mode)

    monkeypatch.setattr(ex, "eval_many", recorded)
    return calls


def test_structure_checks_evaluate_each_defining_residual_once(monkeypatch):
    s = exm.build_structure("neg-m-sphere")
    pts = so.default_points(s, 60)
    calls = strict_calls(monkeypatch)
    reps, _ = exm.structure_checks(s, pts, 1e-8)
    assert [r.name for r in reps] == ["soliton-residual", "gradient-soliton-residual",
                                      "divric-identity", "eqpprinc-identity"]
    # stage 1 with the triviality fields, the h = -m/u probe and stage 2
    assert len(calls) == 3
    for check in (so.soliton_check(s), so.soliton_check(s, gradient=True)):
        roots = {e for row in check[2] for e in row}
        assert sum(bool(roots & set(c)) for c in calls) == 1
    # the prechecks read the stage-1 reports
    assert reps[2].metadata["precheck_sup"] == reps[0].sup
    assert reps[3].metadata["precheck_sup"] == reps[1].sup


def test_triviality_conformal_and_mu_make_one_strict_call_each(monkeypatch):
    s = exm.build_structure("neg-m-sphere")
    ph = exm.build_structure("pseudo-hyperbolic")
    spec = exm.EXAMPLES["euclidean-conformal-corrected"]
    X, _ = spec.build(**spec.params(None))
    g = sp.make_euclidean(X.chart.dim).metric
    pts_s, pts_ph = so.default_points(s, 30), so.default_points(ph, 30)
    pts_e = so.default_points(g.chart, 30)
    calls = strict_calls(monkeypatch)
    counts = []
    for run in (lambda: so.triviality_check(s, pts_s),
                lambda: so.conformal_killing_check(g, X, pts_e),
                lambda: so.mu_report(ph, pts_ph, ph.m)):
        calls.clear()
        run()
        counts.append(len(calls))
    assert counts == [1, 1, 1]


def test_classify_makes_two_strict_calls(monkeypatch, capsys):
    # default_points' strict pass over h, lambda and u, then the triviality verdict
    calls = strict_calls(monkeypatch)
    assert cli.main(["classify", "--example", "neg-m-sphere"]) == 0
    assert len(calls) == 2


@pytest.mark.parametrize("argv, count", [
    # the sampler's strict pass, stage 1 with the triviality fields, then the
    # h = -m/u probe and stage 2
    (("verify-example", "neg-m-sphere"), 4),
    # as neg-m-sphere, plus make_warped's pass over the warping function, mu
    # and the Hessian equation
    (("verify-example", "pseudo-hyperbolic"), 7),
    (("verify-example", "space-form-gradient"), 3),
    (("verify-example", "euclidean-gradient"), 3),
    (("verify-manifest", str(MANIFESTS / "shell-neg-m-over-u.json")), 4),
    # h = m/u and no divergence identity: no stage 2
    (("verify-manifest", str(MANIFESTS / "flat-m-over-u.json")), 2),
    # the sampler's pass, then the precheck and the identity in one pass
    (("check-identity", "divric"), 2),
    (("check-identity", "eqpprinc"), 3),
], ids=lambda v: v if isinstance(v, int) else " ".join(Path(a).name for a in v))
def test_structure_commands_make_one_strict_call_per_stage(argv, count, monkeypatch,
                                                           capsys):
    calls = strict_calls(monkeypatch)
    assert cli.main([*argv, "--points", "40"]) == 0
    assert len(calls) == count


VECTOR_FIELD_MANIFEST = {
    "schema": mf.SCHEMA, "dimension": 2, "coordinates": ["x1", "x2"],
    "box": [[-1.0, 1.0], [-1.0, 1.0]], "metric": ["1", "0", "1"],
    # X = x is homothetic, with (1/2) L_X g = g: a trivial structure at lambda = h
    "structure": {"vector_field": ["x1", "x2"]}, "h": "1", "lambda": "1",
}


@pytest.mark.parametrize("source", [
    *(i for i, spec in exm.EXAMPLES.items() if spec.structure), "vector-field manifest"])
def test_structure_checks_verdict_equals_triviality_check(source):
    s = (mf.from_dict(VECTOR_FIELD_MANIFEST).structure if source == "vector-field manifest"
         else exm.build_structure(source))
    pts = so.default_points(s, 40)
    _, verdict = exm.structure_checks(s, pts, 1e-8)
    assert vars(verdict) == vars(so.triviality_check(s, pts, 1e-8))
    assert verdict.trivial == (source == "vector-field manifest")


def test_stage_two_runs_when_stage_one_passes_at_its_own_tolerance():
    # lambda off by 1e-7 leaves the defining residuals near 1.7e-7: past the
    # identities' own 1e-8 prechecks, within a stage-1 tolerance of 1e-5
    s = exm.build_structure("neg-m-sphere")
    shifted = so.SolitonStructure(
        s.metric, s.h, geo.ScalarField(s.chart, ex.add(s.lam.expr, ex.const(1e-7))),
        potential=s.potential, h_form=s.h_form, m=s.m)
    pts = so.default_points(shifted, 60)
    assert [r.name for r in exm.structure_checks(shifted, pts, 1e-8)[0]] == [
        "soliton-residual", "gradient-soliton-residual"]
    reps, _ = exm.structure_checks(shifted, pts, 1e-5)
    assert [r.name for r in reps] == ["soliton-residual", "gradient-soliton-residual",
                                      "divric-identity", "eqpprinc-identity"]
    assert reps[0].passed and 1e-8 < reps[0].sup < 1e-6
    assert reps[2].metadata["precheck_sup"] == reps[0].sup
    # the standalone identities keep their fixed 1e-8 precheck
    with pytest.raises(so.PreconditionError, match="exceeds 1e-08"):
        so.divric_identity_residual(shifted, pts)
    with pytest.raises(so.PreconditionError, match="exceeds 1e-08"):
        so.eqpprinc_residual(shifted, pts)
