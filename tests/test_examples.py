# the worked-example catalog and its suite runner

import json
import math
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


@pytest.mark.parametrize("argv", [
    "verify-example pseudo-hyperbolic --l 1e-16",
    "check-identity oneill --l 1e-17",
    "verify-example pseudo-hyperbolic --A 1e10 --l 1e3",
    "construct-warped --base pseudo-hyperbolic --A -2 --l 1e-16",
])
def test_l_below_the_rounding_of_a_squared_is_refused_by_name(argv, capsys):
    # sqrt(A^2 + l) rounds to |A|, so the zero of f' that bounds the box,
    # artanh(-A/sqrt(A^2 + l))/s, would be artanh(+-1)
    assert cli.main(argv.split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: l = ") and "rounding of A^2" in err


def test_smallest_accepted_l_keeps_its_box():
    # one step above the refusal, the box still sits past the zero of f'
    W, _ = exm.pseudo_hyperbolic_product(3, -1.0, 1.0, 4e-16)
    (lo, hi), = W.chart.box[:1]
    t0 = math.atanh(-1.0 / math.sqrt(1.0 + 4e-16))
    assert (lo, hi) == (t0 + 0.15, t0 + 2.15)
    with pytest.raises(ValueError, match="l = 1e-16 is below the rounding of A"):
        exm.pseudo_hyperbolic_product(3, -1.0, 1.0, 1e-16)


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
    # the defining residuals, the identities, the triviality fields, the
    # h = -m/u probe and mu, all in one pass
    assert len(calls) == 1
    scalars = [so.divric_check(s)[2], so.neg_form_probe(s), so.mu_scalar_field(s).expr,
               *so.triviality_fields(s)[1:]]
    assert set(scalars + list(so.eqpprinc_check(s)[2])) <= set(calls[0])
    for check in (so.soliton_check(s), so.soliton_check(s, gradient=True)):
        assert {e for row in check[2] for e in row} <= set(calls[0])
    # the prechecks read the defining reports
    assert reps[2].metadata["precheck_sup"] == reps[0].sup
    assert reps[3].metadata["precheck_sup"] == reps[1].sup


def test_triviality_conformal_and_mu_field_make_one_strict_call_each(monkeypatch):
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
                lambda: so.mu_field(ph, pts_ph)):
        calls.clear()
        run()
        counts.append(len(calls))
    assert counts == [1, 1, 1]


def test_classify_makes_two_strict_calls(monkeypatch, capsys):
    # default_points' strict pass over h, lambda and u, then the triviality verdict
    calls = strict_calls(monkeypatch)
    assert cli.main(["classify", "--example", "neg-m-sphere"]) == 0
    assert len(calls) == 2


@pytest.mark.parametrize("argv", [
    # the sampler's strict pass over h, lambda and u, then one suite pass:
    # pseudo-hyperbolic's also holds mu and the entry's Hessian equation, and
    # make_warped's pass over the warping function belongs to the
    # construction, which a warm call takes from the catalog's memo
    ("verify-example", "neg-m-sphere"),
    ("verify-example", "pseudo-hyperbolic"),
    ("verify-example", "space-form-gradient"),
    ("verify-example", "euclidean-gradient"),
    ("verify-manifest", str(MANIFESTS / "shell-neg-m-over-u.json")),
    ("verify-manifest", str(MANIFESTS / "flat-m-over-u.json")),
    # the identity, its precheck and the h = -m/u probe (with lambda and mu)
    ("check-identity", "divric"),
    ("check-identity", "eqpprinc"),
    ("check-identity", "mu-const"),
    # no metric to sample on: R's pass (rank 0), then both checks in one
    ("check-identity", "conformal-factor"),
], ids=lambda v: " ".join(Path(a).name for a in v))
def test_structure_commands_make_two_strict_calls(argv, monkeypatch, capsys):
    assert cli.main([*argv, "--points", "40", "--seed", "1"]) == 0
    calls = strict_calls(monkeypatch)
    assert cli.main([*argv, "--points", "40"]) == 0
    assert len(calls) == 2


@pytest.mark.parametrize("name", ["eqpprinc", "mu-const"])
def test_a_form_precondition_is_refused_before_the_check_is_evaluated(name, monkeypatch,
                                                                      capsys):
    calls = strict_calls(monkeypatch)
    argv = ["check-identity", name, "--example", "space-form-gradient", "--points", "40"]
    assert cli.main(argv) == 2
    assert len(calls) == 1  # the sampler's pass over h, lambda and u only
    assert capsys.readouterr().err == ("precondition not met: this check needs "
                                       "the declared form h = -m/u\n")


def test_an_identity_that_faults_is_an_input_error_when_the_residual_fails(tmp_path,
                                                                          capsys):
    # lambda gains 1e145 sin(1e15 x1): the soliton residual fails at about
    # 1.7e145, while eqpprinc-identity's d(lambda) terms near 1e160 overflow
    # their g-norm.  The suite's one pass evaluates the identity whether or
    # not the residual passes, so the command names the fault
    doc = json.loads((MANIFESTS / "shell-neg-m-over-u.json").read_text(encoding="utf-8"))
    doc["lambda"] += " + 1e145*sin(1e15*x1)"
    path = tmp_path / "faulting.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["verify-manifest", str(path), "--points", "40"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "expression error: non-finite g-norm at point index 0\n"


STRUCTURE_IDS = [i for i, spec in exm.EXAMPLES.items() if spec.structure]


@pytest.mark.parametrize("seed", [3, 42])
@pytest.mark.parametrize("example_id", STRUCTURE_IDS)
def test_a_structure_gets_one_suite_from_the_catalog_and_from_a_manifest(
        example_id, seed, tmp_path, capsys):
    spec = exm.EXAMPLES[example_id]
    s = exm.build_structure(example_id)
    own = {name for name, _, _ in spec.checks(s, spec.params())}
    path = tmp_path / "structure.json"
    mf.write(mf.structure_to_dict(s), str(path))
    docs = []
    for argv in (["verify-example", example_id], ["verify-manifest", str(path)]):
        assert cli.main([*argv, "--points", "40", "--seed", str(seed)]) == 0
        docs.append(json.loads(capsys.readouterr().out))
    catalog, manifest = docs
    assert manifest["checks"] == [c for c in catalog["checks"]
                                  if c["name"] not in own | {"divric-identity"}]
    for key in ("classification", "trivial", "manifest_digest"):
        assert manifest[key] == catalog[key]


@pytest.mark.parametrize("argv", [
    # one suite pass holds the identities and the entry's Hessian equation
    ("verify-example", "pseudo-hyperbolic"),
    ("verify-example", "neg-m-sphere"),
    ("verify-manifest", str(MANIFESTS / "shell-neg-m-over-u.json")),
    # R is rank 0; the factor's Hessian equation and factor-potential share a pass
    ("check-identity", "conformal-factor"),
    ("check-identity", "divric"),
    ("classify", "--example", "neg-m-sphere"),
    # metrics bound in lanes, a warped product, and the construction's checks
    ("check-identity", "bianchi", "--dim", "3", "--random-metrics", "4"),
    ("check-identity", "oneill"),
    ("construct-warped", "--base", "pseudo-hyperbolic"),
], ids=lambda v: " ".join(Path(a).name for a in v))
def test_a_command_calls_no_numeric_inverse(argv, monkeypatch, capsys):
    # every g-norm reduces with the evaluated inverse_metric rows
    def refused(a):
        raise AssertionError(f"np.linalg.inv called on a {np.shape(a)} array")

    monkeypatch.setattr(np.linalg, "inv", refused)
    assert cli.main([*argv, "--points", "40"]) == 0


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
    # identities' own 1e-8 prechecks, within a suite tolerance of 1e-5
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


# every catalog-cold template of perfbench/workloads.py, at 20 points
CATALOG_ARGVS = [
    *(("verify-example", i) for i in exm.EXAMPLES),
    ("verify-manifest", str(MANIFESTS / "flat-m-over-u.json")),
    ("verify-manifest", str(MANIFESTS / "shell-neg-m-over-u.json")),
    ("classify", "--example", "neg-m-sphere"),
    ("construct-warped", "--base", "pseudo-hyperbolic", "--out", "{tmp}/product.json"),
    *(("check-identity", name) for name in ("divric", "eqpprinc", "mu-const",
                                            "conformal-factor", "oneill")),
]


@pytest.mark.parametrize("argv", CATALOG_ARGVS,
                         ids=[" ".join(Path(a).name for a in v) for v in CATALOG_ARGVS])
def test_warm_catalog_calls_construct_nothing(argv, monkeypatch, tmp_path, capsys):
    # a second call at a new seed takes its structure, its digest and its
    # parsed manifest from the memos; construct-warped still builds its
    # product (make_warped checks the warping) and serializes it for --out
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv] + ["--points", "20"]
    assert cli.main([*argv, "--seed", "100"]) == 0
    calls = []

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counted

    for i, spec in exm.EXAMPLES.items():
        fields = dict(zip(spec._fields, (getattr(spec, f) for f in spec._fields)))
        fields["build"] = spy(i, spec.build)
        monkeypatch.setitem(exm.EXAMPLES, i, exm.ExampleSpec(**fields))
    # the body of the memoized pseudo_hyperbolic_product starts with the base
    for mod, name in ((exm, "_pseudo_hyperbolic_base"), (sp, "check_warping"),
                      (mf, "from_dict"), (mf, "structure_to_dict")):
        monkeypatch.setattr(mod, name, spy(name, getattr(mod, name)))
    assert cli.main([*argv, "--seed", "101"]) == 0
    product = argv[0] == "construct-warped"
    assert sorted(calls) == (["check_warping", "structure_to_dict"] if product else [])
