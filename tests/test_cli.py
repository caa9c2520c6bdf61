# command-line interface: report schema, exit codes, determinism

import argparse
import ast
import gc
import hashlib
import importlib
import json
import math
import os
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from solitonlab import cli
from solitonlab import examples as exm
from solitonlab import expr as ex
from solitonlab import identities as idn
from solitonlab import manifest as mf
from solitonlab import soliton as so

REPORT_KEYS = {"version", "manifest_digest", "checks", "classification",
               "trivial", "pass"}
CHECK_KEYS = {"name", "points", "sup_residual", "tolerance", "pass", "worst_point"}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


ROOT = Path(__file__).resolve().parents[1]


def run_entry(*argv, stdout=subprocess.PIPE, unbuffered=None, preexec_fn=None):
    """Run ``python -m solitonlab.cli`` in a fresh process; stdout stays bytes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.run([sys.executable, "-m", "solitonlab.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, preexec_fn=preexec_fn)
    return proc.returncode, proc.stdout, proc.stderr.decode()


def flat_manifest(tmp_path, lam="0", name="flat.json"):
    doc = {
        "schema": mf.SCHEMA,
        "dimension": 3,
        "coordinates": ["x1", "x2", "x3"],
        "box": [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]],
        "metric": ["1", "0", "0", "1", "0", "1"],
        "structure": {"vector_field": ["0", "0", "0"]},
        "h": "1",
        "lambda": lam,
    }
    path = tmp_path / name
    mf.write(doc, str(path))
    return doc, str(path)


def test_verify_example_report_schema(capsys):
    code, out, _ = run_cli(capsys, "verify-example", "neg-m-sphere", "--points", "60")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == REPORT_KEYS
    assert doc["pass"] is True
    assert doc["classification"] == "shrinking"
    assert doc["trivial"] is False
    assert len(doc["manifest_digest"]) == 64
    names = [c["name"] for c in doc["checks"]]
    assert names[0] == "soliton-residual"
    assert "eqpprinc-identity" in names
    for c in doc["checks"]:
        assert set(c) == CHECK_KEYS
        assert c["points"] == 60
        assert len(c["worst_point"]) == 3


def test_verify_example_param_overrides(capsys):
    code, out, _ = run_cli(capsys, "verify-example", "euclidean-gradient",
                           "--points", "50", "--m", "-3.0")
    assert code == 0
    assert json.loads(out)["classification"] == "expanding"


def test_verify_example_expected_failure_is_success(capsys):
    code, out, _ = run_cli(capsys, "verify-example", "euclidean-conformal-claimed",
                           "--points", "50")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["checks"][0]["pass"] is False  # the claim does fail numerically


def test_verify_example_rejects_bad_parameters(capsys):
    code, out, err = run_cli(capsys, "verify-example", "space-form-gradient",
                             "--tau", "0.2")
    assert code == 2
    assert out == ""
    assert "invalid input" in err and "must exceed" in err


def test_neg_m_sphere_with_constant_potential_is_expected_trivial(capsys):
    # at a = 0, u = b is constant: the structure is trivial, as the catalog expects
    code, out, err = run_cli(capsys, "verify-example", "neg-m-sphere", "--a", "0",
                             "--points", "40")
    doc = json.loads(out)
    assert all(c["pass"] for c in doc["checks"])
    assert (code, err, doc["trivial"], doc["pass"]) == (0, "", True, True)


def test_verify_example_unknown_id_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        cli.main(["verify-example", "moebius-band"])


def test_json_flag_writes_stdout_bytes(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify-example", "euclidean-gradient",
                           "--points", "40", "--json", str(target))
    assert code == 0
    assert target.read_text() == out


def test_byte_identical_reports(capsys):
    args = ("verify-example", "pseudo-hyperbolic", "--points", "50")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_verify_manifest_flat(tmp_path, capsys):
    doc, path = flat_manifest(tmp_path)
    code, out, _ = run_cli(capsys, "verify-manifest", path, "--points", "40")
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True
    assert rep["classification"] == "steady"
    assert rep["trivial"] is True
    assert rep["manifest_digest"] == mf.digest(doc)


def test_verify_manifest_numeric_failure(tmp_path, capsys):
    _, path = flat_manifest(tmp_path, lam="0.1", name="off.json")
    code, out, _ = run_cli(capsys, "verify-manifest", path, "--points", "40")
    assert code == 1
    rep = json.loads(out)
    assert rep["pass"] is False
    assert rep["checks"][0]["sup_residual"] == pytest.approx(0.1 * math.sqrt(3.0))


def test_verify_manifest_input_errors(tmp_path, capsys):
    code, out, err = run_cli(capsys, "verify-manifest", str(tmp_path / "nope.json"))
    assert code == 2 and "manifest error" in err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "schema": mf.SCHEMA, "dimension": 2, "coordinates": ["x1", "x2"],
        "box": [[-1, 1], [-1, 1]], "metric": ["1", "0", "x3^^2"],
        "structure": {"potential": "x1"}, "h": "1", "lambda": "0"}))
    code, out, err = run_cli(capsys, "verify-manifest", str(bad))
    assert code == 2
    assert "metric[2]" in err and "offset" in err


def test_verify_manifest_scalar_division_by_zero_is_input_error(tmp_path):
    doc, path = flat_manifest(tmp_path, name="h-over-zero.json")
    doc["structure"] = {"vector_field": ["x1", "x2", "x3"]}  # h enters h/2 L_X g
    doc["h"] = "1/0"
    mf.write(doc, path)
    code, _, err = run_entry("verify-manifest", path, "--points", "20")
    assert code == 2
    assert "division by zero" in err
    assert "Traceback" not in err


def test_box_wider_than_a_float_spans_is_manifest_error(tmp_path):
    doc, path = flat_manifest(tmp_path, name="wide.json")
    doc["box"] = [[-1e308, 1e308]] * 3
    mf.write(doc, path)
    code, out, err = run_entry("verify-manifest", path, "--points", "20")
    assert code == 2 and out == b""
    assert err.startswith("manifest error: invalid chart:")
    assert "Traceback" not in err


@pytest.mark.parametrize("where,number,message", [
    ("box", "1" + "0" * 400, "box[0] must be [lo, hi] with lo < hi"),
    ("parameters", "1" + "0" * 400, "parameter 'a' must be a finite number"),
    ("form", "1" + "0" * 400, "form needs a finite m > 0"),
    ("form", "1e400", "form needs a finite m > 0"),
    ("h", '"1e400/(1 + x1^2)"', "h: number '1e400' is too large at offset 0"),
], ids=["box-int", "parameter-int", "m-int", "m-float", "h-literal"])
def test_number_past_the_float_range_is_manifest_error(where, number, message, tmp_path):
    doc, path = flat_manifest(tmp_path, name="big.json")
    if where == "box":
        doc["box"][0] = [-1.0, "BIG"]
    elif where == "parameters":
        doc["parameters"] = {"a": "BIG"}
    elif where == "h":
        doc["h"] = "BIG"
    else:
        doc["form"] = {"tag": "m-over-u", "m": "BIG"}
    Path(path).write_text(json.dumps(doc).replace('"BIG"', number))
    code, out, err = run_entry("verify-manifest", path, "--points", "20")
    assert code == 2 and out == b""
    assert err.strip() == f"manifest error: {message}"


@pytest.mark.parametrize("argv", [("verify-example", "neg-m-sphere"),
                                  ("check-identity", "eqpprinc")],
                         ids=["verify-example", "eqpprinc"])
def test_overflowing_gnorm_is_an_expression_error(argv):
    # at m = 1e200 the residual components are finite, but their squares in
    # the g-norm overflow: that is a domain fault, not an inf in the report
    code, out, err = run_entry(*argv, "--m", "1e200", "--points", "20")
    assert code == 2 and out == b""
    assert err == "expression error: non-finite g-norm at point index 0\n"


def test_stage_one_report_gates_stage_two(tmp_path, capsys):
    # lambda off by 1e-7: the defining residuals are 1.7e-7, so the suite
    # stops after stage 1 at the default tolerance, and at 1e-5 runs eqpprinc,
    # whose precheck reads the passing stage-1 report
    doc = json.loads((ROOT / "perfbench" / "manifests" / "shell-neg-m-over-u.json")
                     .read_text())
    doc["lambda"] = "1e-7 - 4.0/(x1^2 + x2^2 + x3^2 + tau)"
    path = tmp_path / "shell-shifted.json"
    mf.write(doc, str(path))
    for tol, want in ((None, [False, False]), ("1e-5", [True, True, False])):
        code, out, err = run_cli(capsys, "verify-manifest", str(path),
                                 *(("--tol", tol) if tol else ()))
        checks = json.loads(out)["checks"]
        assert code == 1 and err == ""
        assert [c["pass"] for c in checks] == want
        assert checks[0]["sup_residual"] == pytest.approx(math.sqrt(3) * 1e-7, rel=1e-6)
    assert checks[2]["name"] == "eqpprinc-identity"


@pytest.mark.parametrize("name", ["form", "tol", "res", "pts", "name"])
def test_parameter_named_like_a_report_field(name, tmp_path, capsys):
    # the flat m-over-u manifest with its constant 1.0 made a parameter
    source = ROOT / "perfbench" / "manifests" / "flat-m-over-u.json"
    doc = json.loads(source.read_text())
    for block, key in ((doc, "h"), (doc, "lambda"), (doc["structure"], "potential")):
        assert "1.0 +" in block[key]
        block[key] = block[key].replace("1.0 +", f"{name} +")
    doc["parameters"] = {name: 1.0}
    path = tmp_path / "renamed.json"
    mf.write(doc, str(path))
    code, out, err = run_cli(capsys, "verify-manifest", str(path), "--points", "40")
    assert code == 0 and err == ""
    want = json.loads(run_cli(capsys, "verify-manifest", str(source), "--points", "40")[1])
    got = json.loads(out)
    assert got.pop("manifest_digest") == mf.digest(doc)
    want.pop("manifest_digest")
    assert got == want


@pytest.mark.parametrize("argv", [("verify-manifest",), ("classify", "--manifest")],
                         ids=["verify-manifest", "classify"])
def test_folded_field_is_still_evaluated(tmp_path, argv):
    # Hess x1 = 0 on the flat plane, so h Hess u folds to 0 and no residual
    # evaluates h; sampling must still find h undefined at x1 <= 0
    path = tmp_path / "ln-h.json"
    mf.write({"schema": mf.SCHEMA, "dimension": 2, "coordinates": ["x1", "x2"],
              "box": [[-1.0, 1.0], [-1.0, 1.0]], "metric": ["1", "0", "1"],
              "structure": {"potential": "x1"}, "h": "ln(x1)", "lambda": "0"},
             str(path))
    code, out, err = run_entry(*argv, str(path), "--points", "20")
    assert code == 2
    assert out == b""
    assert err.strip() == ("expression error: logarithm of a non-positive value "
                           "at point index 2")


# a domain disk in a wider box: sampling evaluates the domain predicate in
# masked mode over points where 1 - x^2 - y^2 < 0, so every call takes the
# fault path; no benchmark workload reaches it
DISK = {"schema": "soliton-manifest/1", "dimension": 2, "coordinates": ["x", "y"],
        "box": [[-1.5, 1.5], [-1.5, 1.5]], "domain": ["sqrt(1 - x^2 - y^2)"],
        "metric": ["1", "0", "1"], "structure": {"potential": "1 + x^2 + y^2"},
        "h": "2/(1 + x^2 + y^2)", "lambda": "4/(1 + x^2 + y^2)",
        "form": {"tag": "m-over-u", "m": 2}}
DISK_SHA256 = {1: "ed73f1fc77ae9dfc75c279f4fcdf7a8f08187e51ee4849d1c6f80364c9a437bd",
               2: "cd0410d2e184a76c5db84b2dcf56f030568e8affc49ae581fccda34e1e68b4ea"}


def test_verify_manifest_on_a_disk_locates_masked_faults(tmp_path, capsys, monkeypatch):
    path = tmp_path / "disk.json"
    mf.write(DISK, str(path))
    located, locate = [], ex._locate
    monkeypatch.setattr(ex, "_locate", lambda *a: located.append(a[-1]) or locate(*a))
    for seed in (1, 2, 1):
        located.clear()
        code, out, _ = run_cli(capsys, "verify-manifest", str(path), "--seed", str(seed))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == DISK_SHA256[seed]
        assert located == ["masked", "masked"]


def test_verify_manifest_gradient_suite(tmp_path, capsys):
    s = exm.example_pseudo_hyperbolic(3, -1.0, 1.0, 0.0, m=2.0)
    path = tmp_path / "ph.json"
    mf.write(mf.structure_to_dict(s), str(path))
    code, out, _ = run_cli(capsys, "verify-manifest", str(path), "--points", "60")
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert names == ["soliton-residual", "gradient-soliton-residual",
                     "mu-constancy", "eqpprinc-identity"]


@pytest.mark.parametrize("name,extra", [
    ("bianchi", ("--random-metrics", "4", "--points", "30")),
    ("fg-formulas", ("--random-metrics", "3", "--points", "25")),
    ("lemma21", ("--random-metrics", "4", "--points", "30")),
    ("divric", ("--points", "60",)),
    ("eqpprinc", ("--points", "60",)),
    ("mu-const", ("--points", "60",)),
    ("conformal-factor", ("--points", "60",)),
    ("oneill", ("--points", "40",)),
])
def test_check_identity_all_names(name, extra, capsys):
    code, out, _ = run_cli(capsys, "check-identity", name, *extra)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["checks"], name


def test_check_identity_unknown_name(capsys):
    with pytest.raises(SystemExit):
        cli.main(["check-identity", "gauss-bonnet"])


@pytest.mark.parametrize("count", ["0", "-1"])
def test_check_identity_random_metrics_below_one_is_usage_error(count, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["check-identity", "bianchi", "--random-metrics", count])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --random-metrics: must be at least 1, got {count}" in err
    assert "Traceback" not in err


SEED_ARGVS = {
    "verify-example": ("verify-example", "neg-m-sphere"),
    "verify-manifest": ("verify-manifest", "missing.json"),
    "check-identity": ("check-identity", "bianchi"),
    "construct-warped": ("construct-warped", "--base", "neg-m-sphere"),
    "classify": ("classify", "--example", "neg-m-sphere"),
}


def test_seed_cases_cover_every_subcommand():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(SEED_ARGVS)


@pytest.mark.parametrize("seed", ["-1", "-3"])
@pytest.mark.parametrize("command", sorted(SEED_ARGVS))
def test_negative_seed_is_usage_error(command, seed, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([*SEED_ARGVS[command], "--seed", seed])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --seed: must be at least 0, got {seed}" in err
    assert "Traceback" not in err


def test_seed_zero_parses_to_int_zero():
    args = cli.build_parser().parse_args(["check-identity", "oneill", "--seed", "0"])
    assert args.seed == 0 and type(args.seed) is int


def test_dim_above_six_is_refused_before_any_metric_is_built(monkeypatch):
    # the symbolic inverse metric grows about 3x per dimension, so the parser
    # refuses a dimension past 6 instead of starting a build that runs for seconds
    monkeypatch.setattr(idn, "suite_metrics", lambda *a, **k: pytest.fail("metrics built"))
    for name in ("bianchi", "fg-formulas", "lemma21"):
        with pytest.raises(SystemExit) as info:
            cli.main(["check-identity", name, "--dim", "7", "--random-metrics", "1",
                      "--points", "1"])
        assert info.value.code == 2


def test_catalog_n_above_sixteen_is_refused_before_any_structure_is_built(
        monkeypatch, capsys):
    # a catalog build grows about as n^4, so the parser refuses --n past 16;
    # every entry's model space needs dimension 2, so it refuses --n below 2
    fail = lambda *a, **k: pytest.fail("structure built")  # noqa: E731
    for name in ("run_example", "build_structure", "pseudo_hyperbolic_product"):
        monkeypatch.setattr(exm, name, fail)
    for argv in (("verify-example", "euclidean-gradient"),
                 ("verify-example", "euclidean-conformal-claimed"),
                 ("verify-example", "space-form-gradient"),
                 ("verify-example", "neg-m-sphere"),
                 ("classify", "--example", "neg-m-sphere"),
                 ("construct-warped", "--base", "pseudo-hyperbolic"),
                 ("check-identity", "divric"), ("check-identity", "oneill")):
        for n, why in (("17", "at most 16"), ("1", "at least 2"), ("0", "at least 2")):
            with pytest.raises(SystemExit) as info:
                cli.main([*argv, "--n", n])
            assert info.value.code == 2
            assert f"argument --n: must be {why}, got {n}" in capsys.readouterr().err


SPREAD_ARGVS = [("verify-example", "neg-m-sphere"),
                ("verify-example", "space-form-gradient"),
                ("verify-example", "pseudo-hyperbolic"),
                ("classify", "--example", "neg-m-sphere"),
                ("check-identity", "mu-const")]


@pytest.mark.parametrize("argv", SPREAD_ARGVS, ids=" ".join)
def test_spread_over_one_point_is_a_precondition_error(argv, capsys):
    # one sample has no spread: lambda, homothety and mu would all read constant
    code, out, err = run_cli(capsys, *argv, "--points", "1")
    assert (code, out) == (2, "")
    assert err == ("precondition not met: a relative spread needs at least 2 sample "
                   "points (--points), got 1\n")


@pytest.mark.parametrize("name", ["bianchi", "oneill"])
def test_residual_only_identity_runs_at_one_point(name, capsys):
    code, out, err = run_cli(capsys, "check-identity", name, "--points", "1")
    assert (code, err, json.loads(out)["pass"]) == (0, "", True)


TWO_POINT_VERDICTS = {
    "verify-example neg-m-sphere": ("shrinking", False, [
        "soliton-residual", "gradient-soliton-residual", "divric-identity",
        "eqpprinc-identity"]),
    "verify-example space-form-gradient": ("shrinking", False, [
        "soliton-residual", "gradient-soliton-residual", "divric-identity"]),
    "verify-example pseudo-hyperbolic": ("expanding", False, [
        "soliton-residual", "gradient-soliton-residual", "divric-identity",
        "mu-constancy", "eqpprinc-identity", "potential-hessian-equation"]),
    "classify --example neg-m-sphere": ("shrinking", False, []),
    "check-identity mu-const": (None, None, ["mu-constancy"]),
}


@pytest.mark.parametrize("argv", SPREAD_ARGVS, ids=" ".join)
def test_spread_over_two_points_keeps_its_verdicts(argv, capsys):
    code, out, err = run_cli(capsys, *argv, "--points", "2")
    doc = json.loads(out)
    classification, trivial, names = TWO_POINT_VERDICTS[" ".join(argv)]
    assert (code, err, doc["pass"]) == (0, "", True)
    assert (doc["classification"], doc["trivial"]) == (classification, trivial)
    assert [(c["name"], c["pass"], c["points"]) for c in doc["checks"]] == [
        (name, True, 2) for name in names]


BAD_NUMBERS = [
    (("verify-example", "neg-m-sphere", "--tol", "nan"), "--tol: must be finite, got nan"),
    (("classify", "--example", "neg-m-sphere", "--tol", "nan"), "--tol: must be finite, got nan"),
    (("check-identity", "divric", "--tol", "inf"), "--tol: must be finite, got inf"),
    (("verify-example", "neg-m-sphere", "--tol", "-1"), "--tol: must be at least 0, got -1"),
    (("verify-example", "neg-m-sphere", "--points", "0"), "--points: must be at least 1, got 0"),
    (("check-identity", "bianchi", "--points", "-3"), "--points: must be at least 1, got -3"),
    (("check-identity", "bianchi", "--dim", "0"), "--dim: must be at least 1, got 0"),
    (("construct-warped", "--base", "neg-m-sphere", "--fiber-mu", "inf"),
     "--fiber-mu: must be finite, got inf"),
] + [(("verify-example", "pseudo-hyperbolic", f"{flag}={value}"),
      f"{flag}: must be finite, got {value}")
     for flag, value in (("--m", "nan"), ("--tau", "inf"), ("--k", "-inf"), ("--A", "1e999"),
                         ("--l", "NaN"), ("--a", "-Infinity"), ("--b", "nan"))] + [
    (("check-identity", "bianchi", "--dim", "7", "--random-metrics", "1", "--points", "1"),
     "--dim: invalid choice: 7 (choose from 1, 2, 3, 4, 5, 6)")]


@pytest.mark.parametrize("argv,message", BAD_NUMBERS)
def test_bad_numeric_flag_is_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(list(argv))
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {message}" in err
    assert "Traceback" not in err


def test_numeric_flags_keep_finite_values():
    args = cli.build_parser().parse_args(
        ["verify-example", "pseudo-hyperbolic", "--tol", "0", "--points", "7",
         "--k", "-16", "--A", "1e-300", "--m", "2.5"])
    assert (args.tol, args.points, args.k, args.A, args.m) == (0.0, 7, -16.0, 1e-300, 2.5)
    args = cli.build_parser().parse_args(["construct-warped", "--base", "x", "--fiber-mu", "-0.5"])
    assert args.fiber_mu == -0.5


FLOAT_FLAGS = [("verify-example", "pseudo-hyperbolic", flag)
               for flag in ("--m", "--tau", "--k", "--A", "--l", "--a", "--b")] + [
               ("construct-warped", "--base", "x", "--fiber-mu")]


@pytest.mark.parametrize("value", ["-1e1", "-.5e1", "-1.5E+2", "-2.e-1", "-16"])
@pytest.mark.parametrize("prefix", FLOAT_FLAGS, ids=lambda p: p[-1])
def test_negative_float_flag_values_parse_in_both_forms(prefix, value):
    *head, flag = prefix
    dest = flag.lstrip("-").replace("-", "_")
    apart = cli.build_parser().parse_args([*head, flag, value])
    joined = cli.build_parser().parse_args([*head, f"{flag}={value}"])
    assert getattr(apart, dest) == getattr(joined, dest) == float(value)


@pytest.mark.parametrize("value", ["-1e-3", "-.5e1", "-2"])
def test_negative_tolerance_is_rejected_in_both_forms(value, capsys):
    for argv in (["--tol", value], [f"--tol={value}"]):
        with pytest.raises(SystemExit) as info:
            cli.main(["verify-example", "neg-m-sphere", *argv])
        assert info.value.code == 2
        assert f"argument --tol: must be at least 0, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-inf", "-Infinity", "-nan", "-1e999"])
def test_negative_non_finite_value_is_rejected_in_both_forms(value, capsys):
    for argv in (["--k", value], [f"--k={value}"]):
        with pytest.raises(SystemExit) as info:
            cli.main(["verify-example", "pseudo-hyperbolic", *argv])
        assert info.value.code == 2
        assert f"argument --k: must be finite, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--k", "-abc"], ["--k=-abc"], ["--k", "-1e1x"],
                                  ["--k", "-e1"], ["--k", "-infx"]])
def test_non_numeric_float_flag_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify-example", "pseudo-hyperbolic", *argv])
    assert info.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_negative_exponent_flag_runs_like_joined_form(capsys):
    apart = run_cli(capsys, "verify-example", "pseudo-hyperbolic", "--k", "-1e1",
                    "--points", "20")
    joined = run_cli(capsys, "verify-example", "pseudo-hyperbolic", "--k=-1e1",
                     "--points", "20")
    assert apart == joined and apart[0] == 0


def test_construct_warped_round_trip(tmp_path, capsys):
    out_path = tmp_path / "product.json"
    code, out, _ = run_cli(capsys, "construct-warped", "--base", "pseudo-hyperbolic",
                           "--points", "60", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True and doc["trivial"] is True
    assert doc["classification"] == "expanding"
    assert doc["checks"][0]["name"] == "warped-einstein"
    # the written manifest is a 5-dimensional Einstein product
    man = mf.load(str(out_path))
    assert man.structure.chart.dim == 5
    assert man.document["lambda"] == "-4.0"
    code, out, _ = run_cli(capsys, "verify-manifest", str(out_path), "--points", "50")
    assert code == 0
    rep = json.loads(out)
    assert rep["trivial"] is True and rep["classification"] == "expanding"


def test_construct_warped_rejections(tmp_path, capsys):
    code, _, err = run_cli(capsys, "construct-warped", "--base", "pseudo-hyperbolic",
                           "--fiber-mu", "1.0", "--points", "40")
    assert code == 2 and "does not match" in err
    code, _, err = run_cli(capsys, "construct-warped", "--base", "neg-m-sphere",
                           "--points", "40")
    assert code == 2 and "not constant" in err
    code, _, err = run_cli(capsys, "construct-warped", "--base", "no-such-thing")
    assert code == 2 and "neither" in err
    code, _, err = run_cli(capsys, "construct-warped", "--base", "pseudo-hyperbolic",
                           "--fiber", "abstract", "--out", str(tmp_path / "x.json"))
    assert code == 2 and "no manifest" in err


def test_construct_warped_renames_fiber_coordinates_away_from_base_parameters(tmp_path,
                                                                            capsys):
    # u = x1 cosh t on the line, h = -2/u: mu = -1, so the hyperbolic fiber's
    # coordinates x1, x2 meet the base parameter x1 and must be renamed
    base = tmp_path / "line.json"
    mf.write({"schema": mf.SCHEMA, "dimension": 1, "coordinates": ["t"],
              "box": [[-1.5, 1.5]], "parameters": {"x1": 1.0}, "metric": ["1"],
              "structure": {"potential": "x1*cosh(t)"}, "h": "-2/cosh(t)", "lambda": "-2",
              "form": {"tag": "neg-m-over-u", "m": 2.0}}, str(base))
    out_path = tmp_path / "product.json"
    code, out, err = run_cli(capsys, "construct-warped", "--base", str(base),
                             "--points", "40", "--out", str(out_path))
    assert (code, err) == (0, "")
    assert json.loads(out)["checks"][0]["pass"] is True
    assert mf.load(str(out_path)).document["coordinates"] == ["t", "y1", "y2"]


@pytest.mark.parametrize("fiber", ["auto", "abstract"])
def test_construct_warped_refuses_a_warping_that_changes_sign(fiber, tmp_path, capsys):
    # u = sinh t is negative on half the box; an abstract fiber, which builds
    # no product, runs the same positivity check, and the sample prints as floats
    base = tmp_path / "sinh.json"
    mf.write({"schema": mf.SCHEMA, "dimension": 1, "coordinates": ["t"],
              "box": [[-1.5, 1.5]], "metric": ["1"], "structure": {"potential": "sinh(t)"},
              "h": "-2/sinh(t)", "lambda": "-2", "form": {"tag": "neg-m-over-u", "m": 2.0}},
             str(base))
    code, out, err = run_cli(capsys, "construct-warped", "--base", str(base),
                             "--fiber", fiber)
    assert (code, out) == (2, "")
    assert err == "geometry error: non-positive warping at sample (-1.4779131907469836,)\n"


# stdout SHA-256 at --seed 77 of the 15 catalog-cold argvs of perfbench/workloads.py,
# and of two products with an explicit curved fiber: pseudo-hyperbolic --l 4 has a
# hyperbolic one, and its construct-warped product a round fiber renamed to y1, y2.
# Recorded before make_warped moved fiber coordinates by the printer/parser round
# trip, which left every byte as it was.
CATALOG_DIGESTS = {
    "verify-example space-form-gradient --points 200":
        "cd4728eff5465186ae5ad19990a92cff28a758ed778e758b9ade21d3d5b9e4a4",
    "verify-example euclidean-gradient --points 200":
        "52086676405d1c3398e8a98415d6e3a6a895b687a18ab6bc06ffe643a695c3d8",
    "verify-example euclidean-conformal-claimed --points 200":
        "4fb81978dacbeb7947181851b7a55855979e87df06860c31cee2523bfcb33546",
    "verify-example euclidean-conformal-corrected --points 200":
        "f0d1b988e9a075edd25f2c6c937ec4047ecb28a7feb9e6c4384f4dc5cbf17b18",
    "verify-example pseudo-hyperbolic --points 200":
        "13b0abd76e6cc4d8bebbb0e01b588c000b98f47dc5c4181e108a475d569160b2",
    "verify-example neg-m-sphere --points 200":
        "1b1ff121cc387c61eb71cbb5fdad35a6e031f693a7b21bc80444a4cae00a45ac",
    "verify-manifest MANIFESTS/flat-m-over-u.json":
        "5313376f0db97ef1e32343005923b988dbcfac64b90a69839c27b0d272cd591d",
    "verify-manifest MANIFESTS/shell-neg-m-over-u.json":
        "f7472317e299fcf18b14a2e842dc4baffeee10e2ae236c9f5b1010d226c76ab0",
    "classify --example neg-m-sphere":
        "dc3154b24101cc27cff798cf7b528f4195341d4df59dde9c3ffe3b97fbc20c36",
    "construct-warped --base pseudo-hyperbolic --out TMP/product.json":
        "f64b4a1d8d828cdfe38680831ac2496736f16bdb0d26b3d14627e683b2e7c0bd",
    "check-identity divric":
        "b6d3ae7563c65cd2e26ed2ef6afc7ab8ed416457f307c51f4401868f094c35dc",
    "check-identity eqpprinc":
        "c049766e4bcb0f623c14403ea5048afff3a1d626a70e1175fe9679d451d936f9",
    "check-identity mu-const":
        "7c6e5066e34e7007ed3967c17a5f46b3f1735d05ea7fc61a81a21d628bc76e5a",
    "check-identity conformal-factor":
        "54c163494fe8b07c6cb8eb4efa125db568f3d5f6b61eda66e162d782df0f2afb",
    "check-identity oneill":
        "5ae7656098f9b8fba18ccf6d21872261f5ecc8bc6f5b1350a45b6d4ef1af64be",
    "verify-example pseudo-hyperbolic --l 4":
        "7d0941a60025425df8ac31605f3ed9a6a3822088cc9f67acd6af6a8c73eea006",
    "construct-warped --base pseudo-hyperbolic --l 4":
        "6122c54464ae4a4840c6b88dd03acb1ff8ff15246d10ec3f5fb699f60cae50df",
}


@pytest.mark.parametrize("argv", CATALOG_DIGESTS)
def test_catalog_report_bytes_are_pinned(argv, tmp_path, capsys):
    dirs = {"MANIFESTS": ROOT / "perfbench" / "manifests", "TMP": tmp_path}
    words = [word.partition("/") for word in argv.split()]
    code, out, _ = run_cli(capsys, *(str(dirs[head] / rest) if head in dirs else head
                                     for head, _, rest in words), "--seed", "77")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CATALOG_DIGESTS[argv]


def test_construct_warped_runs_mu_field_once(capsys, monkeypatch):
    calls = []
    mu_field = so.mu_field

    def counted(*args, **kwargs):
        calls.append(args)
        return mu_field(*args, **kwargs)

    monkeypatch.setattr(so, "mu_field", counted)
    code, _, _ = run_cli(capsys, "construct-warped", "--base", "pseudo-hyperbolic",
                         "--points", "40")
    assert code == 0 and len(calls) == 1


def test_construct_warped_abstract_fiber(capsys):
    code, out, _ = run_cli(capsys, "construct-warped", "--base", "pseudo-hyperbolic",
                           "--fiber", "abstract", "--points", "50")
    assert code == 0
    assert json.loads(out)["checks"][0]["name"] == "warped-einstein-base-block"


def test_explicit_fiber_above_sixteen_is_refused_before_sampling(monkeypatch, capsys):
    # the product chart's Ricci build grows with the fiber dimension as a
    # catalog's does with --n; an abstract fiber builds no chart
    monkeypatch.setattr(so, "default_points", lambda *a, **k: pytest.fail("sampled"))
    for argv in (("--m", "17"), ("--m", "17", "--fiber-dim", "17"),
                 ("--m", "17", "--fiber", "sphere")):
        code, out, err = run_cli(capsys, "construct-warped", "--base", "pseudo-hyperbolic",
                                 *argv)
        assert (code, out) == (2, "")
        assert err == ("invalid input: --fiber-dim (or the base's m) must be at most 16 "
                       "for an explicit fiber, got 17\n")
    monkeypatch.undo()
    code, _, _ = run_cli(capsys, "construct-warped", "--base", "pseudo-hyperbolic",
                         "--m", "40", "--fiber", "abstract", "--points", "20")
    assert code == 0


class Sampled(ValueError):
    pass


def refuse_sampling(*args, **kwargs):
    raise Sampled("sampled")


def test_construct_warped_admits_every_catalog_product(monkeypatch, capsys):
    # a catalog base of the largest --n times an explicit fiber of as many
    # passes the manifest dimension bound and goes on to sampling
    monkeypatch.setattr(so, "default_points", refuse_sampling)
    n = str(cli.MAX_CATALOG_N)
    assert 2 * cli.MAX_CATALOG_N <= mf.MAX_DIMENSION
    for example_id, spec in sorted(exm.EXAMPLES.items()):
        if spec.structure:
            code, _, err = run_cli(capsys, "construct-warped", "--base", example_id,
                                   "--n", n, "--fiber-dim", n)
            assert (code, err) == (2, "invalid input: sampled\n"), example_id


def test_construct_warped_refuses_a_product_past_the_dimension_bound(tmp_path, monkeypatch,
                                                                    capsys):
    dim = mf.MAX_DIMENSION - 1
    coords = [f"x{i + 1}" for i in range(dim)]
    base = tmp_path / "base.json"
    mf.write({"schema": mf.SCHEMA, "dimension": dim, "coordinates": coords,
              "box": [[-1.0, 1.0]] * dim,
              "metric": ["1" if i == j else "0" for i in range(dim) for j in range(i, dim)],
              "structure": {"potential": "x1"}, "h": "1", "lambda": "0"}, str(base))
    monkeypatch.setattr(so, "default_points", refuse_sampling)
    code, _, err = run_cli(capsys, "construct-warped", "--base", str(base), "--fiber-dim", "1")
    assert (code, err) == (2, "invalid input: sampled\n")
    for fiber in ("auto", "flat", "sphere"):
        code, out, err = run_cli(capsys, "construct-warped", "--base", str(base),
                                 "--fiber-dim", "2", "--fiber", fiber)
        assert (code, out) == (2, "")
        assert err == (f"invalid input: the product's dimension {dim + 2} exceeds a "
                       f"manifest's dimension bound {mf.MAX_DIMENSION}\n")
    code, _, err = run_cli(capsys, "construct-warped", "--base", str(base), "--fiber-dim", "2",
                           "--fiber", "abstract")
    assert (code, err) == (2, "invalid input: sampled\n")


def test_manifest_past_the_dimension_bound_exits_2(tmp_path, capsys):
    dim = mf.MAX_DIMENSION + 1
    path = tmp_path / "big.json"
    mf.write({"schema": mf.SCHEMA, "dimension": dim,
              "coordinates": [f"x{i + 1}" for i in range(dim)]}, str(path))
    for argv in (("verify-manifest", str(path)), ("classify", "--manifest", str(path)),
                 ("construct-warped", "--base", str(path), "--fiber-dim", "1")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"manifest error: dimension must be at most {mf.MAX_DIMENSION}, got {dim}\n"


def readme_commands():
    """The `solitonlab ...` lines of README's command-line block, with their
    continuation lines joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("solitonlab ")]


def test_readme_commands_cover_the_block():
    assert [argv[0] for argv in readme_commands()] == [
        "verify-example", "verify-example", "verify-manifest", "check-identity",
        "check-identity", "construct-warped", "classify"]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_runs(argv, tmp_path, capsys):
    # the placeholder manifest path becomes a real manifest, and --out a
    # file under tmp_path
    shell = str(ROOT / "perfbench" / "manifests" / "shell-neg-m-over-u.json")
    argv = [shell if a.startswith("path/to/") else
            str(tmp_path / Path(a).name) if prev == "--out" else a
            for prev, a in zip([None, *argv], argv)]
    assert run_cli(capsys, *argv)[0] == 0


def test_classify_example(capsys):
    code, out, _ = run_cli(capsys, "classify", "--example", "euclidean-gradient",
                           "--points", "40")
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == "shrinking"
    assert doc["trivial"] is False
    assert doc["checks"] == [] and doc["pass"] is True


def test_classify_manifest(tmp_path, capsys):
    _, path = flat_manifest(tmp_path)
    code, out, _ = run_cli(capsys, "classify", "--manifest", path, "--points", "30")
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == "steady" and doc["trivial"] is True


def test_classify_needs_exactly_one_source(tmp_path, capsys):
    code, _, err = run_cli(capsys, "classify")
    assert code == 2 and "exactly one" in err
    _, path = flat_manifest(tmp_path)
    code, _, err = run_cli(capsys, "classify", "--example", "neg-m-sphere",
                           "--manifest", path)
    assert code == 2 and "exactly one" in err


def _gradient_manifest(tmp_path):
    path = tmp_path / "ph.json"
    mf.write(mf.structure_to_dict(exm.build_structure("pseudo-hyperbolic")), str(path))
    return str(path)


UNREAD = [
    (("check-identity", "bianchi", "--m", "2"), "--m is not read by check-identity bianchi"),
    (("check-identity", "fg-formulas", "--n", "4"),
     "--n is not read by check-identity fg-formulas"),
    (("check-identity", "lemma21", "--h-expr", "x1"),
     "--h-expr is not read by check-identity lemma21"),
    (("check-identity", "conformal-factor", "--tau", "2"),
     "--tau is not read by check-identity conformal-factor"),
    (("check-identity", "oneill", "--m", "3"), "--m is not read by check-identity oneill"),
    (("check-identity", "oneill", "--h-expr", "sinh(t)"),
     "--h-expr is not read by check-identity oneill"),
    (("check-identity", "bianchi", "--example", "neg-m-sphere"),
     "--example is not read by check-identity bianchi"),
    (("check-identity", "oneill", "--example", "pseudo-hyperbolic"),
     "--example is not read by check-identity oneill"),
    (("check-identity", "conformal-factor", "--example", "neg-m-sphere"),
     "--example is not read by check-identity conformal-factor"),
    (("check-identity", "oneill", "--dim", "3"), "--dim is not read by check-identity oneill"),
    (("check-identity", "divric", "--random-metrics", "2"),
     "--random-metrics is not read by check-identity divric"),
    (("check-identity", "mu-const", "--dim", "4"),
     "--dim is not read by check-identity mu-const"),
    (("classify", "--manifest", "MANIFEST", "--a", "0.5"),
     "--a is not read by classify --manifest"),
    (("construct-warped", "--base", "MANIFEST", "--k", "-2"),
     "--k is not read by construct-warped from a manifest"),
    (("verify-example", "pseudo-hyperbolic", "--m", "5", "--h-expr", "sinh(t)"),
     "pseudo-hyperbolic takes 'm' or 'h_expr', not both"),
]


@pytest.mark.parametrize("argv,message", UNREAD, ids=[" ".join(a) for a, _ in UNREAD])
def test_option_the_command_does_not_read_is_input_error(argv, message, tmp_path, capsys):
    argv = [_gradient_manifest(tmp_path) if a == "MANIFEST" else a for a in argv]
    code, out, err = run_cli(capsys, *argv, "--points", "20")
    assert (code, out, err) == (2, "", f"invalid input: {message}\n")


def _hidden_flags():
    parser = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)).choices["verify-example"]
    return {a.dest: a for a in parser._actions if a.help == argparse.SUPPRESS}


def test_hidden_flags_are_the_catalog_parameters():
    flags = _hidden_flags()
    defaults = {name: value for spec in exm.EXAMPLES.values() for name, value in spec.defaults}
    assert set(flags) == set(defaults)
    for name, value in defaults.items():
        assert flags[name].option_strings == ["--" + name.replace("_", "-")]
        assert flags[name].type is (cli.catalog_n if name == "n" else {
            int: int, float: cli.finite_float, type(None): str}[type(value)])


@pytest.mark.parametrize("example_id", list(exm.EXAMPLES))
def test_parameter_flag_at_its_default_leaves_the_report_unchanged(example_id, capsys):
    argv = ("verify-example", example_id, "--points", "20")
    want = run_cli(capsys, *argv)
    for name, value in exm.EXAMPLES[example_id].defaults:
        if value is not None:
            flag = "--" + name.replace("_", "-")
            assert run_cli(capsys, *argv, f"{flag}={value}") == want, flag


def test_suite_row_applies_the_default_dimension_and_metric_count(capsys):
    argv = ("check-identity", "lemma21", "--points", "10")
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--dim", "3",
                                             "--random-metrics", "20")


_REPORT_ARGV = ("verify-example", "neg-m-sphere", "--points", "20")


@pytest.mark.parametrize("argv,unbuffered", [
    pytest.param(_REPORT_ARGV, None, id="buffered"),
    pytest.param(_REPORT_ARGV, "1", id="unbuffered"),
    pytest.param(("--version",), None, id="version-buffered"),
    pytest.param(("--version",), "1", id="version-unbuffered"),
    pytest.param(("--help",), None, id="help-buffered"),
    pytest.param(("--help",), "1", id="help-unbuffered"),
])
def test_closed_stdout_is_io_error(argv, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code, _, err = run_entry(*argv, stdout=write_end, unbuffered=unbuffered)
    finally:
        os.close(write_end)
    assert code == 2
    assert err.startswith("io error: ")
    assert "Traceback" not in err and "Exception ignored" not in err


def test_deeply_nested_expression_is_expression_error(tmp_path):
    doc, path = flat_manifest(tmp_path, name="deep.json")
    doc["structure"] = {"potential": "1.0 + (x1^2 + x2^2) + 1e-30*("
                                     + " + ".join(["x1*x2"] * 1500) + ")"}
    mf.write(doc, path)
    code, out, err = run_entry("verify-manifest", path, "--points", "20")
    assert code == 2
    assert out == b""
    assert err.startswith("expression error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("terms,code,err", [
    (600, 0, ""), (1200, 2, "expression error: maximum recursion depth exceeded\n")])
def test_sum_depth_is_bounded_by_the_recursion_limit(terms, code, err, tmp_path):
    # + nests to the left, so a sum of N terms is N levels deep; Hess u = 0.4 g
    doc, path = flat_manifest(tmp_path, lam="0.4", name="sum.json")
    doc["structure"] = {"potential": " + ".join(
        ["0.001*x1^2 + 0.001*x2^2 + 0.001*x3^2"] * (terms // 3))}
    mf.write(doc, path)
    got, out, got_err = run_entry("verify-manifest", path, "--points", "20")
    assert (got, got_err) == (code, err)
    assert (out == b"") == (code == 2)


def test_mu_const_on_varying_lambda_is_a_precondition_error(capsys):
    # lambda's constancy is decided before mu is reported
    code, out, err = run_cli(capsys, "check-identity", "mu-const", "--example", "neg-m-sphere")
    assert (code, out) == (2, "")
    assert err == ("precondition not met: lambda is not constant (relative spread "
                   "4.907e-01); the conserved quantity needs an h-Ricci soliton\n")


@pytest.mark.parametrize("enabled", [True, False])
def test_out_of_memory_is_an_input_error(enabled, monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_check_identity", exhausted)
    was = gc.isenabled()
    set_gc(enabled)
    try:
        code, out, err = run_cli(capsys, "check-identity", "bianchi")
        assert gc.isenabled() is enabled
    finally:
        set_gc(was)
    assert (code, out) == (2, "")
    assert err.startswith("out of memory: ") and "--points" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux-only")
def test_entry_out_of_memory_exits_2(monkeypatch):
    # a 512 MB address space leaves room for a small run but not for the
    # arrays of 10,000,000 samples: a suite evaluates one block of points at
    # a time, but each copy of its points takes 240 MB
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    argv = ("check-identity", "bianchi", "--random-metrics", "1", "--points")
    assert run_entry(*argv, "30", preexec_fn=limit)[0] == 0
    code, out, err = run_entry(*argv, "10000000", preexec_fn=limit)
    assert (code, out) == (2, b"")
    assert err.startswith("out of memory: ") and "--points" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("lam,expected", [("0", 0), ("0.1", 1)])
def test_entry_stdout_matches_main_and_json_file(lam, expected, tmp_path, capsys):
    _, path = flat_manifest(tmp_path, lam=lam)
    target = tmp_path / "report.json"
    code, out, err = run_entry("verify-manifest", path, "--points", "40",
                               "--json", str(target))
    assert code == expected and err == ""
    in_code, in_out, _ = run_cli(capsys, "verify-manifest", path, "--points", "40")
    assert in_code == expected
    assert out == in_out.encode() == target.read_bytes()


def test_entry_version_and_usage_error():
    from solitonlab import __version__
    code, out, err = run_entry("--version")
    assert (code, out, err) == (0, f"{__version__}\n".encode(), "")
    code, out, err = run_entry("verify-example", "moebius-band")
    assert code == 2 and out == b""
    assert "invalid choice" in err and "Traceback" not in err


def set_gc(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_gc_state(enabled, tmp_path):
    _, path = flat_manifest(tmp_path)
    was = gc.isenabled()
    set_gc(enabled)
    try:
        assert cli.main(["verify-manifest", path, "--points", "20"]) == 0
        assert gc.isenabled() is enabled
        assert cli.main(["verify-manifest", str(tmp_path / "nope.json")]) == 2
        assert gc.isenabled() is enabled
        with pytest.raises(SystemExit):
            cli.main(["verify-example", "moebius-band"])
        assert gc.isenabled() is enabled
    finally:
        set_gc(was)


def test_main_builds_the_parser_once(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_PARSER", None, raising=False)
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
    for argv in (["verify-manifest", "missing.json"], ["classify"],
                 ["check-identity", "oneill", "--points", "2"]):
        assert cli.main(argv) in (0, 2)
    for argv in (["--version"], ["verify-example", "moebius-band"]):
        with pytest.raises(SystemExit):
            cli.main(argv)
    assert len(calls) == 1


def test_wrapper_set_after_the_first_call_is_the_one_that_runs(monkeypatch, capsys):
    cli.main(["classify"])  # exit 2 (no source), but the parser is built
    seen = []
    classify = cli.cmd_classify

    def wrapped(args):
        seen.append(args.example)
        return classify(args)

    monkeypatch.setattr(cli, "cmd_classify", wrapped)
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    code, out, _ = run_cli(capsys, "classify", "--example", "neg-m-sphere",
                           "--points", "20")
    assert code == 0 and json.loads(out)["trivial"] is False
    assert seen == ["neg-m-sphere"]


_MANIFEST = str(ROOT / "perfbench" / "manifests" / "shell-neg-m-over-u.json")

# every command kind; an option given, then omitted; --tol, then the
# identity's own; a precondition error, a usage error and --version
SESSION = [
    ("verify-example", "neg-m-sphere", "--points", "20", "--a", "0.5"),
    ("verify-example", "neg-m-sphere", "--points", "20"),
    ("check-identity", "divric", "--points", "20", "--tol", "1e-3"),
    ("check-identity", "divric", "--points", "20"),
    ("verify-manifest", _MANIFEST, "--points", "20"),
    ("classify", "--example", "pseudo-hyperbolic", "--points", "20", "--l", "4"),
    ("classify", "--example", "pseudo-hyperbolic", "--points", "20"),
    ("construct-warped", "--base", "pseudo-hyperbolic", "--points", "20", "--seed", "7"),
    ("check-identity", "lemma21", "--dim", "2", "--random-metrics", "2", "--points", "5"),
    ("check-identity", "mu-const", "--points", "1"),
    ("verify-example", "moebius-band"),
    ("--version",),
    ("verify-example", "neg-m-sphere", "--points", "20", "--a", "0.5"),
]


def test_in_process_session_matches_fresh_processes(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # the width of usage lines, in both
    got = []
    for argv in SESSION:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        got.append((code, out.out.encode(), out.err))
    with ThreadPoolExecutor(max_workers=2) as pool:
        want = list(pool.map(lambda argv: run_entry(*argv), SESSION))
    assert [w[0] for w in want] == [0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 0, 0]
    for argv, g, w in zip(SESSION, got, want):
        assert g == w, argv


def test_console_script_is_the_main_block_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["solitonlab"]
    module, _, attr = target.partition(":")
    func = getattr(importlib.import_module(module), attr)
    tree = ast.parse(Path(cli.__file__).read_text())
    [block] = [node for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    [stmt] = block.body
    assert isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
    assert getattr(cli, stmt.value.func.id) is func
