# command-line interface: report schema, exit codes, determinism

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from solitonlab import cli
from solitonlab import examples as exm
from solitonlab import manifest as mf

REPORT_KEYS = {"version", "manifest_digest", "checks", "classification",
               "trivial", "pass"}
CHECK_KEYS = {"name", "points", "sup_residual", "tolerance", "pass", "worst_point"}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "solitonlab.cli", "verify-manifest", path,
                           "--points", "20"], capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "division by zero" in proc.stderr
    assert "Traceback" not in proc.stderr


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
    assert man.chart.dim == 5
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


def test_construct_warped_abstract_fiber(capsys):
    code, out, _ = run_cli(capsys, "construct-warped", "--base", "pseudo-hyperbolic",
                           "--fiber", "abstract", "--points", "50")
    assert code == 0
    assert json.loads(out)["checks"][0]["name"] == "warped-einstein-base-block"


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
