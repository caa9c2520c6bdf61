# manifest schema: validation, digests, serialization round trips

import hashlib
import json

import numpy as np
import pytest

from solitonlab import examples as exm
from solitonlab import manifest as mf
from solitonlab import soliton as so


def flat_doc(**overrides):
    doc = {
        "schema": mf.SCHEMA,
        "dimension": 3,
        "coordinates": ["x1", "x2", "x3"],
        "box": [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]],
        "metric": ["1", "0", "0", "1", "0", "1"],
        "structure": {"vector_field": ["0", "0", "0"]},
        "h": "1",
        "lambda": "0",
    }
    doc.update(overrides)
    return doc


def test_valid_flat_manifest():
    man = mf.from_dict(flat_doc())
    assert not man.structure.is_gradient
    assert man.structure.chart.dim == 3
    s = man.structure
    rep = so.soliton_residual(s, so.default_points(s, count=20))
    assert rep.passed and rep.sup == 0.0


def test_digest_is_sha256_of_canonical_json():
    doc = flat_doc()
    want = hashlib.sha256(
        (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()
    ).hexdigest()
    assert mf.digest(doc) == want
    # key order in the input dict is irrelevant
    shuffled = dict(reversed(list(doc.items())))
    assert mf.digest(shuffled) == want
    assert mf.from_dict(doc).digest == want


def test_canonical_bytes_reject_nan():
    with pytest.raises(ValueError):
        mf.canonical_bytes({"x": float("nan")})


@pytest.mark.parametrize("mutate,field", [
    ({"schema": "soliton-manifest/2"}, "schema"),
    ({"dimension": 0}, "dimension"),
    ({"dimension": True}, "dimension"),
    ({"dimension": "3"}, "dimension"),
    ({"coordinates": ["x1", "x2"]}, "coordinates"),
    ({"coordinates": ["x1", "x2", 3]}, "coordinates"),
    ({"box": [[-1, 1], [-1, 1]]}, "box"),
    ({"box": [[-1, 1], [-1, 1], [2, 1]]}, "box"),
    ({"box": [[-1, 1], [-1, 1], [0, None]]}, "box"),
    ({"metric": ["1", "0", "0", "1", "0"]}, "metric"),
    ({"parameters": [1, 2]}, "parameters"),
    ({"parameters": {"tau": float("inf")}}, "parameters"),
    ({"structure": {}}, "structure"),
    ({"structure": {"potential": "x1", "vector_field": ["0", "0", "0"]}},
     "structure"),
    ({"structure": {"vector_field": ["0", "0"]}}, "structure"),
    ({"form": {"tag": "sideways"}}, "form"),
    ({"form": {"tag": "m-over-u"}}, "form"),
    ({"form": {"tag": "m-over-u", "m": -2}}, "form"),
])
def test_validation_failures_name_the_field(mutate, field):
    doc = flat_doc(**mutate)
    with pytest.raises(mf.ManifestError) as info:
        mf.from_dict(doc)
    assert info.value.field == field


def test_missing_required_field():
    doc = flat_doc()
    del doc["h"]
    with pytest.raises(mf.ManifestError, match="missing field 'h'"):
        mf.from_dict(doc)


def test_bad_expression_reports_field_and_offset():
    doc = flat_doc(metric=["1", "0", "0", "1", "0", "x3^^2"])
    with pytest.raises(mf.ManifestError) as info:
        mf.from_dict(doc)
    assert info.value.field == "metric[5]"
    assert info.value.position == 2
    assert "at offset 2" in str(info.value)
    doc = flat_doc(h="unknown_thing")
    with pytest.raises(mf.ManifestError) as info:
        mf.from_dict(doc)
    assert info.value.field == "h" and info.value.position == 0


def test_expression_identifiers_restricted_to_declared_names():
    # x4 is not a coordinate of a 3-dimensional chart
    doc = flat_doc(h="x4")
    with pytest.raises(mf.ManifestError, match="unknown identifier"):
        mf.from_dict(doc)
    # but a declared parameter is fine
    doc = flat_doc(parameters={"tau": 2.5}, h="tau")
    man = mf.from_dict(doc)
    assert man.structure.chart.binding == {"tau": 2.5}


def test_form_block_round_trip_consistency():
    # declaring m-over-u with a vector-field structure must be rejected
    doc = flat_doc(form={"tag": "m-over-u", "m": 2.0})
    with pytest.raises(mf.ManifestError, match="inconsistent structure"):
        mf.from_dict(doc)
    doc = flat_doc(structure={"potential": "x1"},
                   form={"tag": "neg-m-over-u", "m": 2.0})
    man = mf.from_dict(doc)
    s = man.structure
    assert s.h_form == so.FORM_NEG_M_OVER_U and s.m == 2.0


def test_structure_to_dict_round_trip():
    s = exm.example_neg_m_sphere(3, 2.0, 1.0, 2.0)
    doc = mf.structure_to_dict(s)
    assert doc["schema"] == mf.SCHEMA
    assert len(doc["metric"]) == 6
    assert doc["form"] == {"tag": "neg-m-over-u", "m": 2.0}
    assert "parameters" not in doc          # example carries no binding
    man = mf.from_dict(doc)
    s2 = man.structure
    pts = so.default_points(s2, count=40)
    rep = so.gradient_soliton_residual(s2, pts)
    assert rep.passed
    # serialization is stable: dict -> structure -> dict is a fixed point
    assert mf.structure_to_dict(s2) == doc


def test_structure_to_dict_emits_domain():
    # l > 0: base predicate u > 0 plus the hyperbolic fiber's half-space
    s = exm.example_pseudo_hyperbolic(3, -4.0, 2.0, 3.0, m=2.0)
    doc = mf.structure_to_dict(s)
    assert "domain" in doc and len(doc["domain"]) == 2
    man = mf.from_dict(doc)
    assert len(man.structure.chart.domain) == 2
    s2 = man.structure
    assert so.gradient_soliton_residual(s2, so.default_points(s2, count=40)).passed


def test_write_and_load_round_trip(tmp_path):
    doc = mf.structure_to_dict(exm.example_euclidean_gradient(3, 3.0, 1.0))
    path = tmp_path / "m.json"
    mf.write(doc, str(path))
    man = mf.load(str(path))
    assert man.digest == mf.digest(doc)
    # the file is pretty-printed with sorted keys and a trailing newline
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == doc


def test_load_reuses_the_structure_of_a_text_and_parses_a_fresh_document(tmp_path):
    doc = flat_doc()
    path = tmp_path / "m.json"
    mf.write(doc, str(path))
    first, second = mf.load(str(path)), mf.load(str(path))
    assert second.structure is first.structure and second.digest == first.digest
    assert second.document == doc and second.document is not first.document
    first.document["lambda"] = "1"
    assert mf.load(str(path)).document == doc
    # the file is read at every call: new bytes load as a new manifest
    mf.write(flat_doc(**{"lambda": "2"}), str(path))
    third = mf.load(str(path))
    assert third.digest != first.digest and third.structure != first.structure


def test_load_keeps_nothing_of_a_rejected_text(tmp_path):
    path = tmp_path / "bad.json"
    mf.write(flat_doc(dimension=2), str(path))
    kept = len(mf._LOADED)
    for _ in range(2):
        with pytest.raises(mf.ManifestError, match="coordinates must be 2 names"):
            mf.load(str(path))
    assert len(mf._LOADED) == kept


@pytest.mark.parametrize("example_id", [i for i, spec in exm.EXAMPLES.items()
                                        if spec.structure])
def test_structure_digest_is_the_digest_of_the_serialized_structure(example_id):
    s = exm.build_structure(example_id)
    assert mf.structure_digest(s) == mf.digest(mf.structure_to_dict(s))


def test_load_errors(tmp_path):
    with pytest.raises(mf.ManifestError, match="cannot read"):
        mf.load(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(mf.ManifestError, match="not valid JSON"):
        mf.load(str(bad))


def test_from_dict_rejects_non_dict():
    with pytest.raises(mf.ManifestError):
        mf.from_dict([1, 2, 3])


def diagonal_doc(n):
    coords = [f"x{i + 1}" for i in range(n)]
    return flat_doc(dimension=n, coordinates=coords, box=[[-1.0, 1.0]] * n,
                    metric=["1" if i == j else "0" for i in range(n) for j in range(i, n)],
                    structure={"vector_field": ["0"] * n})


def test_dimension_is_bounded():
    man = mf.from_dict(diagonal_doc(mf.MAX_DIMENSION))
    assert man.structure.chart.dim == mf.MAX_DIMENSION
    with pytest.raises(mf.ManifestError) as info:
        mf.from_dict(diagonal_doc(mf.MAX_DIMENSION + 1))
    assert info.value.field == "dimension"
    assert str(info.value) == (f"dimension must be at most {mf.MAX_DIMENSION}, "
                               f"got {mf.MAX_DIMENSION + 1}")
