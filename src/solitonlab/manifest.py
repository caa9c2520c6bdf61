"""Soliton manifests: a JSON interchange format for chart + structure data.

A manifest fully describes one structure: coordinates, sampling box, domain
predicates, parameter values, the metric's upper triangle, either a potential
or a vector field, and the h and lambda expressions — everything as strings
in the expression grammar.  The parameter values go onto the chart, which
every evaluator of the structure reads them from.  Loading validates the
schema and parses every expression against the declared names, reporting the
exact offset of any syntax error.  The digest (sha256 over a canonical single-line JSON
serialization) identifies the manifest in reports.  `structure_digest` keeps
the digest of each structure it serialized, and `load` the parsed structure
and digest of each manifest text it read, so neither is rebuilt by a warm call.
"""

from __future__ import annotations

import hashlib
import json
import math
from functools import lru_cache

from . import expr as ex
from . import soliton as so
from .geometry import Chart, MetricField, ScalarField, VectorField, sym_rows

SCHEMA = "soliton-manifest/1"
# The largest dimension a manifest may declare: the symbolic curvature build
# grows about 2.6x per dimension, so a manifest may not ask for an unbounded
# one.  32 admits every product construct-warped writes from a catalog base,
# a base of up to 16 (the CLI's MAX_CATALOG_N) times a fiber of the base's m,
# also at most 16.
MAX_DIMENSION = 32


class ManifestError(Exception):
    def __init__(self, message, field=None, position=None):
        super().__init__(message)
        self.field = field
        self.position = position


class Manifest:
    """A loaded manifest: its JSON document, the structure it declares (with
    the parameter values on the structure's chart), and the document's digest."""

    def __init__(self, document: dict, structure: so.SolitonStructure, digest: str):
        self.document = document
        self.structure = structure
        self.digest = digest


def canonical_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":"),
                       allow_nan=False) + "\n").encode("utf-8")


def digest(doc: dict) -> str:
    return hashlib.sha256(canonical_bytes(doc)).hexdigest()


def _fail(msg, field=None, position=None):
    raise ManifestError(msg, field=field, position=position)


def _need(doc, key, kind, field=None):
    field = field or key
    if key not in doc:
        _fail(f"missing field {field!r}", field=field)
    v = doc[key]
    if not isinstance(v, kind):
        names = kind.__name__ if isinstance(kind, type) else "/".join(
            k.__name__ for k in kind)
        _fail(f"field {field!r} must be {names}", field=field)
    return v


def _number(v):
    """float(v) for a JSON number that is finite as a float, else None."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return None
    try:
        v = float(v)
    except OverflowError:  # an integer past the float range
        return None
    return v if math.isfinite(v) else None


def _parse(text, coords, params, field):
    if not isinstance(text, str):
        _fail(f"{field} must be an expression string", field=field)
    try:
        return ex.parse_expression(text, coords, params)
    except ex.ParseError as err:
        _fail(f"{field}: {err.message} at offset {err.position}",
              field=field, position=err.position)


def from_dict(doc: dict) -> Manifest:
    if not isinstance(doc, dict):
        _fail("manifest must be a JSON object")
    schema = _need(doc, "schema", str)
    if schema != SCHEMA:
        _fail(f"unsupported schema {schema!r} (expected {SCHEMA!r})", field="schema")
    n = _need(doc, "dimension", int)
    if isinstance(n, bool) or n < 1:
        _fail("dimension must be a positive integer", field="dimension")
    if n > MAX_DIMENSION:
        _fail(f"dimension must be at most {MAX_DIMENSION}, got {n}", field="dimension")
    coords = _need(doc, "coordinates", list)
    if len(coords) != n or not all(isinstance(c, str) for c in coords):
        _fail(f"coordinates must be {n} names", field="coordinates")
    box = _need(doc, "box", list)
    if len(box) != n:
        _fail(f"box must have {n} intervals", field="box")
    box_t = []
    for i, pair in enumerate(box):
        lo, hi = (map(_number, pair) if isinstance(pair, list) and len(pair) == 2
                  else (None, None))
        if lo is None or hi is None or not lo < hi:
            _fail(f"box[{i}] must be [lo, hi] with lo < hi", field="box")
        box_t.append((lo, hi))

    raw_params = doc.get("parameters", {})
    if not isinstance(raw_params, dict):
        _fail("parameters must be an object of name: value", field="parameters")
    binding = {}
    for name, val in raw_params.items():
        v = _number(val)
        if v is None:
            _fail(f"parameter {name!r} must be a finite number", field="parameters")
        binding[str(name)] = v
    # a bad name would otherwise first meet the parser of a domain predicate
    try:
        ex.check_names(coords, binding)
    except ValueError as err:
        _fail(f"invalid chart: {err}")

    metric_texts = _need(doc, "metric", list)
    want = n * (n + 1) // 2
    if len(metric_texts) != want:
        _fail(f"metric must list {want} upper-triangle entries (row-major), "
              f"got {len(metric_texts)}", field="metric")
    domain_texts = doc.get("domain", [])
    if not isinstance(domain_texts, list):
        _fail("domain must be a list of predicate expressions", field="domain")

    domain = tuple(_parse(t, coords, binding, f"domain[{i}]")
                   for i, t in enumerate(domain_texts))
    try:
        chart = Chart(tuple(coords), tuple(box_t), domain=domain,
                      params=binding.items())
    except Exception as err:
        _fail(f"invalid chart: {err}")
    entries = [_parse(t, coords, binding, f"metric[{i}]")
               for i, t in enumerate(metric_texts)]
    try:
        metric = MetricField(chart, sym_rows(entries))
    except Exception as err:
        _fail(f"invalid metric: {err}", field="metric")

    block = _need(doc, "structure", dict)
    potential = vector_field = None
    if ("potential" in block) == ("vector_field" in block):
        _fail("structure needs exactly one of 'potential' or 'vector_field'",
              field="structure")
    if "potential" in block:
        potential = ScalarField(chart, _parse(block["potential"], coords, binding,
                                              "structure.potential"))
    else:
        comps = block["vector_field"]
        if not isinstance(comps, list) or len(comps) != n:
            _fail(f"vector_field must list {n} components", field="structure")
        vector_field = VectorField(chart, [
            _parse(t, coords, binding, f"structure.vector_field[{i}]")
            for i, t in enumerate(comps)])

    h = ScalarField(chart, _parse(_need(doc, "h", str), coords, binding, "h"))
    lam = ScalarField(chart, _parse(_need(doc, "lambda", str), coords, binding,
                                    "lambda"))

    form_tag, form_m = so.FORM_FREE, None
    if "form" in doc:
        fb = _need(doc, "form", dict)
        form_tag = fb.get("tag", so.FORM_FREE)
        if form_tag not in so.FORMS:
            _fail(f"unknown form tag {form_tag!r}", field="form")
        if form_tag != so.FORM_FREE:
            form_m = _number(fb.get("m"))
            if form_m is None or not form_m > 0:
                _fail("form needs a finite m > 0", field="form")

    try:
        structure = so.SolitonStructure(metric, h, lam, vector_field=vector_field,
                                        potential=potential, h_form=form_tag, m=form_m)
    except ValueError as err:
        _fail(f"inconsistent structure: {err}")
    return Manifest(doc, structure, digest(doc))


# (structure, digest) of each manifest text that loaded, by the text
_LOADED: dict = {}


def load(path: str) -> Manifest:
    """The manifest at path.  The file is read at every call; a text that
    loaded before reuses its structure and digest, and its document is
    parsed afresh, so that a caller may change it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        _fail(f"cannot read manifest: {err}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        _fail(f"not valid JSON: {err}")
    hit = _LOADED.get(text)
    if hit is not None:
        return Manifest(doc, *hit)
    man = from_dict(doc)
    _LOADED[text] = man.structure, man.digest
    return man


def structure_to_dict(s: so.SolitonStructure) -> dict:
    """Serialize a structure back to a manifest document (dict)."""
    chart = s.chart
    n = chart.dim
    doc = {
        "schema": SCHEMA,
        "dimension": n,
        "coordinates": list(chart.coords),
        "box": [[lo, hi] for lo, hi in chart.box],
        "metric": [chart.text(s.metric.comps[i][j])
                   for i in range(n) for j in range(i, n)],
        "h": chart.text(s.h.expr),
        "lambda": chart.text(s.lam.expr),
    }
    if chart.domain:
        doc["domain"] = [chart.text(e) for e in chart.domain]
    if chart.params:
        doc["parameters"] = chart.binding
    if s.potential is not None:
        doc["structure"] = {"potential": chart.text(s.potential.expr)}
    else:
        doc["structure"] = {"vector_field": [chart.text(c)
                                             for c in s.vector_field.comps]}
    if s.h_form != so.FORM_FREE:
        doc["form"] = {"tag": s.h_form, "m": s.m}
    return doc


@lru_cache(maxsize=None)
def structure_digest(s: so.SolitonStructure) -> str:
    """digest(structure_to_dict(s)), memoized on the frozen structure."""
    return digest(structure_to_dict(s))


def write(doc: dict, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")
