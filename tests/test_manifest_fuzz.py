# manifest fuzzing: mutated manifests end in exit code 0, 1 or 2, never an exception

import contextlib
import copy
import io
import json
import math

import pytest

from solitonlab import cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

VALID = {
    "schema": "soliton-manifest/1",
    "dimension": 3,
    "coordinates": ["x1", "x2", "x3"],
    "box": [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]],
    "parameters": {"tau": -0.25},
    "domain": ["x1^2 + x2^2 + x3^2 - 0.5"],
    "metric": ["1.0", "0.0", "0.0", "1.0", "0.0", "1.0"],
    "h": "-2.0/(x1^2 + x2^2 + x3^2 + tau)",
    "lambda": "-4.0/(x1^2 + x2^2 + x3^2 + tau)",
    "structure": {"potential": "x1^2 + x2^2 + x3^2 + tau"},
    "form": {"tag": "neg-m-over-u", "m": 2.0},
}

NUMBER_PATHS = (("dimension",), ("box", 0, 0), ("box", 2, 1), ("parameters", "tau"),
                ("form", "m"))
EXPRESSION_PATHS = (("h",), ("lambda",), ("metric", 0), ("metric", 1), ("metric", 5),
                    ("domain", 0), ("structure", "potential"))
# the places in VALID that a mutation may target, as key paths
PATHS = ([(k,) for k in VALID] + [("box", i) for i in range(3)]
         + [("coordinates", 1), ("form", "tag")] + list(NUMBER_PATHS + EXPRESSION_PATHS))

TOKENS = ("x1", "x2", "x3", "tau", "y", "1", "0", "2.5", "1e308", "1e-320", "+", "-",
          "*", "/", "^", "(", ")", "exp", "ln", "sqrt", "sin", "cosh", "tanh", " ",
          ".", "e", ",", "#")

wrong_types = st.sampled_from([True, False, 0, -3, 2.5, "", "x1", [], {},
                               ["x1"], {"potential": "x1"}, [[0.0, 1.0]]])
numbers = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, -(10 ** 400)]),
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.floats(-3.0, 3.0) | st.integers(-2, 7))
fragments = st.lists(st.sampled_from(TOKENS), max_size=12).map("".join)
parentheses = st.builds(lambda k, j, core: "(" * k + core + ")" * j,
                        st.sampled_from([0, 1, 2, 300, 3000]),
                        st.sampled_from([0, 1, 2, 300, 3000]),
                        st.sampled_from(["x1", "x1 + tau", "sin(x2)", ""]))
exponents = st.builds(lambda base, sign, digits: f"{base}^{sign}{digits}",
                      st.sampled_from(["x1", "(x1 + 2)", "tau", "0", "exp(x2)"]),
                      st.sampled_from(["", "-"]),
                      st.sampled_from(["0", "1", "64", "1e300", "1e400",
                                       "99999999999999999999", "2.5"]))
# expressions a well-formed manifest could hold, so that the checks run too
plausible = st.sampled_from(["x1", "1 + 0.1*x2", "x1^2 + tau", "exp(x3)", "sqrt(2 + x1)",
                             "-2/(1 + x2^2)", "0", "1"])
expressions = st.one_of(plausible, fragments, parentheses, exponents)
# a mutation is a key path and its new value; None deletes the key
mutations = st.one_of(
    st.tuples(st.sampled_from(NUMBER_PATHS), numbers | wrong_types),
    st.tuples(st.sampled_from(EXPRESSION_PATHS), expressions | wrong_types),
    st.tuples(st.sampled_from(PATHS), st.one_of(st.none(), wrong_types, numbers,
                                                expressions)))


def mutate(doc, path, value):
    """Put `value` at `path`; None deletes a key of an object.  A path that an
    earlier mutation removed is skipped."""
    *head, last = path
    node = doc
    for key in head:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return
    if isinstance(node, dict):
        if value is None:
            node.pop(last, None)
        else:
            node[last] = value
    elif isinstance(node, list) and isinstance(last, int) and last < len(node):
        node[last] = value


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                     suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])
@hypothesis.given(st.lists(mutations, min_size=1, max_size=2))
def test_mutated_manifest_exits_0_1_or_2(tmp_path, changes):
    doc = copy.deepcopy(VALID)
    for path, value in changes:
        mutate(doc, path, value)
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["verify-manifest", str(path), "--points", "5"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_the_unmutated_manifest_passes(tmp_path):
    path = tmp_path / "valid.json"
    path.write_text(json.dumps(VALID))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify-manifest", str(path), "--points", "5"]) == 0
