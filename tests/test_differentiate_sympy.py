# sympy as an independent oracle for expr.differentiate on the catalog structures

import itertools

import numpy as np
import pytest

from solitonlab import examples as exm
from solitonlab import expr as ex
from solitonlab import soliton as so

sympy = pytest.importorskip("sympy")

_SYMPY_FUNC = {"exp": sympy.exp, "ln": sympy.log, "sqrt": sympy.sqrt, "sin": sympy.sin,
               "cos": sympy.cos, "sinh": sympy.sinh, "cosh": sympy.cosh,
               "tanh": sympy.tanh}
_SYMPY_BINARY = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
                 "mul": lambda a, b: a * b, "div": lambda a, b: a / b}


def to_sympy(e, coords, memo):
    """The sympy expression of a DAG node; constants stay exact rationals."""
    if e in memo:
        return memo[e]
    k = e.kind
    if k == "const":
        out = sympy.Rational(e.payload)
    elif k == "coord":
        out = coords[e.payload]
    elif k == "param":
        out = sympy.Symbol(e.payload)
    elif k == "neg":
        out = -to_sympy(e.args[0], coords, memo)
    elif k == "pow":
        out = to_sympy(e.args[0], coords, memo) ** e.payload
    elif k in _SYMPY_BINARY:
        out = _SYMPY_BINARY[k](*(to_sympy(a, coords, memo) for a in e.args))
    else:
        out = _SYMPY_FUNC[k](to_sympy(e.args[0], coords, memo))
    memo[e] = out
    return out


# every catalog structure at dimension 2 and 3; pseudo-hyperbolic needs n >= 3,
# and its profile brings sinh and cosh
CASES = [
    ("space-form-gradient", {"c": 1, "n": 2}), ("space-form-gradient", {"c": 1, "n": 3}),
    ("space-form-gradient", {"c": -1, "n": 2}), ("space-form-gradient", {"c": -1, "n": 3}),
    ("euclidean-gradient", {"n": 2}), ("euclidean-gradient", {"n": 3}),
    ("pseudo-hyperbolic", {"n": 3}), ("pseudo-hyperbolic", {"n": 3, "l": 4.0}),
    ("pseudo-hyperbolic", {"n": 3, "h_expr": "sinh(t)"}),
    ("neg-m-sphere", {"n": 2}), ("neg-m-sphere", {"n": 3}),
]


def _case_id(case):
    return case[0] + "-" + "-".join(f"{k}={v}" for k, v in case[1].items())


def test_cases_cover_every_catalog_structure():
    assert {c[0] for c in CASES} == {i for i, spec in exm.EXAMPLES.items() if spec.structure}


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_first_and_second_partials_match_sympy(case):
    s = exm.build_structure(*case)
    n = s.chart.dim
    pts = so.default_points(s, 20, seed=7)
    fields = [s.metric.comps[i][j] for i in range(n) for j in range(i, n)]
    fields += [s.h.expr, s.lam.expr, s.potential.expr]
    syms = sympy.symbols(f"x0:{n}", real=True)
    memo = {}
    ours, theirs = [], []
    # interned nodes: one entry per distinct non-constant field
    for e in (e for e in dict.fromkeys(fields) if e.kind != "const"):
        d1 = [sympy.diff(to_sympy(e, syms, memo), x) for x in syms]
        for i in range(n):
            ours.append(ex.differentiate(e, i))
            theirs.append(d1[i])
        for i, j in itertools.combinations_with_replacement(range(n), 2):
            ours.append(ex.differentiate(ex.differentiate(e, i), j))
            theirs.append(sympy.diff(d1[i], syms[j]))
    got = ex.eval_many(ours, pts, s.chart.binding)
    want = np.array([np.broadcast_to(v, len(pts)) for v in
                     sympy.lambdify(syms, theirs, "numpy", cse=True)(*pts.T)], dtype=float)
    scale = np.maximum(1.0, np.abs(want))
    worst = int(np.argmax(np.max(np.abs(got - want) / scale, axis=1)))
    assert np.all(np.abs(got - want) <= 1e-12 * scale), (
        f"partial {worst}: {ex.to_text(ours[worst], [str(x) for x in syms])} "
        f"against {theirs[worst]}")
