# expression kernel: parsing, interning, differentiation, evaluation

import ast
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from solitonlab import examples as exm
from solitonlab import expr as ex
from solitonlab import geometry as geo
from solitonlab import identities as idn

NAMES = ("x1", "x2", "x3")
ROOT = Path(__file__).resolve().parents[1]


def P(text, params=()):
    return ex.parse_expression(text, NAMES, params)


def test_parse_basic_arithmetic():
    e = P("2*x1 + x2^2 - x3/4")
    assert oracles.evaluate(e, (1.0, 3.0, 8.0)) == pytest.approx(2.0 + 9.0 - 2.0)


def test_parse_precedence_and_unary():
    # unary minus is part of the base, so -x1^2 = (-x1)^2
    assert oracles.evaluate(P("-x1^2"), (3.0, 0, 0)) == 9.0
    assert oracles.evaluate(P("-(x1^2)"), (3.0, 0, 0)) == -9.0
    assert oracles.evaluate(P("2 + 3*4^2"), (0, 0, 0)) == 50.0
    assert oracles.evaluate(P("x1 - -x2"), (1.0, 2.0, 0)) == 3.0


def test_parse_functions():
    e = P("exp(x1) + ln(x2) + sqrt(x3)")
    v = oracles.evaluate(e, (1.0, math.e, 4.0))
    assert v == pytest.approx(math.e + 1.0 + 2.0)
    e = P("sin(x1)*cos(x1) + sinh(x2)*cosh(x2) + tanh(x3)")
    v = oracles.evaluate(e, (0.3, 0.2, 0.1))
    assert v == pytest.approx(
        math.sin(0.3) * math.cos(0.3) + math.sinh(0.2) * math.cosh(0.2) + math.tanh(0.1)
    )


def test_parse_parameters():
    e = P("tau*x1 + k", ("tau", "k"))
    assert oracles.evaluate(e, (2.0, 0, 0), {"tau": 3.0, "k": 1.0}) == 7.0
    with pytest.raises(ex.UnboundParameterError):
        oracles.evaluate(e, (2.0, 0, 0), {"tau": 3.0})


def test_parse_integer_exponents_only():
    assert oracles.evaluate(P("x1^-2"), (2.0, 0, 0)) == 0.25
    assert oracles.evaluate(P("x1^0"), (5.0, 0, 0)) == 1.0
    for bad in ("x1^x2", "x1^2.5", "x1^(-2)"):
        with pytest.raises(ex.ParseError):
            P(bad)


@pytest.mark.parametrize("text,pos", [
    ("x1^^2", 2),
    ("x1 + ", 5),
    ("(x1", 3),
    ("x1 $ 2", 3),
    ("exp(x1", 6),
    ("2..5", 2),
    ("nope", 0),
    # number literals are ASCII digits, and finite
    ("2/(1 + x1^\u00b2)", 10),
    ("x1 + 1\u0663", 6),
    ("1e400/(1 + x1^2)", 0),
    ("x1 - .5e309", 5),
])
def test_parse_error_positions(text, pos):
    with pytest.raises(ex.ParseError) as info:
        P(text)
    assert info.value.position == pos


def test_unknown_identifier_message():
    with pytest.raises(ex.ParseError, match="unknown identifier"):
        P("x1 + y")


def test_interning_shares_nodes():
    a = P("x1 + x2")
    b = P("x1+x2")
    assert a is b
    # structurally equal subtrees are the same object
    c = ex.add(ex.coord(0), ex.coord(1))
    assert c is a


def test_interning_keeps_kinds_and_payloads_apart():
    # the tables are per kind, and payload 1 of a coordinate equals 1.0
    x = ex.coord(0)
    leaves = [ex.const(1.0), ex.coord(1), ex.param("a")]
    assert [e.kind for e in leaves] == ["const", "coord", "param"]
    assert ex.powi(x, 2) is not ex.powi(x, 3)
    assert (ex.powi(x, 2).payload, ex.powi(x, 3).payload) == (2, 3)
    # neg and exp share their args tuple's contents, not their node
    assert ex.neg(x) is not ex.exp(x)
    assert (ex.neg(x).kind, ex.exp(x).kind) == ("neg", "exp")
    assert ex.add(x, ex.ONE) is not ex.mul(x, ex.const(2.0))
    assert ex.sub(x, ex.ONE) is not ex.add(x, ex.ONE)


def test_interning_has_one_zero():
    assert ex.const(-0.0) is ex.const(0.0) is ex.ZERO
    assert math.copysign(1.0, ex.const(-0.0).payload) == 1.0


def test_differentiate_is_memoized_per_coordinate():
    e = P("x1*x2 + sin(x3)")
    d = [ex.differentiate(e, i) for i in range(3)]
    assert all(ex.differentiate(e, i) is d[i] for i in range(3))
    assert d[0] is ex.coord(1) and d[1] is ex.coord(0) and d[2] is ex.cos(ex.coord(2))


@pytest.mark.parametrize("example_id", sorted(i for i, spec in exm.EXAMPLES.items()
                                               if spec.structure))
def test_text_round_trip_on_catalog_metrics(example_id):
    g = exm.build_structure(example_id).metric
    chart = g.chart
    for row in g.comps:
        for e in row:
            text = ex.to_text(e, chart.coords)
            assert ex.parse_expression(text, chart.coords, chart.params) is e


_FOOTPRINT = """
import gc, tracemalloc
from solitonlab import expr as ex, geometry as geo, identities as idn
def nodes():
    return sum(type(o) is ex.Expression for o in gc.get_objects())
g = idn.suite_metrics(4, 1, 7)[0]
before = nodes()
tracemalloc.start()
geo.divergence_sym2(g, geo.ricci(g))
held = tracemalloc.get_traced_memory()[0]
tracemalloc.stop()
print(nodes() - before, held)
"""


def test_interned_node_footprint():
    # a fresh process, so that every node of the build is new; a node that
    # carried its own (kind, payload, args) key took about 287 bytes here
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", _FOOTPRINT], env=env, check=True,
                         capture_output=True, text=True).stdout
    nodes, held = map(int, out.split())
    assert nodes > 20000
    assert held / nodes <= 220


def test_constant_folding():
    assert P("2 + 3*4").kind == "const"
    assert P("2 + 3*4").payload == 14.0
    e = ex.add(ex.mul(ex.ONE, ex.coord(0)), ex.ZERO)
    assert e is ex.coord(0)
    assert ex.mul(ex.ZERO, P("exp(x1)")) is ex.ZERO
    assert ex.powi(ex.coord(1), 1) is ex.coord(1)


def test_constructors_fold_like_the_reference():
    # each constructor returns the very node the reference's folds return, on
    # zeros of both signs, one, a plain constant, constants whose folds
    # overflow (so stay unfolded), leaves, a negation and a compound node
    x = ex.coord(0)
    grid = [ex.ZERO, ex.const(-0.0), ex.ONE, ex.const(2.5), ex.const(1e308), ex.const(-1e308),
            x, ex.param("a"), ex.neg(x), ex.div(ex.mul(x, ex.param("a")), ex.const(3.0))]
    for name in ("add", "sub", "mul", "div"):
        new, ref = getattr(ex, name), getattr(oracles, name)
        for a in grid:
            for b in grid:
                assert new(a, b) is ref(a, b), (name, a, b)
    for a in grid:
        assert ex.neg(a) is oracles.neg(a), a
    assert ex.sub(x, x) is oracles.sub(x, x) is ex.ZERO
    assert ex.add(ex.const(1e308), ex.const(1e308)).kind == "add"


def metric_and_bianchi_roots(d):
    g = idn.suite_metrics(d, 1, 7)[0]
    div_ric = geo.divergence_sym2(g, geo.ricci(g))
    scal = geo.scalar_curvature(g)
    return [e for row in g.comps for e in row] + [
        ex.sub(div_ric.comps[j], ex.mul(ex.const(0.5), ex.differentiate(scal.expr, j)))
        for j in range(d)]


def catalog_roots():
    for example_id, spec in sorted(exm.EXAMPLES.items()):
        if spec.structure:
            s = exm.build_structure(example_id)
            ric = geo.ricci(s.metric)
            yield [e for t in (s.metric.comps, ric.comps) for row in t for e in row] + [s.lam.expr]


ARITY = {0: 2, 2: 1, 4: 1, 6: 0, 7: 0, 8: 0}


def instructions(roots):
    """The roots' tape: per instruction its allocating opcode, kernel or
    payload, and the instructions its operands read; and the instructions
    that give the roots.  An operand reads the instruction that last wrote
    its slot."""
    tape = ex._compile(tuple(roots))
    s, last, got = tape.slots, {}, []
    for i, (op, f) in enumerate(zip(tape.ops.translate(ex._ALLOCATING), tape.kernels)):
        got.append((op, f, [last[a] for a in s[3 * i:3 * i + ARITY[op]]]))
        last[s[3 * i + 2]] = i
    return got, [last[o] for o in tape.outs]


def reference_instructions(roots):
    """What `instructions` must give, read off the reference walk `oracles.topo`."""
    order = oracles.topo(roots)[0]
    at = {node: i for i, node in enumerate(order)}
    want = []
    for node in order:
        k, args = node.kind, [at[a] for a in node.args]
        if k in ex._BINARY:
            want.append((0, ex._BINARY[k], args))
        elif k == "pow":
            want.append((4, node.payload, args))
        elif args:
            want.append((2, np.negative if k == "neg" else ex._NP_FUNC[k], args))
        else:
            want.append(({"const": 6, "coord": 7, "param": 8}[k], node.payload, args))
    return want, [at[r] for r in roots]


def test_topo_walks_in_the_reference_order():
    # the tape's post-order is what _locate and the metric-first rule read;
    # the node counts pin the DAGs the builders and folds produce
    x = ex.coord(0)
    cases = [[x, x], [ex.mul(x, x)], [ex.add(ex.mul(x, x), x), ex.mul(x, x)]]
    cases += list(catalog_roots())
    counts = {}
    for d in (2, 3, 4, 5):
        roots = metric_and_bianchi_roots(d)
        cases.append(roots)
        counts[d] = ex.count_nodes(*roots)
    for roots in cases:
        want = reference_instructions(roots)
        assert instructions(roots) == want
        assert ex.count_nodes(*roots) == len(want[0])
    assert counts == {2: 950, 3: 6242, 4: 27142, 5: 97450}


def test_const_rejects_nonfinite():
    with pytest.raises(ValueError):
        ex.const(float("inf"))
    with pytest.raises(ValueError):
        ex.const(float("nan"))


def test_to_text_round_trip_stability():
    texts = [
        "x1 - -x2",
        "-x1^2",
        "(x1 + x2)^3/sqrt(x3)",
        "sin(x1)*cos(x2) - tanh(x3)",
        "1.0/x1^2",
        "exp(x1*x2) + ln(2 + x3^2)",
    ]
    for t in texts:
        e = P(t)
        s = ex.to_text(e, NAMES)
        assert ex.parse_expression(s, NAMES) is e


def _random_tree(rng, depth):
    """Random expression over 3 coordinates, safe on (0.2, 1.2)^3."""
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.4:
            return ex.coord(int(rng.integers(3)))
        return ex.const(rng.uniform(0.3, 2.0))
    op = rng.integers(6)
    a = _random_tree(rng, depth - 1)
    if op == 0:
        return ex.add(a, _random_tree(rng, depth - 1))
    if op == 1:
        return ex.sub(a, _random_tree(rng, depth - 1))
    if op == 2:
        return ex.mul(a, _random_tree(rng, depth - 1))
    if op == 3:
        # keep denominators bounded away from zero
        return ex.div(a, ex.add(ex.const(1.5), ex.powi(ex.coord(int(rng.integers(3))), 2)))
    if op == 4:
        return ex.powi(a, int(rng.integers(1, 4)))
    f = (ex.sin, ex.cos, ex.sinh, ex.tanh, ex.exp)[int(rng.integers(5))]
    return f(a)


def test_differentiate_against_finite_differences():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 300:
        e = _random_tree(rng, 4)
        pt = rng.uniform(0.2, 1.2, size=3)
        if abs(oracles.evaluate(e, pt)) > 1e6:
            continue  # cancellation would swamp the difference quotient
        i = int(rng.integers(3))
        exact = oracles.evaluate(ex.differentiate(e, i), pt)
        approx = oracles.finite_difference(e, i, pt)
        scale = max(1.0, abs(exact))
        assert abs(exact - approx) < 1e-6 * scale, ex.to_text(e, NAMES)
        checked += 1


def test_differentiate_chain_and_quotient():
    e = P("sin(x1^2)/cosh(x2)")
    d0 = ex.differentiate(e, 0)
    d1 = ex.differentiate(e, 1)
    pt = (0.7, 0.4, 0.0)
    x, y = 0.7, 0.4
    assert oracles.evaluate(d0, pt) == pytest.approx(2 * x * math.cos(x * x) / math.cosh(y))
    assert oracles.evaluate(d1, pt) == pytest.approx(
        -math.sin(x * x) * math.sinh(y) / math.cosh(y) ** 2
    )


def test_differentiate_constant_and_coord():
    assert ex.differentiate(ex.const(3.0), 0) is ex.ZERO
    assert ex.differentiate(ex.coord(1), 1) is ex.ONE
    assert ex.differentiate(ex.coord(1), 0) is ex.ZERO


def test_text_round_trip_random_trees():
    rng = np.random.default_rng(55)
    for _ in range(500):
        e = _random_tree(rng, 4)
        s = ex.to_text(e, NAMES)
        back = ex.parse_expression(s, NAMES)
        assert back is e, s


def test_eval_many_shapes_and_order():
    es = [P("x1"), P("x2^2"), P("x1*x3")]
    pts = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    out = ex.eval_many(es, pts)
    assert out.shape == (3, 2)
    np.testing.assert_allclose(out, [[1.0, 4.0], [4.0, 25.0], [3.0, 24.0]])


def test_eval_many_strict_domain_error_indexes_first_bad_point():
    e = ex.parse_expression("1/x1", ("x1",))
    pts = np.array([[1.0], [2.0], [0.0], [3.0]])
    with pytest.raises(ex.DomainError) as info:
        ex.eval_many([e], pts)
    assert info.value.point_index == 2
    assert "division by zero" in info.value.reason


def test_eval_many_masked_mode():
    e = ex.parse_expression("ln(x1)", ("x1",))
    pts = np.array([[1.0], [-1.0], [math.e]])
    vals, ok = ex.eval_many([e], pts, mode="masked")
    assert ok.tolist() == [True, False, True]
    assert np.isnan(vals[0, 1])
    assert vals[0, 0] == 0.0
    assert vals[0, 2] == pytest.approx(1.0)


# expression over x1 (and parameters), x1 values, binding, reason, bad lanes
@pytest.mark.parametrize("text,xs,binding,reason,bad", [
    ("1/x1", [1.0, 0.0, 2.0, 0.0], {}, "division by zero", [0, 1, 0, 1]),
    ("x1^-2", [1.0, 2.0, 0.0], {}, "zero raised to a negative power", [0, 0, 1]),
    ("ln(x1)", [1.0, 0.0, -1.0], {}, "logarithm of a non-positive value", [0, 1, 1]),
    ("sqrt(x1)", [4.0, -1.0, 0.0], {}, "square root of a negative value", [0, 1, 0]),
    ("exp(x1)", [1.0, 2.0, 1000.0], {}, "non-finite result in exp", [0, 0, 1]),
    ("tanh(a)*x1", [1.0, 2.0], {"a": math.inf}, "non-finite result in param", [1, 1]),
    ("tanh(a)*x1", [1.0, 2.0], {"a": math.nan}, "non-finite result in param", [1, 1]),
    ("x1 + 1", [1.0, math.nan, math.inf], {}, "non-finite result in coord", [0, 1, 1]),
    # division by zero between scalars: a literal and a bound parameter
    ("1/0 + x1", [1.0, 2.0], {}, "division by zero", [1, 1]),
    ("a/b*x1", [1.0, 2.0], {"a": 1.0, "b": 0.0}, "division by zero", [1, 1]),
    # overflow without a zero divisor; a zero divisor in any lane names the reason
    ("x1/1e-300", [1.0, 1e10], {}, "non-finite result in div", [0, 1]),
    ("1e300/(x1 - 1)", [1.0 + 2.0**-40, 1.0], {}, "division by zero", [1, 1]),
])
def test_eval_many_domain_errors_in_both_modes(text, xs, binding, reason, bad):
    e = ex.parse_expression(text, ("x1", "x2"), tuple(binding))
    bad = np.array(bad, dtype=bool)
    pts = np.column_stack([xs, np.arange(1.0, len(xs) + 1.0)])
    with pytest.raises(ex.DomainError) as info:
        ex.eval_many([e, ex.coord(1)], pts, binding)
    assert info.value.reason == reason
    assert info.value.point_index == int(np.argmax(bad))
    vals, ok = ex.eval_many([e, ex.coord(1)], pts, binding, mode="masked")
    assert ok.tolist() == (~bad).tolist()
    assert np.isnan(vals[:, bad]).all()
    assert np.isfinite(vals[:, ~bad]).all()
    np.testing.assert_array_equal(vals[1, ~bad], pts[~bad, 1])


def test_array_binding_gives_float_bits_and_faults_at_its_lane():
    # a parameter bound to (N,) lanes gives each point the bits of a float
    # binding, also where a subtree over parameters alone takes a power or a
    # function; lane i of a non-finite value is named like point i of a
    # non-finite coordinate, in both modes
    es = [P("a*x1 + x2", ("a",)), P("ln(a*x2^2 + 1)", ("a",)),
          P("a^3*x1 + a^-2", ("a",)), P("exp(a)^3/sqrt(a)*x3^2 + (a/2)^5", ("a",))]
    pts = np.random.default_rng(2).uniform(0.5, 1.5, size=(9, 3))
    lanes = np.linspace(0.5, 2.6, 9)
    vals = ex.eval_many(es, pts, {"a": lanes})
    for i in range(9):
        one = ex.eval_many(es, pts[i:i + 1], {"a": float(lanes[i])})
        assert np.array_equal(vals[:, i:i + 1], one)
    for i in (0, 4, 8):
        for bad in (math.nan, math.inf):
            a = lanes.copy()
            a[i] = bad
            q = pts.copy()
            q[i, 0] = bad
            with pytest.raises(ex.DomainError) as by_lane:
                ex.eval_many(es, pts, {"a": a})
            with pytest.raises(ex.DomainError) as by_point:
                ex.eval_many(es, q, {"a": lanes})
            assert by_lane.value.point_index == by_point.value.point_index == i
            ok_lane = ex.eval_many(es, pts, {"a": a}, mode="masked")[1]
            ok_point = ex.eval_many(es, q, {"a": lanes}, mode="masked")[1]
            assert ok_lane.tolist() == ok_point.tolist() == [j != i for j in range(9)]
    with pytest.raises(ValueError, match="lanes"):
        ex.eval_many(es, pts, {"a": lanes[:5]})


def test_eval_many_matches_checked_interpreter():
    # Bianchi residual of a random dense metric, as the identity suite builds it
    g = idn.suite_metrics(3, 1, 7)[0]
    div_ric = geo.divergence_sym2(g, geo.ricci(g))
    scal = geo.scalar_curvature(g).expr
    comps = [ex.sub(div_ric.comps[j], ex.mul(ex.const(0.5), ex.differentiate(scal, j)))
             for j in range(3)]
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(100, 3))
    b = g.chart.binding
    assert np.array_equal(ex.eval_many(comps, pts, b), oracles.eval_checked(comps, pts, b))
    # subtrees over parameters alone evaluate to scalars; numpy's scalar `**`
    # rounds a^3, b^-2 and c^-3 differently from the array power at these values
    params = {"a": 2.586472402103951, "b": 1.8592437497248215, "c": 1.3257929414732095}
    es = [P(t, tuple(params)) for t in
          ("a^3*x1 + b^-2", "(a/c)^5 - x2^-1", "exp(b)^3/sqrt(c)*x3^2", "c^-3 + a*b")]
    rng = np.random.default_rng(5)
    es += [_random_tree(rng, 4) for _ in range(100)]
    for n in (1, 100):
        pts = rng.uniform(0.2, 1.2, size=(n, 3))
        assert np.array_equal(ex.eval_many(es, pts, params),
                              oracles.eval_checked(es, pts, params))
        vals, ok = ex.eval_many(es, pts, params, mode="masked")
        assert ok.all() and np.array_equal(vals, oracles.eval_checked(es, pts, params))


EDGES = (0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, math.inf, -math.inf, math.nan)


def _faulty_tree(rng, depth):
    """Random expression over x1, x2, a and b, with domain faults planted."""
    if depth == 0 or rng.random() < 0.2:
        r = rng.random()
        if r < 0.5:
            return ex.coord(int(rng.integers(2)))
        if r < 0.75:
            return ex.param(("a", "b")[int(rng.integers(2))])
        return ex.const(float(rng.choice([0.5, -1.5, 2.0, 800.0])))
    op = int(rng.integers(7))
    a = _faulty_tree(rng, depth - 1)
    if op < 4:
        return (ex.add, ex.sub, ex.mul, ex.div)[op](a, _faulty_tree(rng, depth - 1))
    if op == 4:
        return ex.powi(a, int(rng.choice([-3, -2, -1, 2, 3])))
    return ex._call(ex.FUNCTIONS[int(rng.integers(len(ex.FUNCTIONS)))], a)


def _edgy(rng, size, share):
    """Uniform values on (-2, 2), about `share` of them replaced by an edge value."""
    v = rng.uniform(-2.0, 2.0, size=size)
    edge = rng.random(size) < share
    v[edge] = rng.choice(EDGES, size=int(edge.sum()))
    return v


def _outcome(exprs, pts, binding, mode, evaluator):
    try:
        return evaluator(exprs, pts, binding, mode=mode)
    except ex.DomainError as err:
        return ("DomainError", err.reason, err.point_index)
    except (ValueError, ex.UnboundParameterError) as err:
        return (type(err).__name__, str(err))


def test_eval_many_matches_checked_interpreter_on_faults():
    rng = np.random.default_rng(11)
    raised = set()
    for case in range(300):
        es = [_faulty_tree(rng, int(rng.integers(3, 6))) for _ in range(3)]
        pts = _edgy(rng, (4, 2), 0.1)
        binding = dict(zip(("a", "b"), _edgy(rng, 2, 0.25)))
        if case % 10 == 0:
            del binding["b"]
        for mode in ("strict", "masked"):
            got = _outcome(es, pts, binding, mode, ex.eval_many)
            want = _outcome(es, pts, binding, mode, oracles.eval_checked)
            if isinstance(want, tuple) and isinstance(want[0], str):
                assert got == want, (case, mode)
                raised.add(want[:2])
            elif mode == "strict":
                assert np.array_equal(got, want), (case, mode)
            else:
                assert np.array_equal(got[1], want[1]), (case, mode)
                assert np.array_equal(got[0], want[0], equal_nan=True), (case, mode)
    # every planted fault was located at least once
    assert {r for _, r in raised} >= {
        "division by zero", "zero raised to a negative power",
        "logarithm of a non-positive value", "square root of a negative value",
        "non-finite result in exp", "non-finite result in coord",
        "non-finite result in param", "parameter 'b' has no bound value"}


def test_eval_many_fault_before_bad_coordinate():
    # a strict-mode fault earlier in topological order wins over the bad index
    es = [P("ln(x1)"), ex.coord(4)]
    pts = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ex.DomainError) as info:
        ex.eval_many(es, pts)
    assert (info.value.reason, info.value.point_index) == (
        "logarithm of a non-positive value", 1)
    with pytest.raises(ValueError, match="dimension 2"):
        ex.eval_many(es, pts, mode="masked")
    for mode in ("strict", "masked"):
        assert (_outcome(es, pts, {}, mode, ex.eval_many)
                == _outcome(es, pts, {}, mode, oracles.eval_checked))


def _shared_dag(rng, size):
    """Random DAG over x1..x3, a and b whose nodes reuse earlier nodes, and its roots.

    Most nodes take the newest node as an operand, so most have one consumer;
    the others draw from every node built so far, which shares them.  The
    roots repeat nodes and include interior nodes, leaves and subtrees over
    the parameters alone, which evaluate to scalars.
    """
    a, b = ex.param("a"), ex.param("b")
    pool = [ex.coord(0), ex.coord(1), ex.coord(2), a, b, ex.add(ex.mul(a, b), ex.const(0.5))]
    for _ in range(size):
        x = pool[-1] if rng.random() < 0.6 else pool[int(rng.integers(len(pool)))]
        y = pool[int(rng.integers(len(pool)))]
        op = int(rng.integers(8))
        if op < 4:
            node = (ex.add, ex.sub, ex.mul, ex.div)[op](x, y)
        elif op == 4:
            node = ex.mul(x, x)
        elif op == 5:
            node = ex.neg(x)
        else:
            node = ex.tanh(x) if op == 6 else ex.powi(x, 2)
        pool.append(node)
    picks = rng.integers(len(pool), size=4)
    roots = [pool[-1], pool[int(picks[0])], pool[int(picks[0])], pool[int(picks[1])],
             ex.coord(int(picks[2]) % 3), a, pool[5], pool[-1]]
    return roots


def test_eval_many_bit_identical_on_shared_dags():
    rng = np.random.default_rng(17)
    clean = 0
    for case in range(200):
        roots = _shared_dag(rng, int(rng.integers(5, 60)))
        pts = rng.uniform(0.5, 1.5, size=(int(rng.integers(1, 9)), 3))
        if case % 2:
            pts = np.asfortranarray(pts)
        binding = {"a": float(rng.uniform(0.5, 1.5)), "b": float(rng.uniform(0.5, 1.5))}
        before = pts.copy()
        for mode in ("strict", "masked"):
            got = _outcome(roots, pts, binding, mode, ex.eval_many)
            want = _outcome(roots, pts, binding, mode, oracles.eval_checked)
            np.testing.assert_array_equal(pts, before)
            if isinstance(want, tuple) and isinstance(want[0], str):
                assert got == want, (case, mode)
            elif mode == "strict":
                np.testing.assert_array_equal(got, want)
                clean += 1
            else:
                np.testing.assert_array_equal(got[1], want[1])
                np.testing.assert_array_equal(got[0], want[0])
    # most cases take the fast pass, where operands are dropped and overwritten
    assert clean >= 150


def test_eval_many_writes_neither_points_nor_earlier_results():
    x1, x2 = ex.coord(0), ex.coord(1)
    e = ex.nsum([ex.mul(ex.add(x1, ex.const(float(i))), ex.sub(x2, ex.const(float(i))))
                 for i in range(1, 40)])
    pts = np.random.default_rng(2).uniform(-1.0, 1.0, size=(50, 2))
    before = pts.copy()
    first = ex.eval_many([e, x1, e], pts)
    kept = first.copy()
    second, ok = ex.eval_many([e, x2], pts, mode="masked")
    np.testing.assert_array_equal(pts, before)
    np.testing.assert_array_equal(first, kept)
    np.testing.assert_array_equal(first[0], second[0])
    np.testing.assert_array_equal(first[1], pts[:, 0])
    assert ok.all()


@pytest.mark.parametrize("text,pts", [
    # x1*x2 + x1 is written into x1*x2's buffer, then the division faults
    ("(x1*x2 + x1) / (x1 - x2)", [[1.0, 2.0], [2.0, 3.0], [1.5, 1.5], [3.0, 1.0], [2.0, 2.0]]),
    ("ln(x1*x2 - x2*x1 + x1 - 1)", [[2.0, 1.0], [1.0, 3.0], [0.5, 2.0]]),
    ("sqrt((x1 + x2)*(x1 - x2)) * (x1 + 1)", [[2.0, 1.0], [1.0, 3.0], [3.0, 1.0]]),
])
def test_eval_many_fault_after_in_place_update(text, pts):
    e = P(text)
    es = [e, ex.coord(1), ex.mul(e, ex.coord(0))]
    pts = np.array(pts)
    for mode in ("strict", "masked"):
        got = _outcome(es, pts, {}, mode, ex.eval_many)
        want = _outcome(es, pts, {}, mode, oracles.eval_checked)
        if mode == "strict":
            assert got == want and got[0] == "DomainError"
        else:
            np.testing.assert_array_equal(got[1], want[1])
            assert not got[1].all()
            np.testing.assert_array_equal(got[0], want[0])


def test_eval_many_memory_is_bounded_by_shared_nodes():
    # 2,000 single-use products: keeping every node's value would take about
    # 64 MB at 1,000 points; dropping dead values keeps a few live arrays
    x1, x2 = ex.coord(0), ex.coord(1)
    e = ex.nsum([ex.mul(ex.add(x1, ex.const(float(i))), ex.add(x2, ex.const(float(i))))
                 for i in range(1, 2001)])
    pts = np.random.default_rng(4).uniform(-1.0, 1.0, size=(1000, 2))
    tracemalloc.start()
    try:
        ex.eval_many([e], pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def np_func_users(source):
    """Names of the functions whose bodies name `_NP_FUNC`, sorted."""
    return sorted({f.name for f in ast.walk(ast.parse(source))
                   if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for n in ast.walk(f)
                   if getattr(n, "id", getattr(n, "attr", None)) == "_NP_FUNC"})


def test_eval_nodes_is_the_only_evaluator():
    # a second interpreter would need the numpy function table too
    src = Path(ex.__file__).resolve().parent
    users = {path.name: np_func_users(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    assert {name: u for name, u in users.items() if u} == {"expr.py": ["_compile"]}
    assert np_func_users("def f(k):\n    return ex._NP_FUNC[k](1.0)\n") == ["f"]


def test_eval_many_rejects_bad_mode_and_shape():
    e = ex.coord(0)
    with pytest.raises(ValueError):
        ex.eval_many([e], np.zeros((2, 1)), mode="lenient")
    with pytest.raises(ValueError):
        ex.eval_many([e], np.zeros(3))


def test_eval_many_coordinate_out_of_range():
    for mode in ("strict", "masked"):
        with pytest.raises(ValueError, match="dimension"):
            ex.eval_many([ex.coord(5)], np.zeros((1, 2)), mode=mode)


def test_eval_many_unbound_parameter():
    e = P("x1*tau", ("tau",))
    for mode in ("strict", "masked"):
        with pytest.raises(ex.UnboundParameterError, match="tau"):
            ex.eval_many([e], np.ones((2, 3)), {"k": 1.0}, mode=mode)


def test_nsum_empty_and_flat():
    assert ex.nsum([]) is ex.ZERO
    e = ex.nsum([ex.coord(0), ex.coord(1), ex.const(2.0)])
    assert oracles.evaluate(e, (1.0, 3.0, 0.0)) == 6.0


def test_free_coords_and_params():
    e = P("tau*x1 + x3^2", ("tau",))
    assert ex.free_coords(e) == {0, 2}
    assert ex.free_params(e) == {"tau"}


def test_check_names_rejects_collisions_and_reserved():
    with pytest.raises(ValueError):
        ex.check_names(("x1", "x1"))
    with pytest.raises(ValueError):
        ex.check_names(("sin",))
    with pytest.raises(ValueError):
        ex.check_names(("x1",), ("x1",))
