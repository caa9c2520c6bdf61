# expression kernel: parsing, interning, differentiation, evaluation

import math

import numpy as np
import pytest

from solitonlab import expr as ex
from solitonlab import geometry as geo
from solitonlab import identities as idn

NAMES = ("x1", "x2", "x3")


def P(text, params=()):
    return ex.parse_expression(text, NAMES, params)


def test_parse_basic_arithmetic():
    e = P("2*x1 + x2^2 - x3/4")
    assert ex.evaluate(e, (1.0, 3.0, 8.0)) == pytest.approx(2.0 + 9.0 - 2.0)


def test_parse_precedence_and_unary():
    # unary minus is part of the base, so -x1^2 = (-x1)^2
    assert ex.evaluate(P("-x1^2"), (3.0, 0, 0)) == 9.0
    assert ex.evaluate(P("-(x1^2)"), (3.0, 0, 0)) == -9.0
    assert ex.evaluate(P("2 + 3*4^2"), (0, 0, 0)) == 50.0
    assert ex.evaluate(P("x1 - -x2"), (1.0, 2.0, 0)) == 3.0


def test_parse_functions():
    e = P("exp(x1) + ln(x2) + sqrt(x3)")
    v = ex.evaluate(e, (1.0, math.e, 4.0))
    assert v == pytest.approx(math.e + 1.0 + 2.0)
    e = P("sin(x1)*cos(x1) + sinh(x2)*cosh(x2) + tanh(x3)")
    v = ex.evaluate(e, (0.3, 0.2, 0.1))
    assert v == pytest.approx(
        math.sin(0.3) * math.cos(0.3) + math.sinh(0.2) * math.cosh(0.2) + math.tanh(0.1)
    )


def test_parse_parameters():
    e = P("tau*x1 + k", ("tau", "k"))
    assert ex.evaluate(e, (2.0, 0, 0), {"tau": 3.0, "k": 1.0}) == 7.0
    with pytest.raises(ex.UnboundParameterError):
        ex.evaluate(e, (2.0, 0, 0), {"tau": 3.0})


def test_parse_integer_exponents_only():
    assert ex.evaluate(P("x1^-2"), (2.0, 0, 0)) == 0.25
    assert ex.evaluate(P("x1^0"), (5.0, 0, 0)) == 1.0
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


def test_constant_folding():
    assert P("2 + 3*4").kind == "const"
    assert P("2 + 3*4").payload == 14.0
    e = ex.add(ex.mul(ex.ONE, ex.coord(0)), ex.ZERO)
    assert e is ex.coord(0)
    assert ex.mul(ex.ZERO, P("exp(x1)")) is ex.ZERO
    assert ex.powi(ex.coord(1), 1) is ex.coord(1)


def test_const_rejects_nonfinite():
    with pytest.raises(ValueError):
        ex.const(float("inf"))
    with pytest.raises(ValueError):
        ex.const(float("nan"))


def test_simplify_is_identity_preserving():
    rng = np.random.default_rng(11)
    e = P("(x1 + x2)^3/sqrt(x3 + 2) - sin(x1*x2)*exp(-x3)")
    s = ex.simplify(e)
    pts = rng.uniform(-1.0, 1.0, size=(50, 3))
    np.testing.assert_allclose(ex.eval_many([e], pts), ex.eval_many([s], pts), atol=1e-14)


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
        if abs(ex.evaluate(e, pt)) > 1e6:
            continue  # cancellation would swamp the difference quotient
        i = int(rng.integers(3))
        exact = ex.evaluate(ex.differentiate(e, i), pt)
        approx = ex.finite_difference(e, i, pt)
        scale = max(1.0, abs(exact))
        assert abs(exact - approx) < 1e-6 * scale, ex.to_text(e, NAMES)
        checked += 1


def test_differentiate_chain_and_quotient():
    e = P("sin(x1^2)/cosh(x2)")
    d0 = ex.differentiate(e, 0)
    d1 = ex.differentiate(e, 1)
    pt = (0.7, 0.4, 0.0)
    x, y = 0.7, 0.4
    assert ex.evaluate(d0, pt) == pytest.approx(2 * x * math.cos(x * x) / math.cosh(y))
    assert ex.evaluate(d1, pt) == pytest.approx(
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


def test_eval_many_matches_checked_interpreter():
    # Bianchi residual of a random dense metric, as the identity suite builds it
    g = idn.suite_metrics(3, 1, 7)[0]
    div_ric = geo.divergence_sym2(g, geo.ricci(g))
    scal = geo.scalar_curvature(g).expr
    comps = [ex.sub(div_ric.comps[j], ex.mul(ex.const(0.5), ex.differentiate(scal, j)))
             for j in range(3)]
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(100, 3))
    assert np.array_equal(ex.eval_many(comps, pts), ex._eval_checked(comps, pts))
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
                              ex._eval_checked(es, pts, params))
        vals, ok = ex.eval_many(es, pts, params, mode="masked")
        assert ok.all() and np.array_equal(vals, ex._eval_checked(es, pts, params))


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
    assert ex.evaluate(e, (1.0, 3.0, 0.0)) == 6.0


def test_operator_sugar():
    x, y = ex.coord(0), ex.coord(1)
    e = (x + y) * 2 - x / (y + 3) + (-x) ** 2
    v = ex.evaluate(e, (1.0, 2.0, 0.0))
    assert v == pytest.approx(6.0 - 0.2 + 1.0)


def test_free_coords_and_params():
    e = P("tau*x1 + x3^2", ("tau",))
    assert ex.free_coords(e) == {0, 2}
    assert ex.free_params(e) == {"tau"}


def test_substitute_coords():
    e = P("x1^2 + x2")
    sub = ex.substitute_coords(e, {0: ex.coord(2), 1: ex.const(5.0)})
    assert ex.evaluate(sub, (0.0, 0.0, 3.0)) == 14.0


def test_check_names_rejects_collisions_and_reserved():
    with pytest.raises(ValueError):
        ex.check_names(("x1", "x1"))
    with pytest.raises(ValueError):
        ex.check_names(("sin",))
    with pytest.raises(ValueError):
        ex.check_names(("x1",), ("x1",))
