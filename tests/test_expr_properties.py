# property tests of the expression layer: the text round trip, exact derivatives,
# cached tapes, and fault location against the reference interpreter

import math

import numpy as np
import pytest

import oracles
from solitonlab import expr as ex
from test_tapes import bits

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

NAMES = ("x1", "x2", "x3")
PARAMS = {"a": 0.7, "b": -1.3}
UNARY = (ex.neg,) + tuple(getattr(ex, f) for f in ex.FUNCTIONS)
BINARY = (ex.add, ex.sub, ex.mul, ex.div)


def trees(constants):
    """Expressions over every node kind, an operator at the root: coordinates,
    parameters, constants drawn from `constants`, neg and each function, the
    four binary operators and integer powers of either sign."""
    leaves = st.one_of(st.integers(0, len(NAMES) - 1).map(ex.coord),
                       st.sampled_from(sorted(PARAMS)).map(ex.param),
                       constants.map(ex.const))

    def apply(sub):
        return st.one_of(st.builds(lambda f, a: f(a), st.sampled_from(UNARY), sub),
                         st.builds(lambda f, a, b: f(a, b), st.sampled_from(BINARY), sub, sub),
                         st.builds(ex.powi, sub, st.integers(-4, 4)))

    return apply(st.recursive(leaves, apply, max_leaves=10))


@hypothesis.settings(max_examples=250, deadline=None, derandomize=True)
@hypothesis.given(trees(st.floats(allow_nan=False, allow_infinity=False)))
def test_text_round_trip_rebuilds_the_node(e):
    # any finite constant, negative ones and subnormals too
    text = ex.to_text(e, NAMES)
    assert ex.parse_expression(text, NAMES, tuple(PARAMS)) is e, text


def _value(e, pt):
    try:
        return oracles.evaluate(e, pt, PARAMS)
    except ex.DomainError:
        return math.nan


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(trees(st.floats(-2.0, 2.0)), st.integers(0, len(NAMES) - 1),
                  st.lists(st.floats(0.2, 1.2), min_size=3, max_size=3))
def test_differentiate_matches_central_differences(e, i, point):
    pt = np.array(point)
    d = ex.differentiate(e, i)
    # in the domain: e is finite and moderate over the whole stencil
    stencil = [pt + s * np.eye(3)[i] for s in (-2e-4, -1e-4, 0.0, 1e-4, 2e-4)]
    vals = [_value(e, p) for p in stencil]
    hypothesis.assume(all(abs(v) < 1e4 for v in vals))
    exact = _value(d, pt)
    hypothesis.assume(abs(exact) < 1e4)
    fine = oracles.finite_difference(e, i, pt, PARAMS, step=1e-4)
    coarse = oracles.finite_difference(e, i, pt, PARAMS, step=2e-4)
    # the spread of two Richardson estimates bounds the quotient's own error
    # where e is smooth; near a pole it grows, and the check loosens with it
    slack = 1e-6 * max(1.0, abs(exact)) + 100.0 * abs(fine - coarse)
    assert abs(exact - fine) <= slack, (ex.to_text(e, NAMES), i, point)


def _outcome(roots, pts, mode):
    try:
        return ex.eval_many(roots, pts, PARAMS, mode=mode)
    except ex.DomainError as err:
        return (err.reason, err.point_index)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(st.lists(trees(st.floats(-2.0, 2.0)), min_size=1, max_size=3),
                  st.lists(st.tuples(*[st.floats(-2.0, 2.0)] * len(NAMES)),
                           min_size=1, max_size=6))
def test_cached_tape_replays_the_first_evaluation(exprs, points):
    # roots that repeat and that are operands of other roots; points where
    # some lanes fault (ln, sqrt and division meet 0 and negative values)
    roots = tuple(exprs) + exprs[0].args[:1] + (exprs[0],)
    pts = np.array(points, dtype=float)
    kept = oracles.eval_checked(roots, pts, PARAMS, mode="masked")[0]
    for mode in ("strict", "masked"):
        ex._TAPES.pop(roots, None)
        first = _outcome(roots, pts, mode)
        again = _outcome(roots, pts, mode)
        if isinstance(first, tuple) and isinstance(first[0], str):
            assert again == first
            continue
        if mode == "strict":
            first, ok = (first, again), np.ones(len(pts), dtype=bool)
        else:
            assert np.array_equal(again[1], first[1])
            ok = first[1]
            first = (first[0], again[0])
        assert np.array_equal(bits(first[1]), bits(first[0]))
        assert np.array_equal(bits(first[0][:, ok]), bits(kept[:, ok]))


def _reference(roots, pts, mode):
    try:
        return oracles.eval_checked(roots, pts, PARAMS, mode=mode)
    except ex.DomainError as err:
        return (err.reason, err.point_index)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(st.lists(trees(st.floats(-2.0, 2.0)), min_size=1, max_size=3),
                  st.lists(st.tuples(*[st.sampled_from([0.0, -1.0, 0.5, 2.0, math.nan])
                                       | st.floats(-2.0, 2.0)] * len(NAMES)),
                           min_size=1, max_size=6))
def test_fault_path_matches_the_reference_interpreter(exprs, points):
    # zeros, negatives and NaN coordinates send most examples down the fault
    # path: its strict (reason, point), masked mask and ok-lane bits are the
    # reference's
    roots = tuple(exprs)
    pts = np.array(points, dtype=float)
    got, want = _outcome(roots, pts, "strict"), _reference(roots, pts, "strict")
    if isinstance(want, tuple):
        assert got == want
    else:
        assert np.array_equal(bits(got), bits(want))
    (vals, ok), (want, want_ok) = (_outcome(roots, pts, "masked"),
                                   _reference(roots, pts, "masked"))
    assert np.array_equal(ok, want_ok)
    assert np.array_equal(bits(vals[:, ok]), bits(want[:, ok]))
    assert np.isnan(vals[:, ~ok]).all()
