# value semantics of the records: the frozen ones key the lru_caches, so two
# built alike must be equal and hash alike, and none may change after it is built

import inspect

import numpy as np
import pytest

from solitonlab import cli  # noqa: F401  (imports every module, so every record)
from solitonlab import expr as ex
from solitonlab import geometry as geo
from solitonlab import soliton as so
from solitonlab.geometry import (
    Chart, MetricField, OneFormField, ScalarField, SymTensorField, VectorField,
)

X, Y = ex.coord(0), ex.coord(1)


def chart(a=0.5):
    return Chart(["x", "y"], [[-1, 1], [0, 2]], domain=[Y], params=[("b", 1), ("a", a)])


def records(a=0.5):
    """One of each chart-level record, built from scratch on chart(a)."""
    c = chart(a)
    g = MetricField(c, [[ex.ONE, ex.ZERO], [ex.ZERO, ex.add(ex.ONE, ex.mul(X, X))]])
    return {
        "chart": c,
        "scalar": ScalarField(c, ex.mul(X, Y)),
        "vector": VectorField(c, [X, Y]),
        "one-form": OneFormField(c, [X, Y]),
        "sym-tensor": SymTensorField(c, geo.sym2(2, lambda i, j: ex.const(i + j))),
        "metric": g,
        "structure": so.SolitonStructure(g, ScalarField(c, ex.ONE), ScalarField(c, ex.ONE),
                                         potential=ScalarField(c, X)),
    }


@pytest.mark.parametrize("kind", records())
def test_records_built_alike_are_equal_and_hash_alike(kind):
    a, b, other = records()[kind], records()[kind], records(0.25)[kind]
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != other


def test_equality_is_strict_in_the_class():
    r = records()
    vector, one_form = r["vector"], r["one-form"]
    assert vector.chart is one_form.chart and vector.comps == one_form.comps
    assert vector != one_form and one_form != vector
    assert MetricField(r["chart"], r["sym-tensor"].comps) != r["sym-tensor"]
    assert len({vector, one_form}) == 2
    assert r["chart"] != r["chart"].coords and r["scalar"] != r["scalar"].expr


@pytest.mark.parametrize("kind", records())
def test_frozen_records_refuse_assignment(kind):
    rec = records()[kind]
    field = rec._fields[0]
    before = getattr(rec, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(rec, field, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(rec, field)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert getattr(rec, field) is before and not hasattr(rec, "extra")


def test_chart_normalizes_its_fields():
    c = chart()
    assert c.coords == ("x", "y") and c.box == ((-1, 1), (0, 2)) and c.domain == (Y,)
    assert c.params == (("a", 0.5), ("b", 1.0)) and type(c.params[1][1]) is float
    assert repr(ScalarField(c, ex.ONE)) == (
        "ScalarField(chart=Chart(coords=('x', 'y'), box=((-1, 1), (0, 2)), "
        "domain=(Expression(x2),), params=(('a', 0.5), ('b', 1.0))), "
        "expr=Expression(1.0))")


def test_chart_with_lanes_neither_hashes_nor_compares():
    def lanes(*values):
        return Chart(["x"], [[-1, 1]], params=[("a", np.array(values))])

    a, b = lanes(1.0, 2.0), lanes(1.0, 2.0)
    with pytest.raises(TypeError, match="unhashable type: 'numpy.ndarray'"):
        hash(a)
    with pytest.raises(TypeError, match="unhashable type: 'numpy.ndarray'"):
        {a: 1}
    for other in (b, Chart(["x"], [[-1, 1]], params=[("a", 1.0)])):
        with pytest.raises(ValueError, match="truth value of an array"):
            a == other
        with pytest.raises(ValueError, match="truth value of an array"):
            a != other
    assert a == a  # the same array object: the tuple compare skips it
    assert lanes(1.0) != lanes(2.0)


def test_every_frozen_record_lists_its_init_parameters_as_fields():
    classes = geo.Frozen.__subclasses__()
    assert sorted(c.__name__ for c in classes) == [
        "Chart", "DerivedFields", "ExampleSpec", "HeightFunction", "MetricField",
        "ModelSpace", "OneFormField", "ScalarField", "SolitonStructure", "SymTensorField",
        "VectorField", "WarpedProduct"]
    for cls in classes:
        assert cls._fields == tuple(inspect.signature(cls).parameters), cls.__name__


def test_mutable_records_keep_their_fields_in_order():
    rep = so.ResidualReport("r", 1e-8, None, None, 0.0, True, ())
    assert list(vars(rep)) == list(inspect.signature(so.ResidualReport).parameters)
    assert rep.metadata == {} and rep.metadata is not so.ResidualReport(
        "r", 1e-8, None, None, 0.0, True, ()).metadata
    rep.passed = False
    assert rep.passed is False
    v = so.TrivialityVerdict(True, 1.0, 0.0, 0.0)
    assert vars(v) == vars(so.TrivialityVerdict(True, 1.0, 0.0, 0.0, 0.0, None))
