"""Self-time arithmetic and function wrapping of the benchmark tracer."""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import tracer  # noqa: E402


def span(name, start, end, parent=-1, cmd=0, extra=None):
    return [name, start, end, parent, cmd, extra]


def test_self_time_subtracts_children_once():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("geometry.ricci", 1.0, 4.0, parent=0),
        span("expr.eval_many", 2.0, 3.0, parent=1, extra=[50, 100]),
        span("geometry.gnorm_sym2", 5.0, 6.5, parent=0),
    ]
    assert tracer.self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5])


def test_overlapping_children_are_counted_by_their_union():
    spans = [span("a.x", 0.0, 10.0), span("a.y", 1.0, 5.0, parent=0),
             span("a.z", 3.0, 7.0, parent=0), span("a.w", 9.0, 12.0, parent=0)]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_totals_plus_unattributed_add_up_to_wall():
    spans = [
        span("cli.import", 0.10, 0.30),
        span("cli.main", 0.35, 1.00),
        span("soliton.soliton_residual", 0.40, 0.90, parent=1),
        span("geometry.sample_points", 0.40, 0.50, parent=2, extra=200),
        span("expr.eval_many", 0.42, 0.45, parent=3, extra=[10, 512]),
        span("expr.eval_many", 0.55, 0.80, parent=2, extra=[40, 200]),
        span("trace.count_nodes", 0.55, 0.56, parent=5),
    ]
    wall = 1.2
    sums = tracer.command_sums(spans)[0]
    layer_sum = sum(sums.get(k, 0) for k in tracer.LAYER_TOTAL.values())
    unattributed = wall - tracer.covered(spans)
    assert layer_sum + unattributed == pytest.approx(wall)
    assert unattributed == pytest.approx(0.10 + 0.05 + 0.20)
    # evaluation inside sampling is booked apart from expr.eval_s
    assert sums["geometry.sample_eval_s"] == pytest.approx(0.03)
    assert sums["expr.eval_s"] == pytest.approx(0.24)
    assert sums["trace.self_s"] == pytest.approx(0.01)
    assert sums["expr.eval_calls"] == 1
    assert sums["expr.eval_nodes"] == 40
    assert sums["expr.eval_node_points"] == 40 * 200
    assert sums["geometry.points_accepted"] == 200
    assert sums["cli.import_s"] == pytest.approx(0.20)


def test_spans_are_grouped_by_command_id():
    spans = [span("cli.main", 0.0, 1.0, cmd=0), span("cli.main", 1.0, 3.0, cmd=1),
             span("geometry.ricci", 1.5, 2.0, parent=1, cmd=1)]
    sums = tracer.command_sums(spans)
    assert sums[0]["cli.self_s"] == pytest.approx(1.0)
    assert sums[1]["cli.self_s"] == pytest.approx(1.5)
    assert sums[1]["geometry.build_calls"] == 1


def test_install_rebinds_every_alias_and_records_nesting(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    inner = types.ModuleType("fakepkg.inner")
    outer = types.ModuleType("fakepkg.outer")

    def leaf(x):
        return x + 1

    inner.leaf = leaf
    outer.leaf = leaf          # as if by "from .inner import leaf"

    def top(x):
        return outer.leaf(x) * 2

    outer.top = top
    for name, mod in (("fakepkg", pkg), ("fakepkg.inner", inner),
                      ("fakepkg.outer", outer)):
        monkeypatch.setitem(sys.modules, name, mod)
    tr = tracer.Tracer()
    tr.install(pkg, {"inner": ("leaf",), "outer": ("top",)})
    assert inner.leaf is outer.leaf is not leaf
    assert outer.top(3) == 8
    names = [(s[tracer.NAME], s[tracer.PARENT]) for s in tr.spans]
    assert names == [("outer.top", -1), ("inner.leaf", 0)]
