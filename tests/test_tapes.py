# compiled evaluation tapes: a tape cached by one call gives the bits a fresh
# compile gives, whatever the points, the binding and the DAGs built since

import importlib.util
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from solitonlab import cli
from solitonlab import examples as exm
from solitonlab import expr as ex
from solitonlab import geometry as geo
from solitonlab import identities as idn

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS_PATH = ROOT / "perfbench" / "workloads.py"


def load_workloads():
    """perfbench/workloads.py, loaded by path so that plain pytest finds it too."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def fresh_and_cached(roots, pts, binding=None):
    """eval_many's result with the roots' tape compiled by the call, then cached."""
    ex._TAPES.pop(tuple(roots), None)
    first = ex.eval_many(roots, pts, binding)
    assert tuple(roots) in ex._TAPES
    return first, ex.eval_many(roots, pts, binding)


PTS = np.random.default_rng(3).uniform(0.5, 1.5, size=(7, 3))
X, Y = ex.coord(0), ex.coord(1)


def test_square_of_a_single_use_node():
    # t*t: t has two consumer slots in one node, so neither write may reuse it
    t = ex.add(X, ex.const(0.25))
    sq = ex.mul(t, t)
    for got in fresh_and_cached([sq], PTS):
        np.testing.assert_array_equal(got[0], (PTS[:, 0] + 0.25) * (PTS[:, 0] + 0.25))


def test_root_that_is_an_operand_of_another_root():
    t = ex.mul(ex.sub(X, ex.const(3.0)), Y)
    u = ex.exp(ex.add(t, ex.const(1.0)))
    want = (PTS[:, 0] - 3.0) * PTS[:, 1]
    for roots in ([t, u], [u, t], [u, t, u, t]):
        for got in fresh_and_cached(roots, PTS):
            np.testing.assert_array_equal(got[roots.index(t)], want)
            np.testing.assert_array_equal(got[roots.index(u)], np.exp(want + 1.0))


def test_node_that_gains_a_consumer_after_its_tape_was_cached():
    # constants no other test uses, so that t is a new node
    t = ex.mul(ex.add(X, ex.const(5.0625)), ex.add(Y, ex.const(5.0625)))
    c1 = ex.sin(ex.add(t, ex.const(2.0625)))
    assert t.uses == 1
    first = ex.eval_many([c1], PTS)  # c1 writes t + 2.0625 into t's buffer
    c2 = ex.sub(t, ex.coord(2))
    assert t.uses == 2
    tv = (PTS[:, 0] + 5.0625) * (PTS[:, 1] + 5.0625)
    np.testing.assert_array_equal(ex.eval_many([c1], PTS), first)
    both = ex.eval_many([c1, c2], PTS)
    np.testing.assert_array_equal(both[0], first[0])
    np.testing.assert_array_equal(both[1], tv - PTS[:, 2])
    np.testing.assert_array_equal(ex.eval_many([c1], PTS), first)
    np.testing.assert_array_equal(first[0], np.sin(tv + 2.0625))


def test_same_roots_under_two_bindings():
    a, b = ex.param("a"), ex.param("b")
    e = ex.add(ex.mul(ex.mul(a, b), X), ex.powi(ex.sub(b, a), 3))
    roots = [e, ex.mul(a, b)]
    for binding in ({"a": 0.5, "b": 2.0}, {"a": -3.0, "b": 1.25}, {"a": 0.5, "b": 2.0}):
        first, cached = fresh_and_cached(roots, PTS, binding)
        want = oracles.eval_checked(roots, PTS, binding)
        np.testing.assert_array_equal(first, want)
        np.testing.assert_array_equal(cached, want)
    # the tape compiled under one binding replays under the other
    for binding in ({"a": -3.0, "b": 1.25}, {"a": 0.5, "b": 2.0}):
        np.testing.assert_array_equal(ex.eval_many(roots, PTS, binding),
                                      oracles.eval_checked(roots, PTS, binding))


def test_root_set_that_faults_again_and_again_compiles_one_tape(monkeypatch):
    e = ex.ln(ex.sub(X, ex.const(1.0)))
    roots = (e, ex.mul(e, Y))
    ex._TAPES.pop(roots, None)
    calls, located = [], []
    compile_, locate = ex._compile, ex._locate
    monkeypatch.setattr(ex, "_compile", lambda r: calls.append(r) or compile_(r))
    monkeypatch.setattr(ex, "_locate", lambda *a: located.append(a) or locate(*a))
    pts = PTS + [1.0, 0.0, 0.0]
    pts[2, 0] = 0.5
    before = len(ex._TAPES)
    for _ in range(3):
        vals, ok = ex.eval_many(roots, pts, mode="masked")
        assert list(np.flatnonzero(~ok)) == [2]
        with pytest.raises(ex.DomainError) as info:
            ex.eval_many(roots, pts)
        assert (info.value.reason, info.value.point_index) == (
            "logarithm of a non-positive value", 2)
    # every call located its fault on a replay derived from the one cached tape
    assert calls == [roots] and len(located) == 6
    assert len(ex._TAPES) == before + 1
    tape = ex._TAPES[roots]
    assert {k: getattr(tape, k) for k in tape.__slots__} == {
        k: getattr(compile_(roots), k) for k in tape.__slots__}


def suite_roots(d):
    g = idn.suite_metrics(d, 1, 7)[0]
    div_ric = geo.divergence_sym2(g, geo.ricci(g))
    return [e for row in g.comps for e in row] + list(div_ric.comps)


def structure_roots():
    for example_id, spec in sorted(exm.EXAMPLES.items()):
        if spec.structure:
            s = exm.build_structure(example_id)
            ric = geo.ricci(s.metric)
            yield [e for t in (s.metric.comps, ric.comps) for row in t for e in row] + [
                s.lam.expr]


def test_tapes_walk_in_topo_order_and_restore_consumer_counts():
    x = ex.coord(0)
    cases = [[x, x], [ex.mul(x, x)], [ex.add(ex.mul(x, x), x), ex.mul(x, x)]]
    cases += list(structure_roots()) + [suite_roots(2), suite_roots(3)]
    for roots in cases:
        order = oracles.topo(roots)[0]
        uses = [n.uses for n in order]
        tape = ex._compile(tuple(roots))
        assert len(tape.ops) == len(order) and tape.width <= len(order)
        assert [n.uses for n in order] == uses
        assert set(tape.ops.translate(ex._ALLOCATING)) <= {0, 2, 4, 6, 7, 8}
        dim = 1 + max(n.payload for n in order if n.kind == "coord")
        pts = np.random.default_rng(len(order)).uniform(0.5, 1.5, size=(5, dim))
        binding = {n.payload: 0.75 for n in order if n.kind == "param"}
        np.testing.assert_array_equal(bits(ex.eval_many(roots, pts, binding)),
                                      bits(oracles.eval_checked(roots, pts, binding)))


def run_argv(capsys, argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out


CATALOG_COLD = load_workloads().CATALOG_COLD


@pytest.mark.parametrize("template", CATALOG_COLD, ids=lambda t: " ".join(t.argv))
def test_catalog_command_with_cached_tapes_prints_the_cold_bytes(template, tmp_path,
                                                                 monkeypatch, capsys):
    # the catalog-cold argvs at seed 11, first with no tape cached, then with
    # the tapes that the same template cached at seed 12
    monkeypatch.chdir(ROOT)
    argv = template.with_seed(11).resolved(str(tmp_path))
    ex._TAPES.clear()
    cold = run_argv(capsys, argv)
    ex._TAPES.clear()
    run_argv(capsys, template.with_seed(12).resolved(str(tmp_path)))
    assert ex._TAPES
    assert run_argv(capsys, argv) == cold
    assert cold[0] == template.expect.exit


def test_catalog_command_in_a_fresh_process_prints_the_cached_tape_bytes(capsys):
    argv = ["verify-example", "pseudo-hyperbolic", "--points", "200", "--seed", "11"]
    run_argv(capsys, argv[:-1] + ["12"])
    cached = run_argv(capsys, argv)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "solitonlab.cli", *argv], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == cached


@pytest.mark.parametrize("argv", [
    ["verify-example", "neg-m-sphere", "--points", "60"],
    ["verify-manifest", "perfbench/manifests/shell-neg-m-over-u.json", "--points", "60"],
    ["check-identity", "bianchi", "--dim", "3", "--random-metrics", "2", "--points", "30"],
    ["check-identity", "oneill", "--points", "40"],
], ids=" ".join)
def test_repeated_argv_compiles_no_tape(argv, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    first = run_argv(capsys, argv)
    compiled = []
    compile_ = ex._compile
    monkeypatch.setattr(ex, "_compile", lambda *a, **k: compiled.append(a) or compile_(*a, **k))
    assert run_argv(capsys, argv) == first
    assert compiled == []


# shared values are dropped at their last consumer; tapes replay in point blocks

B = ex._BLOCK


def no_fallback(*args):
    raise AssertionError("a block fell back to the whole-column replay")


def tape_writes(roots):
    """A fresh fast tape of `roots`: its nodes in order, and each one's output slot."""
    tape = ex._compile(tuple(roots))
    return oracles.topo(roots)[0], list(tape.slots[2::3])


def test_shared_value_slot_is_reused_after_its_last_consumer_and_never_before():
    s = ex.mul(ex.add(X, ex.const(7.125)), ex.add(Y, ex.const(7.125)))
    users = [ex.exp(s), ex.mul(s, X), ex.add(s, ex.const(7.375))]
    root = ex.add(ex.add(users[0], users[1]), ex.cosh(users[2]))
    assert s.uses == 3
    order, outs = tape_writes([root])
    first = order.index(s)
    last = max(j for j, node in enumerate(order) if s in node.args)
    # later writes to s's slot: none before its last consumer, and one from there on
    writes = [j for j, o in enumerate(outs) if o == outs[first] and j > first]
    assert writes and min(writes) >= last
    np.testing.assert_array_equal(bits(ex.eval_many([root], PTS)),
                                  bits(oracles.eval_checked([root], PTS)))


def test_root_is_never_dropped():
    # t is a root and the operand of two other nodes, both in the tape
    t = ex.mul(ex.sub(X, ex.const(7.625)), ex.sub(Y, ex.const(7.625)))
    top = ex.add(ex.sin(t), ex.mul(t, Y))
    assert t.uses == 2
    want = (PTS[:, 0] - 7.625) * (PTS[:, 1] - 7.625)
    for roots in ([top, t], [t, top], [t]):
        order, outs = tape_writes(roots)
        at = order.index(t)
        assert outs[at] not in outs[at + 1:]
        for got in fresh_and_cached(roots, PTS):
            np.testing.assert_array_equal(got[roots.index(t)], want)
            np.testing.assert_array_equal(bits(got), bits(oracles.eval_checked(roots, PTS)))


def test_value_with_a_consumer_outside_the_tape_is_kept():
    s = ex.mul(ex.add(X, ex.const(8.125)), ex.add(Y, ex.const(8.125)))
    root = ex.add(ex.exp(s), X)
    ex.mul(s, ex.const(3.0))  # a consumer that no tape below runs
    assert s.uses == 2
    order, outs = tape_writes([root])
    at = order.index(s)
    assert outs[at] not in outs[at + 1:]
    np.testing.assert_array_equal(bits(ex.eval_many([root], PTS)),
                                  bits(oracles.eval_checked([root], PTS)))


def test_tape_cached_before_its_shared_nodes_gain_consumers_replays_bit_for_bit():
    s = ex.mul(ex.add(X, ex.const(8.375)), ex.add(Y, ex.const(8.375)))
    u = ex.exp(s)
    roots = [ex.add(u, ex.sin(ex.mul(s, Y)))]
    assert s.uses == 2
    pts = np.random.default_rng(8).uniform(0.5, 1.5, size=(2 * B + 5, 2))
    first, cached = fresh_and_cached(roots, pts)
    np.testing.assert_array_equal(bits(cached), bits(first))
    # s gains two consumers and u one: the cached tape drops s at its second
    # consumer, a fresh one keeps it, and both give the same bits
    later = [ex.sub(s, u), ex.cos(s)]
    assert (s.uses, u.uses) == (4, 2)
    np.testing.assert_array_equal(bits(ex.eval_many(roots, pts)), bits(first))
    for got in fresh_and_cached(roots, pts):
        np.testing.assert_array_equal(bits(got), bits(first))
    both = roots + later
    for got in fresh_and_cached(both, pts):
        np.testing.assert_array_equal(bits(got), bits(oracles.eval_checked(both, pts)))
        np.testing.assert_array_equal(bits(got[:1]), bits(first))


@pytest.mark.parametrize("n", [B - 1, B, B + 1, 3 * B + 7])
def test_blocks_give_the_bits_of_one_whole_column_pass(n, monkeypatch):
    rng = np.random.default_rng(n)
    pts = rng.uniform(0.5, 1.5, size=(n, 2))
    a, b, c = ex.param("lane_a"), ex.param("lane_b"), ex.param("lane_c")
    s = ex.add(ex.mul(X, a), Y)
    roots = [ex.exp(s), ex.ln(s), ex.sin(ex.mul(s, b)), ex.cosh(ex.sub(s, c)),
             ex.sqrt(ex.add(s, b)), ex.mul(a, c)]
    binding = {"lane_a": rng.uniform(0.5, 1.5, n), "lane_b": rng.uniform(-0.5, 0.5, n),
               "lane_c": 0.75}
    want = oracles.eval_checked(roots, pts, binding)
    # every block runs on the fast tape: none falls back to a whole-column replay
    monkeypatch.setattr(ex, "_locate", no_fallback)
    for got in fresh_and_cached(roots, pts, binding):
        np.testing.assert_array_equal(bits(got), bits(want))
    vals, ok = ex.eval_many(roots, pts, binding, mode="masked")
    np.testing.assert_array_equal(bits(vals), bits(want))
    assert ok.all() and ok.shape == (n,)


def test_fault_at_an_earlier_node_in_a_later_block_is_located_as_in_one_pass():
    # the first block divides by zero at point 5; the third block takes the
    # logarithm of a negative value at an earlier node
    pts = np.random.default_rng(9).uniform(0.5, 1.5, size=(3 * B + 7, 2))
    pts[2 * B + 3, 0] = 0.25
    pts[5, 1] = 0.875
    roots = [ex.ln(ex.sub(X, ex.const(0.375))), ex.div(ex.ONE, ex.sub(Y, ex.const(0.875)))]
    for _ in range(2):
        with pytest.raises(ex.DomainError) as info:
            ex.eval_many(roots, pts)
        assert (info.value.reason, info.value.point_index) == (
            "logarithm of a non-positive value", 2 * B + 3)
        vals, ok = ex.eval_many(roots, pts, mode="masked")
        assert list(np.flatnonzero(~ok)) == [5, 2 * B + 3]
        assert np.isnan(vals[:, ~ok]).all() and np.isfinite(vals[:, ok]).all()


def outcomes(evaluate, roots, pts, binding):
    """The strict (reason, point index) of `evaluate`, and its masked values and mask."""
    with pytest.raises(ex.DomainError) as info:
        evaluate(roots, pts, binding)
    return (info.value.reason, info.value.point_index), evaluate(roots, pts, binding,
                                                                  mode="masked")


def test_bianchi_lanes_with_a_nan_point_fault_as_the_reference_does():
    # two suite metrics bound as lanes: most instructions of this tape write
    # in place, and the replay that locates the fault is derived from it
    gs = idn.suite_metrics(3, 2, 7)
    g = geo.MetricField(geo.Chart(gs[0].chart.coords, gs[0].chart.box), gs[0].comps)
    roots = [e for row in g.comps for e in row] + list(dict(idn.bianchi_residuals(g))["bianchi"])
    tape = ex._compile(tuple(roots))
    assert sum(op in (1, 3, 5) for op in tape.ops) > len(tape.ops) / 2
    rng = np.random.default_rng(12)
    pts = rng.uniform(-0.9, 0.9, size=(2 * B + 40, 3))
    pts[B + 17, 1] = np.nan
    values = [dict(m.chart.params) for m in gs]
    binding = {k: np.repeat([v[k] for v in values], [B, B + 40]) for k in values[0]}
    (reason, at), (vals, ok) = outcomes(ex.eval_many, roots, pts, binding)
    (want_reason, want_at), (want, want_ok) = outcomes(oracles.eval_checked, roots, pts,
                                                       binding)
    assert (reason, at) == (want_reason, want_at) == ("non-finite result in coord", B + 17)
    assert list(np.flatnonzero(~ok)) == list(np.flatnonzero(~want_ok)) == [B + 17]
    np.testing.assert_array_equal(bits(vals[:, ok]), bits(want[:, ok]))
    assert np.isnan(vals[:, ~ok]).all()


def forty_shared_values():
    """A sum in which each of 40 shared values has one consumer in each half:
    a whole-column pass holds all 40 columns at once."""
    shared = [ex.mul(ex.add(X, ex.const(9.0 + i / 64)), Y) for i in range(40)]
    return ex.nsum([ex.sin(s) for s in shared] + [ex.cos(s) for s in shared])


def test_eval_many_peak_memory_grows_only_by_its_output():
    e = forty_shared_values()
    rng = np.random.default_rng(10)
    ex.eval_many([e], PTS[:, :2])
    peaks, outs = [], []
    for n in (4 * B, 16 * B):
        pts = rng.uniform(-1.0, 1.0, size=(n, 2))
        tracemalloc.start()
        try:
            outs.append(ex.eval_many([e], pts).nbytes)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= outs[1] - outs[0]


@pytest.mark.parametrize("mode", ["strict", "masked"])
def test_fault_replay_peak_memory_grows_by_at_most_one_tape_width(mode):
    # one NaN point sends every point through the replay that locates it:
    # beside the output and the mask it holds the tape's slots, a column
    # each, not a column per node
    e = forty_shared_values()
    ex.eval_many([e], PTS[:, :2])
    width = ex._TAPES[(e,)].width
    rng = np.random.default_rng(11)
    peaks = []
    for n in (4 * B, 16 * B):
        pts = rng.uniform(-1.0, 1.0, size=(n, 2))
        pts[n - 1, 1] = np.nan
        tracemalloc.start()
        try:
            if mode == "strict":
                with pytest.raises(ex.DomainError):
                    ex.eval_many([e], pts)
            else:
                assert list(np.flatnonzero(~ex.eval_many([e], pts, mode=mode)[1])) == [n - 1]
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # per point: the output, a float per slot and the mask
    assert peaks[1] - peaks[0] <= 12 * B * (8 + 8 * width + 1)


WIDTHS = """
from solitonlab import expr as ex, geometry as geo, identities as idn
for dim in (2, 3, 4, 5):
    g = idn.suite_metrics(dim, 1, 7)[0]
    g = geo.MetricField(geo.Chart(g.chart.coords, g.chart.box), g.comps)
    roots = [e for row in g.comps for e in row] + list(dict(idn.bianchi_residuals(g))["bianchi"])
    print(ex._compile(tuple(roots)).width)
"""


def test_bianchi_tape_widths_are_pinned():
    # the slots the metric and Bianchi roots of a suite tape run over, in a
    # fresh process (consumers in DAGs built earlier keep values longer):
    # every array result writes into the last dropped array the tape allocated
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", WIDTHS], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout.split()) == (0, ["104", "512", "2002", "6937"])
