# universal identity suites on random perturbed metrics

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from solitonlab import cli
from solitonlab import examples as exm
from solitonlab import expr as ex
from solitonlab import geometry as geo
from solitonlab import identities as idn
from solitonlab import soliton as so

from kernel_paths import kernel_path


def test_random_perturbed_metric_is_spd_on_box():
    rng = np.random.default_rng(17)
    g = idn.random_perturbed_metric(rng, 3)
    pts = np.random.default_rng(1).uniform(-1, 1, size=(200, 3))
    gv = geo.eval_metric(g, pts)[0]
    eig = np.linalg.eigvalsh(gv)
    assert np.all(eig[:, 0] > 0.1)  # comfortably positive definite


def test_suite_metrics_deterministic():
    a = idn.suite_metrics(3, 4, seed=7)
    b = idn.suite_metrics(3, 4, seed=7)
    assert len(a) == 4
    for ga, gb in zip(a, b):
        assert ga.comps == gb.comps  # interned expressions: equality is identity
        assert ga.chart == gb.chart
    # every metric of one dimension has the same components, at any seed; only
    # the values of its parameters, one per entry and term, differ
    c = idn.suite_metrics(3, 1, seed=8)[0]
    assert a[0].comps == a[1].comps == c.comps
    assert len({a[0].chart, a[1].chart, c.chart}) == 3
    assert {k for k, _ in c.chart.params} == {
        f"g{i}{j}_{t}" for i in range(3) for j in range(i, 3) for t in range(10)}


def test_bianchi_suite_small():
    reports = idn.bianchi_suite(metric_count=5, point_count=40)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.name == "bianchi" and rep.passed
    assert rep.metadata["metrics"] == 5
    assert len(rep.residuals) == 5 * 40


def test_fg_formulas_suite_small():
    reports = idn.fg_formulas_suite(metric_count=5, point_count=40)
    names = [r.name for r in reports]
    assert names == ["fg-div-product", "fg-covariant-product",
                     "fg-half-grad-square", "fg-hessian-divergence"]
    for rep in reports:
        assert rep.passed, (rep.name, rep.sup)
        assert rep.sup < idn.SUITE_TOL


def test_lemma21_suite_small():
    reports = idn.lemma21_suite(metric_count=5, point_count=40)
    assert len(reports) == 1 and reports[0].name == "lemma21"
    assert reports[0].passed


def test_suites_share_a_metric_family():
    metrics = idn.suite_metrics(3, 3, seed=7)
    b = idn.bianchi_suite(metric_count=3, point_count=30, metrics=metrics)
    f = idn.fg_formulas_suite(metric_count=3, point_count=30, metrics=metrics)
    l = idn.lemma21_suite(metric_count=3, point_count=30, metrics=metrics)
    for rep in b + f + l:
        assert rep.passed


def test_suite_determinism_across_calls():
    a = idn.bianchi_suite(metric_count=3, point_count=30)
    b = idn.bianchi_suite(metric_count=3, point_count=30)
    assert a[0].sup == b[0].sup
    np.testing.assert_array_equal(a[0].residuals, b[0].residuals)
    fa = idn.fg_formulas_suite(metric_count=2, point_count=20)
    fb = idn.fg_formulas_suite(metric_count=2, point_count=20)
    for ra, rb in zip(fa, fb):
        assert ra.sup == rb.sup


def test_suite_residuals_are_nontrivially_small():
    # the identities hold to near machine precision, far below the gate
    rep = idn.bianchi_suite(metric_count=3, point_count=30)[0]
    assert 0.0 <= rep.sup < 1e-10


def test_oneill_suite_on_catalog_product():
    W, _ = exm.pseudo_hyperbolic_product(3, -1.0, 1.0, 0.0)
    reports = idn.oneill_suite(W, count=40)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.name == "oneill" and rep.passed
    assert rep.sup < 1e-9


def test_oneill_suite_curved_fiber():
    W, _ = exm.pseudo_hyperbolic_product(3, -4.0, 2.0, 3.0)
    reports = idn.oneill_suite(W, count=30)
    assert reports[0].passed


def test_dimension_two_guard_or_support():
    # the identity suites run in any dimension >= 2
    for suite, count in ((idn.bianchi_suite, 1), (idn.fg_formulas_suite, 4),
                         (idn.lemma21_suite, 1)):
        reports = suite(dim=2, metric_count=3, point_count=30)
        assert len(reports) == count
        assert all(r.passed and len(r.residuals) == 90 for r in reports)


def test_fg_formulas_suite_makes_one_strict_call(monkeypatch):
    calls = []
    eval_many = ex.eval_many

    def counted(exprs, points, binding=None, mode="strict"):
        calls.append(mode)
        return eval_many(exprs, points, binding, mode)

    monkeypatch.setattr(ex, "eval_many", counted)
    reports = idn.fg_formulas_suite(metric_count=3, point_count=20)
    assert len(reports) == 4 and all(r.passed for r in reports)
    # the three metrics share one DAG: one pass over their concatenated points
    assert calls == ["strict"]


# stdout SHA-256 of `check-identity <argv> --points 100 --seed 77` per numpy
# kernel path (kernel_paths.PATHS), recorded with the g-norms as two-operand
# np.einsum chains over the evaluated inverse_metric entries
SUITE_DIGESTS = {
    "bianchi --dim 3 --random-metrics 4": {
        "X86_V4": "b80bc1ef1cf154ebb1b7b7875bde46b74d46088d111ac261074f6a2c698d7646",
        "X86_V3": "b80bc1ef1cf154ebb1b7b7875bde46b74d46088d111ac261074f6a2c698d7646",
        "baseline": "b80bc1ef1cf154ebb1b7b7875bde46b74d46088d111ac261074f6a2c698d7646"},
    "fg-formulas --dim 3 --random-metrics 4": {
        "X86_V4": "2612452426ea0ac065f8e775928dd9ff1e2d6c8577c7d97ca66c91c64f0392ef",
        "X86_V3": "2612452426ea0ac065f8e775928dd9ff1e2d6c8577c7d97ca66c91c64f0392ef",
        "baseline": "2612452426ea0ac065f8e775928dd9ff1e2d6c8577c7d97ca66c91c64f0392ef"},
    "lemma21 --dim 3 --random-metrics 4": {
        "X86_V4": "c120144288cc35b525a1b598e9540cc9cb246bc1afe4917ed77d163281370b55",
        "X86_V3": "c120144288cc35b525a1b598e9540cc9cb246bc1afe4917ed77d163281370b55",
        "baseline": "c120144288cc35b525a1b598e9540cc9cb246bc1afe4917ed77d163281370b55"},
    "bianchi --dim 4 --random-metrics 1": {
        "X86_V4": "cb9d2d4c3c6f945894147505b103222bd410fb76cfc447d904d5925f8ff45117",
        "X86_V3": "cb9d2d4c3c6f945894147505b103222bd410fb76cfc447d904d5925f8ff45117",
        "baseline": "cb9d2d4c3c6f945894147505b103222bd410fb76cfc447d904d5925f8ff45117"},
    "fg-formulas --dim 4 --random-metrics 1": {
        "X86_V4": "dc2c3336bcfacca5e60236d837d469e0df0e4b1a005463afc21c7f5a0b4aa580",
        "X86_V3": "dc2c3336bcfacca5e60236d837d469e0df0e4b1a005463afc21c7f5a0b4aa580",
        "baseline": "dc2c3336bcfacca5e60236d837d469e0df0e4b1a005463afc21c7f5a0b4aa580"},
    "lemma21 --dim 4 --random-metrics 1": {
        "X86_V4": "c2cd5bf24d01f1d5cc9583954507dfbbf197865556317fd8871fdf46f3f67d4d",
        "X86_V3": "c2cd5bf24d01f1d5cc9583954507dfbbf197865556317fd8871fdf46f3f67d4d",
        "baseline": "c2cd5bf24d01f1d5cc9583954507dfbbf197865556317fd8871fdf46f3f67d4d"},
    "bianchi --dim 5 --random-metrics 1": {
        "X86_V4": "0a8b2a681c5c70dfd07659fbcfc917446694f891aad7d41619d58b07ece43f23",
        "X86_V3": "0a8b2a681c5c70dfd07659fbcfc917446694f891aad7d41619d58b07ece43f23",
        "baseline": "0a8b2a681c5c70dfd07659fbcfc917446694f891aad7d41619d58b07ece43f23"},
    "bianchi": {
        "X86_V4": "ee2f6e36b5c08769c10cfbb51563040d95ea563e0e816ef578aacb14405c8a0b",
        "X86_V3": "ee2f6e36b5c08769c10cfbb51563040d95ea563e0e816ef578aacb14405c8a0b",
        "baseline": "ee2f6e36b5c08769c10cfbb51563040d95ea563e0e816ef578aacb14405c8a0b"},
    "fg-formulas": {
        "X86_V4": "acb303fe3461b92a6e3cb73e968563ae7c299facde411f4d4dbe4bcddded2bfd",
        "X86_V3": "acb303fe3461b92a6e3cb73e968563ae7c299facde411f4d4dbe4bcddded2bfd",
        "baseline": "acb303fe3461b92a6e3cb73e968563ae7c299facde411f4d4dbe4bcddded2bfd"},
    "lemma21": {
        "X86_V4": "b211d5a00f4c8404ca36983f443ff8ef4fce04d3cca1c9728c5f8cc2551356f2",
        "X86_V3": "b211d5a00f4c8404ca36983f443ff8ef4fce04d3cca1c9728c5f8cc2551356f2",
        "baseline": "b211d5a00f4c8404ca36983f443ff8ef4fce04d3cca1c9728c5f8cc2551356f2"},
}


@pytest.mark.parametrize("argv", SUITE_DIGESTS)
def test_suite_report_bytes_are_pinned(argv, capsys):
    code = cli.main(["check-identity", *argv.split(), "--points", "100", "--seed", "77"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SUITE_DIGESTS[argv][kernel_path()]


def test_suite_report_bytes_do_not_depend_on_openblas_kernels():
    # OpenBLAS picks its kernels at run time, unseen by NPY_DISABLE_CPU_FEATURES
    # and by kernel_paths' fingerprint: no report byte may depend on that choice
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(geo.__file__).resolve().parents[1]), env.get("PYTHONPATH")) if p)
    for argv in ("fg-formulas --dim 4 --random-metrics 1", "fg-formulas"):
        outs = {core: subprocess.run(
            [sys.executable, "-m", "solitonlab.cli", "check-identity", *argv.split(),
             "--points", "100", "--seed", "77"],
            env=env if core is None else dict(env, OPENBLAS_CORETYPE=core),
            check=True, capture_output=True).stdout
            for core in (None, "Haswell", "Sandybridge", "Prescott")}
        for core, out in outs.items():
            assert out == outs[None], (argv, core)


def suite_roots(monkeypatch, suite, **kw):
    """The roots of every eval_many call one suite call makes."""
    calls, eval_many = [], ex.eval_many

    def spy(exprs, points, binding=None, mode="strict"):
        calls.append(tuple(exprs))
        return eval_many(exprs, points, binding, mode)

    with monkeypatch.context() as m:
        m.setattr(ex, "eval_many", spy)
        suite(**kw)
    return calls


def state_sizes():
    """The sizes of the node and derivative tables, the tape cache and every
    lru_cache of the symbolic builders."""
    caches = {f"{mod.__name__}.{name}": f.cache_info().currsize
              for mod in (geo, so, idn) for name, f in vars(mod).items()
              if hasattr(f, "cache_info")}
    return (sum(map(len, ex._TABLE.values())), sum(map(len, ex._DIFF.values())),
            len(ex._TAPES), caches)


def count_derives(monkeypatch):
    """A list that gains an entry per expr._derive call from here on."""
    calls, derive = [], ex._derive

    def counted(e, i, memo):
        calls.append(e)
        return derive(e, i, memo)

    monkeypatch.setattr(ex, "_derive", counted)
    return calls


@pytest.mark.parametrize("dim", [3, 4])
def test_parametric_suites_add_no_nodes_and_no_tapes_across_seeds(monkeypatch, dim):
    for suite in (idn.bianchi_suite, idn.fg_formulas_suite, idn.lemma21_suite):
        first = suite_roots(monkeypatch, suite, dim=dim, metric_count=2, point_count=5,
                            seed=100)
        nodes = ex.count_nodes(*[e for roots in first for e in roots])
        sizes = state_sizes()
        with monkeypatch.context() as m:
            derived = count_derives(m)
            for seed in range(101, 110):
                roots = suite_roots(monkeypatch, suite, dim=dim,
                                    metric_count=2 + seed % 3, point_count=5, seed=seed)
                assert roots == first
                assert ex.count_nodes(*[e for r in roots for e in r]) == nodes
        assert derived == []
        assert state_sizes() == sizes


@pytest.mark.parametrize("argv", [
    "check-identity bianchi --dim 3 --random-metrics 2 --points 5",
    "check-identity fg-formulas --dim 3 --random-metrics 2 --points 5",
    "check-identity lemma21 --dim 3 --random-metrics 2 --points 5",
    "verify-example pseudo-hyperbolic --points 20",
])
def test_warm_cli_calls_build_nothing(monkeypatch, argv):
    # after one call, a call at a new seed reaches every symbolic object it
    # needs through the caches: no derivative is taken, and no table or cache grows
    assert cli.main([*argv.split(), "--seed", "100"]) == 0
    sizes = state_sizes()
    derived = count_derives(monkeypatch)
    for seed in range(101, 110):
        assert cli.main([*argv.split(), "--seed", str(seed)]) == 0
        assert derived == []
    assert state_sizes() == sizes


@pytest.mark.xfail(strict=True, reason=(
    "potential_from_factor folds the sampled -n(n-1)/mean R into the DAG, so "
    "each seed builds new nodes and compiles a new tape (ROADMAP item 9)"))
def test_warm_conformal_factor_calls_add_no_node_and_no_tape():
    argv = ["check-identity", "conformal-factor", "--points", "20", "--seed"]
    assert cli.main([*argv, "100"]) == 0
    nodes, tapes = sum(map(len, ex._TABLE.values())), len(ex._TAPES)
    for seed in range(101, 111):
        assert cli.main([*argv, str(seed)]) == 0
    assert (sum(map(len, ex._TABLE.values())), len(ex._TAPES)) == (nodes, tapes)


def memo_entries():
    return sum(map(len, ex._DIFF.values()))


@pytest.mark.parametrize("run", [
    lambda: idn.bianchi_suite(dim=3, metric_count=2, point_count=5),
    lambda: idn.fg_formulas_suite(dim=3, metric_count=2, point_count=5),
    lambda: idn.lemma21_suite(dim=3, metric_count=2, point_count=5),
    lambda: cli.main(["check-identity", "bianchi", "--dim", "3", "--random-metrics", "2",
                      "--points", "5"]),
], ids=["bianchi", "fg-formulas", "lemma21", "cli-bianchi"])
def test_a_suite_run_releases_the_derivative_memo(run):
    # the memo serves the symbolic build; a suite evaluates without it
    ex.differentiate(ex.mul(ex.coord(0), ex.coord(1)), 0)
    assert memo_entries() > 0
    run()
    assert memo_entries() == 0


def test_derivatives_after_a_release_are_the_same_nodes():
    g = idn.suite_metrics(3, 1, 7)[0]
    scal = geo.scalar_curvature(g).expr
    before = [ex.differentiate(scal, j) for j in range(3)]
    nodes = sum(map(len, ex._TABLE.values()))
    ex.release_derivatives()
    assert memo_entries() == 0
    assert all(ex.differentiate(scal, j) is d for j, d in enumerate(before))
    assert sum(map(len, ex._TABLE.values())) == nodes


@pytest.mark.parametrize("suite", [idn.bianchi_suite, idn.fg_formulas_suite,
                                   idn.lemma21_suite])
def test_one_metric_passes_bind_floats_with_the_bits_of_one_pass(monkeypatch, suite):
    calls, gnorms = [], geo.gnorms

    def spy(g, residuals, points):
        out = gnorms(g, residuals, points)
        calls.append((g, residuals, points, out))
        return out

    def no_fallback(*args):
        raise AssertionError("a block fell back to the whole-column replay")

    monkeypatch.setattr(geo, "gnorms", spy)
    monkeypatch.setattr(ex, "_locate", no_fallback)
    # more points than one evaluation block holds
    reports = suite(dim=3, metric_count=1, point_count=ex._BLOCK + 100, seed=5)
    assert [len(points) for _, _, points, _ in calls] == [ex._BLOCK, 100]
    (g, residuals, _, _), (g2, residuals2, _, _) = calls
    # each value is bound as a float, the same in both passes
    assert all(type(v) is float for _, v in g.chart.params)
    assert g2.chart == g.chart and residuals2 == residuals
    points = np.concatenate([points for _, _, points, _ in calls])
    alone = gnorms(g, residuals, points)
    for k, (one, rep) in enumerate(zip(alone, reports, strict=True)):
        assert np.array_equal(np.concatenate([out[k] for *_, out in calls]), one)
        assert np.array_equal(rep.residuals, np.abs(one))


@pytest.mark.parametrize("suite", [idn.bianchi_suite, idn.fg_formulas_suite,
                                   idn.lemma21_suite])
def test_one_metric_suite_memory_grows_only_by_its_points_and_results(suite):
    # beside its points and results a suite holds one block, at any point count
    suite(dim=3, metric_count=1, point_count=10, seed=5)
    peaks, held = [], []
    for blocks in (4, 16):
        tracemalloc.start()
        try:
            reports = suite(dim=3, metric_count=1, point_count=blocks * ex._BLOCK, seed=5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        held.append(reports[0].points.nbytes + sum(r.residuals.nbytes for r in reports))
    # the points and each point's metric; each result, its blocks and the
    # report's absolute values: no more than twice what the reports hold
    assert peaks[1] - peaks[0] <= 2 * (held[1] - held[0])


@pytest.mark.parametrize("suite", [idn.bianchi_suite, idn.fg_formulas_suite,
                                   idn.lemma21_suite])
@pytest.mark.parametrize("block", [1, 2, 7])
def test_lane_pass_gives_the_bits_of_per_metric_passes(monkeypatch, suite, block):
    calls, gnorms = [], geo.gnorms

    def spy(g, residuals, points):
        out = gnorms(g, residuals, points)
        calls.append((g, residuals, points, out))
        return out

    monkeypatch.setattr(geo, "gnorms", spy)
    reports = suite(dim=3, metric_count=3, point_count=block, seed=5)
    (g, residuals, points, out), = calls
    assert all(np.shape(v) == (3 * block,) for _, v in g.chart.params)
    for m in range(3):
        lanes = slice(m * block, (m + 1) * block)
        chart = geo.Chart(g.chart.coords, g.chart.box,
                          params=[(k, v[m * block]) for k, v in g.chart.params])
        alone = gnorms(geo.MetricField(chart, g.comps), residuals, points[lanes])
        for lane, one in zip(out, alone):
            assert np.array_equal(lane[lanes], one)
    for rep, lane in zip(reports, out):
        assert np.array_equal(rep.residuals, np.abs(lane))


@pytest.mark.parametrize("block,sizes", [(1, [1] * 50), (10, [10] * 5), (25, [25, 25]),
                                         (512, [50])])
def test_lane_passes_stay_within_their_bound(monkeypatch, block, sizes):
    whole = idn.fg_formulas_suite(metric_count=5, point_count=10, seed=5)
    calls, gnorms = [], geo.gnorms

    def spy(g, residuals, points):
        calls.append((len(points), all(type(v) is float for _, v in g.chart.params)))
        return gnorms(g, residuals, points)

    monkeypatch.setattr(geo, "gnorms", spy)
    monkeypatch.setattr(ex, "_BLOCK", block)
    split = idn.fg_formulas_suite(metric_count=5, point_count=10, seed=5)
    # passes of _BLOCK points, bound as floats when they lie inside one metric
    starts = np.cumsum([0] + sizes[:-1])
    assert calls == [(size, lo // 10 == (lo + size - 1) // 10)
                     for lo, size in zip(starts, sizes)]
    for a, b in zip(whole, split, strict=True):
        assert a.name == b.name
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.residuals, b.residuals)


@pytest.mark.parametrize("suite", [idn.bianchi_suite, idn.fg_formulas_suite,
                                   idn.lemma21_suite])
def test_suites_over_no_metrics_report_nothing(suite):
    assert suite(metrics=[]) == []
    assert suite(metric_count=0) == []


def test_suite_names_the_first_metric_that_differs():
    gs = idn.suite_metrics(3, 2, 7)
    renamed = geo.MetricField(geo.Chart(gs[0].chart.coords, gs[0].chart.box,
                                        params=[(k + "_", v) for k, v in gs[0].chart.params]),
                              gs[0].comps)
    other = idn.suite_metrics(4, 1, 7)[0]
    for odd in (renamed, other):
        with pytest.raises(ValueError, match="suite metric 2 differs"):
            idn.bianchi_suite(point_count=5, metrics=gs + [odd, other])
