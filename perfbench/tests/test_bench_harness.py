"""Percentiles, verdict classification, digests and workload generation."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import compare, harness, run, workloads  # noqa: E402


def report(checks, passed=True):
    return json.dumps({
        "version": "0.1.0", "manifest_digest": "0" * 64, "classification": None,
        "trivial": None, "pass": passed,
        "checks": [{"name": n, "pass": p, "points": k, "sup_residual": sup,
                    "tolerance": 1e-8, "worst_point": [0.0]}
                   for n, p, k, sup in checks],
    }, sort_keys=True, indent=2).encode() + b"\n"


CLAIMED = workloads.Expect(0, (("conformal-killing", False, 200),))
CORRECTED = workloads.Expect(0, (("conformal-killing", True, 200),))


def test_percentile_is_nearest_rank():
    values = list(range(1, 11))
    assert harness.percentile(values, 0.5) == 5
    assert harness.percentile(values, 0.9) == 9
    assert harness.percentile(values, 1.0) == 10
    assert harness.percentile([3.0], 0.9) == 3.0
    # one slow command in every pass of 7 stays the p90 for any pass count
    one_pass = [0.3, 0.4, 0.5, 0.5, 0.6, 0.8, 2.0]
    for passes in (1, 2, 3, 4, 5):
        assert harness.percentile(one_pass * passes, 0.9) == 2.0
        assert harness.percentile(one_pass * passes, 0.5) == 0.5
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)


def test_group_medians_replaces_each_sample_by_its_groups_median():
    groups = ["a", "b", "a", "b", "a", "c"]
    values = [0.3, 2.0, 0.1, 1.5, 0.5, 0.7]
    assert harness.group_medians(groups, values) == [0.3, 1.75, 0.3, 1.75, 0.3, 0.7]


def test_template_drops_only_the_seed():
    t = workloads.CATALOG_COLD[0]
    assert t.with_seed(5).template == t.with_seed(7).template == " ".join(t.argv)
    assert workloads.Command(("classify",), CLAIMED).template == "classify"


def test_expected_failure_is_the_verdict():
    out = report([("conformal-killing", False, 200, 1.4)])
    assert harness.classify(CLAIMED, 0, out, "")[0] is None


@pytest.mark.parametrize("exit_code, stdout, stderr, reason", [
    (0, report([("conformal-killing", True, 200, 0.0)]), "", "verdicts"),
    (1, report([("conformal-killing", False, 200, 1.4)]), "", "exit code 1"),
    (0, report([("conformal-killing", False, 100, 1.4)]), "", "verdicts"),
    (0, report([]), "", "verdicts"),
    (0, b'{"checks": [', "", "does not parse"),
    (0, b'{"pass": true}', "", "does not parse"),
    (2, b"", "Traceback (most recent call last):\n  ...", "traceback"),
])
def test_forged_wrong_reports_fail(exit_code, stdout, stderr, reason):
    got, _ = harness.classify(CLAIMED, exit_code, stdout, stderr)
    assert got is not None and reason in got


def _forged_run():
    r = run.Run(tmp="unused", env={})
    cmd = workloads.Command(("verify-example", "euclidean-conformal-corrected"),
                            CORRECTED)
    good = report([("conformal-killing", True, 200, 5e-9)])
    for t in (0.3, 0.1, 0.2):
        r.record(cmd, 0, good, "", t, 40.0, traced=False, revisit=False)
    # same argv, different bytes: fails although its verdicts are right
    r.record(cmd, 0, good.replace(b"0.1.0", b"0.1.1"), "", 0.4, 41.0,
             traced=False, revisit=False)
    # traced commands never enter the end-to-end sample
    r.record(cmd, 0, good, "", 9.0, 99.0, traced=True, revisit=False,
             layers={})
    r.setup_walls = [0.3, 0.2, 0.25]
    return r


def test_repeated_argv_with_other_bytes_counts_as_failed():
    r = _forged_run()
    assert [rec["failure"] is not None for rec in r.records] == [
        False, False, False, True, False]
    assert r.failed == 1


def test_end_to_end_uses_untraced_samples_only():
    r = _forged_run()
    m = r.end_to_end_raw()
    assert m["setup_s"] == 0.25
    # one command repeated four times: each repeat counts at their median
    assert m["verdict_s_p50"] == 0.25
    assert m["verdict_s_p90"] == 0.25
    assert m["peak_rss_mb"] == 41.0
    assert m["ok_frac"] == pytest.approx(1 - 1 / 5)
    assert m["checked_points_per_s"] == pytest.approx(800 / 1.0)


def test_end_to_end_scales_each_pass_by_the_reference_around_it():
    r = run.Run(tmp="unused", env={})
    cmd = workloads.Command(("verify-example", "euclidean-conformal-corrected"),
                            CORRECTED)
    good = report([("conformal-killing", True, 200, 5e-9)])
    # the host slows to half speed over three passes; the reference, timed
    # before and after each pass, slows alike
    ref = run.REFERENCE_S
    r.reference_walls = [(0, ref), (1, ref), (2, 2 * ref), (3, 2 * ref)]
    for p, t in enumerate((0.2, 0.3, 0.4)):
        r.passes = p
        r.record(cmd, 0, good, "", t, 40.0, traced=False, revisit=False)
    r.setup_walls = [0.2, 0.2, 0.4, 0.4]
    raw, m = r.end_to_end_raw(), r.end_to_end()
    assert (raw["verdict_s_p50"], raw["setup_s"]) == (0.3, 0.2)
    assert m["verdict_s_p50"] == m["verdict_s_p90"] == pytest.approx(0.2)
    assert m["checked_points_per_s"] == pytest.approx(600 / 0.6)
    # set-up: its median over the reference's median, 1.5 * ref
    assert m["setup_s"] == pytest.approx(0.2 / 1.5)
    assert (m["peak_rss_mb"], m["ok_frac"]) == (raw["peak_rss_mb"], raw["ok_frac"])


def test_margin_ignores_checks_expected_to_fail():
    r = run.Run(tmp="unused", env={})
    claimed = workloads.Command(("verify-example", "euclidean-conformal-claimed"),
                                CLAIMED)
    r.record(claimed, 0, report([("conformal-killing", False, 200, 1.4)]), "", 0.1,
             40.0, traced=False, revisit=False)
    assert r.records[0]["margin_max"] is None


def test_compare_lists_argvs_whose_digests_differ():
    a = {"commands": [{"key": "x", "sha256": "1"}, {"key": "y", "sha256": "2"},
                      {"key": "z", "sha256": "3"}]}
    b = {"commands": [{"key": "x", "sha256": "1"}, {"key": "y", "sha256": "9"}]}
    assert compare.differing(a, b) == ["y"]


@pytest.mark.parametrize("name", ["catalog-cold", "identity-suites", "point-sweep"])
def test_workloads_are_deterministic_per_seed(name):
    first = workloads.build(name, 7)
    assert first == workloads.build(name, 7)
    other = workloads.build(name, 8)
    assert [c.key for c in first] != [c.key for c in other]
    # sizes do not depend on the seed
    strip = [c.argv[:-2] for c in first]
    assert strip == [c.argv[:-2] for c in other]


def test_session_plan_is_deterministic_and_revisits_earlier_argvs():
    plan = workloads.session_plan(3, rounds=3)
    assert plan == workloads.session_plan(3, rounds=3)
    other = workloads.session_plan(4, rounds=3)
    assert plan != other
    # the order of the templates does not depend on the seed
    assert [c.argv[:-2] for c, _, _ in plan] == [c.argv[:-2] for c, _, _ in other]
    seen = set()
    for i, (cmd, revisit, _) in enumerate(plan):
        assert revisit == (i % 2 == 1)
        if revisit:
            assert cmd.key in seen
        seen.add(cmd.key)
    # every round runs each template once fresh and once revisited
    n = len(workloads.SESSION_TEMPLATES)
    for r in range(3):
        rows = [(c, v) for c, v, rr in plan if rr == r]
        assert len(rows) == 2 * n
        for flag in (False, True):
            argvs = sorted(c.argv[:-2] for c, v in rows if v == flag)
            assert argvs == sorted(t.argv for t in workloads.SESSION_TEMPLATES)
