"""solitonlab benchmark: time to verdict of the CLI, end to end and per layer.

    python3 perfbench/run.py --workload catalog-cold --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src``.  Workloads (see workloads.py) are closed loops with one client and
one process at a time.  The cold workloads spawn ``python -m solitonlab.cli``
per command and repeat whole passes over their command list, at least
MIN_PASSES, until ``--seconds`` have passed; ``api-session`` feeds a seeded
plan of SESSION_ROUNDS rounds of argvs to ``cli.main`` inside one long-lived
process, and repeats such sessions, each in a fresh process, at least
MIN_SESSIONS times and until ``--seconds`` have passed.

--trace 0 reports the end-to-end metrics, measured with tracing off.  Each
time is scaled by the host's speed around it, as gauged by
perfbench/reference.py, and a command's time is the median over the run's
repeats of it (see Run.end_to_end).
--trace 1 reports the per-layer metrics from a traced run: each traced
command goes through perfbench/child.py, which wraps the public functions of
every module and records spans.  A traced run alternates traced and untraced
passes (traced first) so that it can report the tracing overhead.  Per-layer
values are means per traced command; every ratio is printed with its base.

Every command's report is checked against a verdict written down in
workloads.py, and its SHA-256 is recorded in the results file
(.perfbench_out/<workload>-seed<seed>-trace<t>.json); perfbench/compare.py
lists the argvs whose digests differ between two results files.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import harness, tracer, workloads  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
CHILD = str(ROOT / "perfbench" / "child.py")
REFERENCE = str(ROOT / "perfbench" / "reference.py")
# End-to-end times are reported on the scale of a host that runs
# reference.py in this many seconds (see Run.end_to_end).
REFERENCE_S = 0.3
# Timed `--version` runs: before the first pass, and after each pass (or
# session), so that set-up time sees the same machine state as the commands.
SETUP_FIRST, SETUP_PER_PASS = 3, 2
# Rounds in one api-session process.  A session's work is fixed, so that it
# does not depend on speed: the process grows with every fresh round
# (interning, caches, GC), and a faster program that fitted more rounds into
# one process would be charged for it in peak_rss_mb.
SESSION_ROUNDS = 3
# Least passes of a cold workload (sessions of api-session) in one run: the
# end-to-end times take each command's median over them.
MIN_PASSES, MIN_SESSIONS = 4, 3

END_TO_END = {
    "setup_s": "s", "verdict_s_p50": "s", "verdict_s_p90": "s",
    "checked_points_per_s": "1/s", "peak_rss_mb": "MB", "ok_frac": "ratio",
}
# per traced command; "_revisit"/"_fresh" split by whether the argv already
# ran earlier in the run
PER_LAYER = {
    "cli.import_s": "s", "cli.emit_s": "s", "cli.self_s": "s",
    "manifest.load_s": "s", "examples.run_s": "s",
    "identities.suite_s": "s", "identities.metrics": "count",
    "soliton.check_s": "s", "soliton.checks": "count",
    "spaces.self_s": "s", "spaces.oneill_s": "s", "spaces.oneill_calls": "count",
    "geometry.self_s": "s", "geometry.build_s": "s", "geometry.build_calls": "count",
    "geometry.eval_metric_s": "s", "geometry.reduce_s": "s", "geometry.sample_s": "s",
    "geometry.sample_eval_s": "s", "geometry.points_accepted": "count",
    "expr.self_s": "s", "expr.eval_s": "s", "expr.eval_calls": "count",
    "expr.eval_nodes": "count", "expr.eval_node_points": "count",
    "expr.eval_us_per_node": "us", "expr.eval_ns_per_node_point": "ns",
    "geometry.build_s_revisit": "s", "geometry.build_s_fresh": "s",
    "expr.eval_s_revisit": "s", "expr.eval_s_fresh": "s",
    "trace.self_s": "s", "unattributed_s": "s", "traced_wall_s": "s",
    "tracing_overhead_s": "s", "residual_margin_max": "ratio",
}


class SetupError(RuntimeError):
    pass


class Run:
    """State of one benchmark run: every command outcome, in order."""

    def __init__(self, tmp: str, env: dict):
        self.tmp, self.env = tmp, env
        self.records = []
        self.setup_walls = []
        self.reference_walls = []    # (passes done before it, wall)
        self.passes = 0              # passes (sessions) done so far
        self.warm = False
        self.digests = {}
        self.process_walls = []      # traced processes: (wall, covered by spans)
        self.seen_traced = set()

    # -- outcomes ---------------------------------------------------------
    def record(self, cmd, exit_code, stdout: bytes, stderr: str, time_s: float,
               rss_mb: float, traced: bool, revisit: bool, layers=None):
        reason, report = harness.classify(cmd.expect, exit_code, stdout, stderr)
        if reason is None:
            reason = self._check_out_file(cmd)
        dg = harness.digest(stdout)
        if reason is None and self.digests.setdefault(cmd.key, dg) != dg:
            reason = "report bytes differ from an earlier run of the same argv"
        checks = report["checks"] if report else []
        margins = [c["sup_residual"] / c["tolerance"]
                   for c, (_, want, _) in zip(checks, cmd.expect.checks) if want]
        self.records.append({
            "key": cmd.key, "template": cmd.template, "traced": traced,
            "revisit": revisit, "pass": self.passes,
            "exit": exit_code, "sha256": dg, "time_s": time_s, "rss_mb": rss_mb,
            "points": sum(c["points"] for c in checks),
            "margin_max": max(margins, default=None),
            "failure": reason, "layers": layers,
        })

    def _out_path(self, cmd):
        if "--out" not in cmd.argv:
            return None
        return cmd.resolved(self.tmp)[cmd.argv.index("--out") + 1]

    def _check_out_file(self, cmd):
        path = self._out_path(cmd)
        if path is None:
            return None
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            return f"--out manifest missing or unreadable: {exc!r}"
        if doc.get("schema") != "soliton-manifest/1":
            return "--out manifest has the wrong schema"
        return None

    # -- cold commands ----------------------------------------------------
    def cold(self, cmd, traced: bool):
        argv = cmd.resolved(self.tmp)
        layers = None
        out_path = self._out_path(cmd)
        if out_path and os.path.exists(out_path):
            os.remove(out_path)  # the command must write it afresh
        if traced:
            spans_path = os.path.join(self.tmp, "spans.json")
            proc = [sys.executable, CHILD, "--spans", spans_path, "--"] + argv
        else:
            proc = [sys.executable, "-m", "solitonlab.cli"] + argv
        code, out, err, wall, rss = harness.run_process(proc, self.env, str(ROOT),
                                                        self.tmp)
        revisit = False
        if traced:
            revisit = cmd.key in self.seen_traced
            self.seen_traced.add(cmd.key)
            with open(spans_path, encoding="utf-8") as fh:
                spans = json.load(fh)
            os.remove(spans_path)
            layers = tracer.command_sums(spans).get(0, {})
            self.process_walls.append((wall, tracer.covered(spans)))
        self.record(cmd, code, out, err, wall, rss, traced, revisit, layers)

    # -- api-session ------------------------------------------------------
    def session(self, plan, traced: bool):
        plan_path = os.path.join(self.tmp, "plan.json")
        res_path = os.path.join(self.tmp, "results.json")
        spans_path = os.path.join(self.tmp, "spans.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump([{"argv": c.resolved(self.tmp)} for c, _, _ in plan], fh)
        proc = [sys.executable, CHILD, "--session", plan_path, "--results", res_path]
        if traced:
            proc += ["--spans", spans_path]
        code, _, err, wall, _ = harness.run_process(proc, self.env, str(ROOT),
                                                    self.tmp)
        if code != 0:
            raise SetupError(f"session process exited {code}: {err[-2000:]}")
        with open(res_path, encoding="utf-8") as fh:
            results = json.load(fh)
        sums = {}
        if traced:
            with open(spans_path, encoding="utf-8") as fh:
                spans = json.load(fh)
            sums = tracer.command_sums(spans)
            self.process_walls.append((wall, tracer.covered(spans)))
        for i, res in enumerate(results):
            cmd, revisit, _ = plan[i]
            self.record(cmd, res["exit"], res["stdout"].encode("utf-8"), res["stderr"],
                        res["time_s"], res["maxrss_mb"], traced, revisit,
                        sums.get(i, {}) if traced else None)

    # -- set-up -----------------------------------------------------------
    def setup(self, count: int):
        """Time ``count`` cold runs of ``solitonlab --version`` (interpreter,
        every module import and the parser build), each followed by a cold
        run of reference.py.  The very first pair only fills the caches and
        is not timed."""
        for _ in range(count + (not self.warm)):
            code, out, err, wall, _ = harness.run_process(
                [sys.executable, "-m", "solitonlab.cli", "--version"], self.env,
                str(ROOT), self.tmp)
            if code != 0 or not out.strip():
                raise SetupError(f"solitonlab --version exited {code}: {err[-2000:]}")
            code, out, err, rwall, _ = harness.run_process(
                [sys.executable, REFERENCE], self.env, str(ROOT), self.tmp)
            if code != 0 or not out.strip():
                raise SetupError(f"reference.py exited {code}: {err[-2000:]}")
            if self.warm:
                self.setup_walls.append(wall)
                self.reference_walls.append((self.passes, rwall))
            self.warm = True

    # -- metrics ----------------------------------------------------------
    @property
    def failed(self) -> int:
        return sum(r["failure"] is not None for r in self.records)

    def end_to_end(self) -> dict:
        """End-to-end metrics on the scale of a host that runs reference.py
        in REFERENCE_S.

        The host's speed drifts by a quarter within minutes, every process
        alike.  reference.py runs no solitonlab code, so only the host moves
        its time.  Each command's time is scaled by REFERENCE_S over the mean
        reference time just before and after its pass (session); a command's
        time is then the median over its repeats in the run (revisits of
        api-session kept apart from fresh calls), and the percentiles are
        taken over these, one per command run.  The set-up median is scaled
        by the reference's median.  end_to_end_raw() gives the times as
        measured.
        """
        plain = [r for r in self.records if not r["traced"]]
        around = {}
        for done, wall in self.reference_walls:
            for p in (done - 1, done):  # after pass done-1, before pass done
                around.setdefault(p, []).append(wall)
        scale = {p: REFERENCE_S / statistics.mean(ws) for p, ws in around.items()}
        times = harness.group_medians([(r["template"], r["revisit"]) for r in plain],
                                      [r["time_s"] * scale[r["pass"]] for r in plain])
        m = self._end_to_end(plain, times)
        m["setup_s"] *= REFERENCE_S / statistics.median(w for _, w in self.reference_walls)
        return m

    def end_to_end_raw(self) -> dict:
        """End-to-end metrics as timed, each command at its median."""
        plain = [r for r in self.records if not r["traced"]]
        times = harness.group_medians([(r["template"], r["revisit"]) for r in plain],
                                      [r["time_s"] for r in plain])
        return self._end_to_end(plain, times)

    def _end_to_end(self, plain, times) -> dict:
        return {
            "setup_s": harness.percentile(self.setup_walls, 0.5),
            "verdict_s_p50": harness.percentile(times, 0.5),
            "verdict_s_p90": harness.percentile(times, 0.9),
            "checked_points_per_s": sum(r["points"] for r in plain) / sum(times),
            "peak_rss_mb": max(r["rss_mb"] for r in plain),
            "ok_frac": 1.0 - self.failed / len(self.records),
        }

    def samples(self) -> dict:
        """Sample count behind each end-to-end metric."""
        plain = [r for r in self.records if not r["traced"]]
        n = len(plain)
        return {"setup_s": len(self.setup_walls), "verdict_s_p50": n,
                "verdict_s_p90": n, "checked_points_per_s": n,
                "peak_rss_mb": n,
                "ok_frac": len(self.records)}

    def residual_margin_max(self):
        """Largest sup_residual / tolerance over checks expected to pass."""
        return max((r["margin_max"] for r in self.records
                    if r["margin_max"] is not None), default=0.0)

    def per_layer(self) -> dict:
        traced = [r for r in self.records if r["traced"]]
        plain = [r for r in self.records if not r["traced"]]
        n = len(traced)
        total = {}
        for r in traced:
            for k, v in r["layers"].items():
                total[k] = total.get(k, 0) + v
        wall = sum(w for w, _ in self.process_walls)
        total["unattributed_s"] = wall - sum(c for _, c in self.process_walls)
        out = {k: total.get(k, 0) / n for k in PER_LAYER}
        out["traced_wall_s"] = wall / n
        for key in ("geometry.build_s", "expr.eval_s"):
            for flag, suffix in ((True, "_revisit"), (False, "_fresh")):
                group = [r for r in traced if r["revisit"] == flag]
                out[key + suffix] = (sum(r["layers"].get(key, 0) for r in group)
                                     / len(group)) if group else 0.0
        out["expr.eval_us_per_node"] = 1e6 * total.get("expr.eval_s", 0) / max(
            1, total.get("expr.eval_nodes", 0))
        out["expr.eval_ns_per_node_point"] = 1e9 * total.get("expr.eval_s", 0) / max(
            1, total.get("expr.eval_node_points", 0))
        out["tracing_overhead_s"] = (
            harness.percentile([r["time_s"] for r in traced], 0.5)
            - harness.percentile([r["time_s"] for r in plain], 0.5))
        out["residual_margin_max"] = self.residual_margin_max()
        return out


def run_workload(run: Run, workload: str, seed: int, seconds: float, trace: bool):
    session = workload == "api-session"
    if session:
        # every session runs the same plan; a traced run makes one untraced
        # session (the baseline of tracing_overhead_s) and one traced
        plan = workloads.session_plan(seed, SESSION_ROUNDS)
        if trace:
            run.session(plan, traced=False)
            run.session(plan, traced=True)
            return
    else:
        commands = workloads.build(workload, seed)
    # Traced runs alternate traced and untraced passes, traced first: fresh
    # and revisited traced passes, and an untraced baseline.
    min_passes = MIN_SESSIONS if session else MIN_PASSES
    if not trace:
        run.setup(SETUP_FIRST)
    start = time.perf_counter()
    while run.passes < min_passes or time.perf_counter() - start < seconds:
        if session:
            run.session(plan, traced=False)
        else:
            for cmd in commands:
                run.cold(cmd, traced=trace and run.passes % 2 == 0)
        run.passes += 1
        if not trace:
            run.setup(SETUP_PER_PASS)


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "solitonlab" / "cli.py").is_file():
        print(f"no solitonlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # one BLAS thread: on a few shared cores a second one, spinning after
    # each call, competes with the host's other load and adds noise
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    OUT_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        run = Run(tmp, env)
        run_workload(run, args.workload, args.seed, args.seconds, bool(args.trace))
        if args.trace:
            values, units, samples = run.per_layer(), PER_LAYER, {}
        else:
            values, units, samples = run.end_to_end(), END_TO_END, run.samples()
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed = len(run.records), run.failed
    plain = sum(not r["traced"] for r in run.records)
    stamp = harness.machine_stamp()
    results_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace, "stamp": stamp,
                   "attempted": attempted, "failed": failed,
                   "failed_frac": failed / attempted,
                   "metrics": {k: {"value": values[k], "unit": units[k],
                                   "samples": samples.get(k)} for k in units},
                   "uncorrected": None if args.trace else run.end_to_end_raw(),
                   "reference_walls": run.reference_walls,
                   "commands": run.records}, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace} python={stamp['python']} numpy={stamp['numpy']}"
          f" nproc={stamp['nproc']} cpu={stamp['cpu_model']!r}")
    print(f"# commands: {attempted} ({plain} untraced, {attempted - plain} traced),"
          f" failed {failed} (failed_frac {failed / attempted:.4g})"
          f"; timed set-up runs: {len(run.setup_walls)}")
    if not args.trace:
        ref = [w for _, w in run.reference_walls]
        raw = run.end_to_end_raw()
        print(f"# reference.py: median {_fmt(statistics.median(ref))} s,"
              f" range {_fmt(min(ref))}-{_fmt(max(ref))} s (n={len(ref)}); times"
              f" below are scaled to a host where it takes {REFERENCE_S:g} s;"
              " as measured:"
              + "".join(f" {k} {_fmt(raw[k])}" for k in
                        ("setup_s", "verdict_s_p50", "verdict_s_p90",
                         "checked_points_per_s")))
    for r in run.records:
        if r["failure"]:
            print(f"# FAILED {r['key']}: {r['failure']}")
    for k, unit in units.items():
        n = f"  (n={samples[k]})" if k in samples else ""
        print(f"#   {k:32s} {_fmt(values[k]):>14s} {unit}{n}")
    if not args.trace:
        print(f"#   (residual_margin_max {_fmt(run.residual_margin_max())} is reported"
              " by --trace 1: it is fixed by the seed, not measured)")
    print(f"# results: {results_path}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
