"""Process that runs solitonlab commands in-process for the benchmark.

Traced cold command (one process per command, spans written at exit):

    python perfbench/child.py --spans SPANS.json -- verify-example neg-m-sphere

Long-lived session (api-session): runs every argv of the plan through
``solitonlab.cli.main``, one after another, then writes each call's exit
code, report, stderr, time and the process's peak RSS so far to RESULTS:

    python perfbench/child.py --session PLAN.json --results RESULTS.json \
        [--spans SPANS.json]

``solitonlab`` must be importable (the benchmark sets PYTHONPATH to src).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.tracer import Tracer  # noqa: E402


def _session(cli, plan, tracer):
    results = []
    for i, entry in enumerate(plan):
        if tracer is not None:
            tracer.cmd = i
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(entry["argv"])
            except SystemExit as exc:  # argparse rejects an argv
                code = exc.code
            except Exception:  # recorded as a traceback, like a crashing CLI
                traceback.print_exc()
                code = None
        dt = time.perf_counter() - t0
        maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        results.append({"exit": code, "stdout": out.getvalue(),
                        "stderr": err.getvalue(), "time_s": dt,
                        "maxrss_mb": maxrss_mb})
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spans", default=None)
    ap.add_argument("--session", default=None)
    ap.add_argument("--results", default=None)
    ap.add_argument("argv", nargs="*")
    args = ap.parse_args(argv)

    tracer = Tracer() if args.spans else None
    try:
        if tracer is not None:
            rec = tracer.begin("cli.import")
            import solitonlab
            from solitonlab import cli
            tracer.end(rec)
            tracer.install(solitonlab)
        else:
            from solitonlab import cli
        if args.session is None:
            return cli.main(args.argv)
        with open(args.session, encoding="utf-8") as fh:
            plan = json.load(fh)
        results = _session(cli, plan, tracer)
        with open(args.results, "w", encoding="utf-8") as fh:
            json.dump(results, fh)
        return 0
    finally:
        if tracer is not None:
            tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
