"""Process running, verdict classification and statistics for the benchmark."""

from __future__ import annotations

import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import tempfile
import time

TRACEBACK = "Traceback (most recent call last)"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q*100 % of
    the sample at or below it.  It is always one of the measured values."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def group_medians(groups, values) -> list:
    """Each value replaced by the median of the values in its group.

    ``groups`` holds one hashable group key per value.  A group is one
    command repeated with the same work, so its median is that command's
    time, and a single sample slowed by a busy host barely moves a
    percentile taken over the result.
    """
    by_group = {}
    for g, v in zip(groups, values):
        by_group.setdefault(g, []).append(v)
    medians = {g: statistics.median(vs) for g, vs in by_group.items()}
    return [medians[g] for g in groups]


def run_process(argv, env, cwd, scratch):
    """Run argv to completion; (exit code, stdout bytes, stderr text, wall
    seconds from spawn to exit, the child's own max RSS in MB).  Output is
    buffered in files under ``scratch``."""
    with tempfile.TemporaryFile(dir=scratch) as out, \
            tempfile.TemporaryFile(dir=scratch) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read(),
                err.read().decode("utf-8", "replace"), wall,
                usage.ru_maxrss / 1024.0)  # ru_maxrss is in KiB on Linux


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def classify(expect, exit_code, stdout: bytes, stderr: str):
    """Check one command's outcome against its written-down verdict.

    Returns (failure reason or None, parsed report or None).  A command
    fails when it prints a traceback, its report does not parse, or its exit
    code or any check's (name, pass, points) differs from ``expect``.
    """
    if TRACEBACK in stderr:
        return "traceback on stderr", None
    try:
        report = json.loads(stdout)
        got = tuple((c["name"], c["pass"], c["points"]) for c in report["checks"])
        for c in report["checks"]:
            float(c["sup_residual"]), float(c["tolerance"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"report does not parse: {exc!r}", None
    if exit_code != expect.exit:
        return f"exit code {exit_code}, expected {expect.exit}", report
    if got != tuple(tuple(c) for c in expect.checks):
        return f"verdicts {got}, expected {expect.checks}", report
    return None, report


def machine_stamp() -> dict:
    """What a comparison needs to confirm both sides ran on the same machine."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu}
