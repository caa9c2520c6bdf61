"""List the argvs whose report digests differ between two results files.

    python3 perfbench/compare.py .perfbench_out/A.json .perfbench_out/B.json

Reports must stay byte-identical across changes that claim only speed, so
any argv run in both files with a different SHA-256 of its stdout is listed.
Exits 1 when some argv differs, 0 otherwise.  Argvs run in only one of the
files are listed for information, and so is a difference between the two
machine stamps.
"""

from __future__ import annotations

import json
import sys


def digests(results: dict) -> dict:
    """argv key -> set of stdout SHA-256 digests seen in one results file."""
    out = {}
    for rec in results["commands"]:
        out.setdefault(rec["key"], set()).add(rec["sha256"])
    return out


def differing(a: dict, b: dict) -> list:
    """Keys run in both results whose digests are not the same single value."""
    da, db = digests(a), digests(b)
    return sorted(k for k in da.keys() & db.keys()
                  if len(da[k] | db[k]) != 1)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    loaded = []
    for path in args:
        with open(path, encoding="utf-8") as fh:
            loaded.append(json.load(fh))
    a, b = loaded
    for side, doc in zip("AB", loaded):
        print(f"{side}: {doc['workload']} seed={doc['seed']} trace={doc['trace']} "
              f"{doc['stamp']}")
    if a["stamp"] != b["stamp"]:
        print("warning: the stamps differ (machine, Python or numpy); timings of "
              "the two files are not comparable")
    diff = differing(a, b)
    only_a = sorted(digests(a).keys() - digests(b).keys())
    only_b = sorted(digests(b).keys() - digests(a).keys())
    for key in diff:
        print(f"DIFFERS  {key}")
    for key in only_a:
        print(f"only A   {key}")
    for key in only_b:
        print(f"only B   {key}")
    print(f"{len(diff)} argv(s) with differing report bytes")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
