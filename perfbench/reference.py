"""Fixed reference work that gauges how fast the host runs right now.

    python3 perfbench/reference.py

The benchmark times this script in a cold process beside its set-up runs.
It uses no solitonlab code, so no change to the program can move its time;
only the host can.  Its work has the same kinds of cost as a solitonlab
command: interpreter start, the numpy import, pure-Python dict and tuple
work like expression interning, and array work like point evaluation.
"""

import numpy as np


def main() -> int:
    # about 60 MB beyond the numpy import, most of it interned tuples: the
    # host's memory bandwidth, not only its cores, sets a command's time
    table = {}
    for i in range(120_000):
        node = ("mul", i, ("add", i % 127, (7 * i) % 1013))
        table[node] = len(table)
    x = np.linspace(-1.0, 1.0, 1_000_000)
    acc = 0.0
    for _ in range(3):
        y = np.sin(x) * x + x * x
        acc += float(y.sum())
    g = np.eye(4) + 0.01 * x[:20_000, None, None] * np.ones((4, 4))
    acc += float(np.einsum("pij,pjk->p", g, np.linalg.inv(g)).sum())
    print(len(table), f"{acc:.6e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
