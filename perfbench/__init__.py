"""Benchmark harness for solitonlab: cold-CLI time to verdict, with a
per-module trace recorded from outside the package.  Entry point:
``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``."""
