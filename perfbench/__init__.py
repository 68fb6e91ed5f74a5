"""Benchmark of casverify: `python3 perfbench/run.py --help`."""
