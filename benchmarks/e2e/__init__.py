"""End-to-end benchmark of record (see README.md in this directory).

``python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1``
runs one workload and prints one JSON result line; without
``--workload`` the same script runs the whole suite.  Nothing outside
this directory imports it.
"""
