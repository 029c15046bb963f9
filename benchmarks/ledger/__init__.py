"""Bench ledger: the repo's benchmark (see README.md in this directory).

``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S
--trace 0|1`` is one measured run of one workload (the contract in
``BENCHMARK.json``); ``python -m benchmarks.ledger`` runs all five
workloads round-robin and prints the full ledger.
"""
