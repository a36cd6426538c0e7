"""The perf ledger: one benchmark for wall time, end to end and per layer.

``BENCHMARK.json`` at the repository root is the contract (workloads,
metric names, units, regression bounds); this package is the program
behind its ``command``.  Every layer of ``src/repro`` is measured *from
outside*, by timing calls into its public functions on the workload's
own seed-generated data — nothing under ``src/`` knows it is being
benchmarked.  See ``README.md`` in this directory.
"""
