"""End-to-end benchmark: whole spec runs, timed layer by layer from outside.

``python -m benchmarks.e2e`` runs the workloads of ``suite.WORKLOADS``, each
repeat in a fresh worker process, and prints every metric named in the
repository's ``BENCHMARK.json``.  See ``README.md`` in this directory.
"""
