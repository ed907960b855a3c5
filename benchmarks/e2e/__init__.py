"""The repository's one end-to-end benchmark.

Six named workloads, the end-to-end metrics a user of the package sees,
and a per-layer ladder from ``storage`` to ``shard``.  ``BENCHMARK.json``
at the repository root is the contract (workloads, metrics, units,
directions, regression bounds); README.md in this directory defines every
metric and says how to add one.

Everything here drives the package from outside, through its public entry
points only; nothing under ``src/`` knows this directory exists.
"""
