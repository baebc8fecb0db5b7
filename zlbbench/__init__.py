"""zlbbench: one benchmark for the real cluster and the simulator.

Drives the unmodified replica stack through its public entry points on four
named workloads, checks the outputs of every run, and — in a separate traced
run — times the calls into each layer from wrappers that live here, not in
``src/repro``.  See ``README.md`` in this directory for the metric glossary.

Run from the repository root as ``python3 -m zlbbench`` (it puts ``src`` on
``sys.path`` itself when ``repro`` is not already importable).
"""
