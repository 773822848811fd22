"""End-to-end benchmark of the FSAI reproduction: ``python3 perfbench/run.py``.

See ``perfbench/README.md`` for the workloads, the metrics and how to run
the traced run.
"""
