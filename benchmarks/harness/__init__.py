"""The repo's benchmark: five workloads over learn and migrate, end to end
and layer by layer.  Entry point: ``python3 benchmarks/harness/run.py``
(see ``README.md`` in this directory)."""
