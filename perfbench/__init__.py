"""Benchmark of viscosplit: closed-loop workloads, end-to-end metrics and a
traced per-layer split.  Run it with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads and what each metric means."""
