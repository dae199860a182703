"""Served-regime benchmark: closed-loop socket workloads against
``repro serve`` with a traced per-layer breakdown (see README.md)."""
