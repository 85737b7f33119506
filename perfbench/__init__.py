"""Benchmark for relengine: seeded workloads, exact references and a traced run."""
