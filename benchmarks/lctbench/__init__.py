"""Seeded benchmark of the lctid pipeline: inputs, workloads and tracing."""
