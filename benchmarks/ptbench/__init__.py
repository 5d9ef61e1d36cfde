"""Benchmark harness for ptlab: workloads, oracles, tracing and the measuring loop."""
