"""Benchmark harness for the motivic-pairs engine.

Run `python3 perfbench/run.py --help` from the repository root.  The
harness imports the engine from the checkout's own `src/` tree, times
calls into its public functions, checks every output against stored
SHA-256 digests, and with `--trace 1` reports per-layer counts and self
times from an outside-in tracer.  Nothing under `src/` is modified.
"""
