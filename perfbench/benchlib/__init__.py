"""Benchmark of the ``pnc`` CLI: request generators, output checker, tracer and statistics."""
