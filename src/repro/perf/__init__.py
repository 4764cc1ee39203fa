"""Kernel cost counters and the pinned benchmark specs.

:mod:`repro.perf.counters` is the leaf the simulation kernel increments
on its hot path; it is the only part imported eagerly.
:mod:`repro.perf.bench_serving` pins the serving spec the repo benchmark
(``perfbench/``) runs, and :mod:`repro.perf.bench_parallel` measures
the sharded kernel's serial-vs-shards scaling
(``python -m repro.perf.bench_parallel``).
"""

from repro.perf.counters import KERNEL_COUNTERS, KernelCounters

__all__ = ["KERNEL_COUNTERS", "KernelCounters"]
