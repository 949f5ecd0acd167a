"""The repo benchmark: four workloads measured end to end and per layer.

Everything here drives the public API of ``repro`` from outside; the op
generator and the dict model are the benchmark's own (nothing is
imported from ``repro.workloads`` or ``repro.bench``), so refactoring
those packages cannot change the load. See ``../README.md``.
"""
