"""Observability: latency histograms, span tracing, live sampling.

One :class:`Observability` object per engine (or cluster) bundles the
three instruments and a single ``enabled`` flag the hot paths branch on:

* a :class:`~repro.obs.metrics.MetricsRegistry` with pre-bound
  histograms for the per-operation write/read paths and the WAL
  group-commit drain (attribute access, no dict lookup per op);
* a span tracer — the process-global ring from :mod:`repro.obs.trace`
  when enabled, :data:`~repro.obs.trace.NULL_TRACER` when not, so a
  disabled engine pays one attribute load per ``with tracer.span(...)``;
* an optional :class:`~repro.obs.sampler.MetricsSampler` whose lifecycle
  the owning engine drives (started at construction, stopped by
  ``close()``).

Two ways to turn it on:

* ``EngineConfig.observability = True`` — the engine-level knob; also
  starts the background sampler (``obs_sample_interval_ms``).
* :func:`force_enable` — a process-wide override the CLI's ``--trace``
  flag sets before running an experiment, so every engine the experiment
  builds records spans and latencies without the experiment drivers
  knowing about observability at all. The force path never starts
  samplers (experiments build hundreds of short-lived engines).
"""

from __future__ import annotations

from repro.obs.metrics import Counter, LatencyHistogram, MetricsRegistry
from repro.obs.sampler import MetricsSampler
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    SpanTracer,
    global_tracer,
    reset_global_tracer,
)

__all__ = [
    "Counter",
    "LatencyHistogram",
    "MetricsRegistry",
    "MetricsSampler",
    "NullTracer",
    "NULL_TRACER",
    "Observability",
    "SpanTracer",
    "force_enable",
    "force_enabled",
    "global_tracer",
    "reset_global_tracer",
]

_force_enabled = False


def force_enable(enabled: bool = True) -> None:
    """Process-wide observability override (the ``--trace`` path)."""
    global _force_enabled
    _force_enabled = enabled


def force_enabled() -> bool:
    return _force_enabled


class Observability:
    """Per-engine bundle of registry, tracer, and (optional) sampler."""

    def __init__(
        self,
        enabled: bool = False,
        sample_interval: float = 0.0,
        registry: MetricsRegistry | None = None,
        tracer=None,
    ):
        self.enabled = enabled
        self.sample_interval = sample_interval if enabled else 0.0
        self.registry = registry if registry is not None else MetricsRegistry()
        if tracer is None:
            tracer = global_tracer() if enabled else NULL_TRACER
        self.tracer = tracer
        self.sampler: MetricsSampler | None = None
        # Hot-path histograms, pre-bound so instrumented code does one
        # attribute load instead of a registry lookup per operation.
        self.op_write_latency = self.registry.histogram(
            "op_write_latency_seconds"
        )
        self.op_read_latency = self.registry.histogram(
            "op_read_latency_seconds"
        )
        self.wal_commit_latency = self.registry.histogram(
            "wal_commit_latency_seconds"
        )
        self.wal_commit_batch_records = self.registry.histogram(
            "wal_commit_batch_records", resolution=1
        )
        self.ingest_queue_depth = self.registry.histogram(
            "ingest_queue_depth", resolution=1
        )

    @classmethod
    def from_config(cls, config) -> "Observability":
        """Build from :class:`~repro.core.config.EngineConfig` knobs.

        ``config.observability`` turns on the full bundle including the
        sampler; the process-wide :func:`force_enable` override turns on
        metrics and tracing only.
        """
        configured = config.observability
        return cls(
            enabled=configured or _force_enabled,
            sample_interval=(
                config.obs_sample_interval_ms / 1000.0 if configured else 0.0
            ),
        )

    # ------------------------------------------------------------------
    # Sampler lifecycle (driven by the owning engine)
    # ------------------------------------------------------------------

    def start_sampler(self, source) -> None:
        """Start background sampling over ``source`` (no-op unless the
        config enabled sampling and none is running yet)."""
        if self.sample_interval <= 0 or self.sampler is not None:
            return
        self.sampler = MetricsSampler(
            source, interval_seconds=self.sample_interval
        )
        self.sampler.start()

    def close(self) -> None:
        """Stop the sampler, if one is running (idempotent)."""
        if self.sampler is not None:
            self.sampler.stop()


# Shared disabled instance for components that may run before an engine
# attaches (e.g. a DurableStore draining WAL batches during create).
NULL_OBS = Observability(enabled=False)
