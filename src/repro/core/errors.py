"""Exception hierarchy for the Lethe reproduction.

All library-specific errors derive from :class:`LetheError` so callers can
catch one base class. Errors are deliberately fine-grained: configuration
problems, storage-layer violations, and compaction invariant breaches are
distinct failure modes with distinct remedies.
"""

from __future__ import annotations


class LetheError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(LetheError):
    """Raised when an :class:`~repro.core.config.EngineConfig` is invalid.

    Examples: a non-positive size ratio, a delete-tile granularity that does
    not divide the file size, or a delete persistence threshold of zero.
    """


class StorageError(LetheError):
    """Raised on violations of the simulated storage layer's contracts.

    Examples: reading a page of a file that was already freed, or writing a
    page beyond a file's allocated extent.
    """


class PageFullError(StorageError):
    """Raised when appending an entry to a page that is at capacity."""


class CompactionError(LetheError):
    """Raised when a compaction violates an LSM invariant.

    Examples: merging files with overlapping key ranges inside one level of
    a leveled tree, or producing out-of-order output runs.
    """


class WALError(LetheError):
    """Raised on write-ahead-log misuse (e.g. replaying a purged segment)."""


class KeyWeavingError(LetheError):
    """Raised when a KiWi layout invariant is violated.

    Examples: a delete tile whose pages are not ordered on the delete key,
    or a secondary range delete issued against a classic (h=1) layout file
    through the tile-drop path.
    """


class PersistenceError(StorageError):
    """Raised on durable-backend contract violations.

    Examples: opening a directory that holds no recoverable manifest,
    loading a run blob whose header names an unknown layout, or recovering
    state written for a different engine configuration.
    """


class TuningError(LetheError):
    """Raised when a tuning computation has no feasible solution.

    Example: Eq. (3) of the paper yielding ``h < 1`` for a workload whose
    lookup frequency overwhelms its secondary-range-delete frequency.
    """
