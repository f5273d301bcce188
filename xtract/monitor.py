"""Per-document progress / deadline monitor — the ``TessMonitor``
analogue (reference ``src/monitor.rs:18-50``: ``set_deadline_ms``,
``is_expired``/``cancel`` checked DURING recognition, ``get_progress``).

A ``Monitor`` rides along one ``extract_document`` call: the HTML
scanner checks it every few hundred constructs, so a pathological
multi-MB page is aborted mid-parse (status ``'timeout'``) instead of
running to completion — the round-1 engine only flagged the overrun
after the fact.  ``get_progress`` reports 0–100 like the reference's
``TessMonitor::get_progress`` (``src/monitor.rs:39-50``).

Determinism note (same trade as the reference): a wall-clock deadline
makes WHETHER a given document times out machine-dependent; the
content of a timed-out row is deterministic (empty text, status
``'timeout'``).  Deadlines default OFF (``cfg.timeout_ms == 0``) so
the byte-identity invariant is unaffected unless explicitly requested.
"""

from __future__ import annotations

import time


class ExtractionCancelled(Exception):
    """Raised inside the parse loop when the deadline expires or the
    monitor is cancelled; caught by ``extract_document``."""


class Monitor:
    __slots__ = ("deadline_ms", "_t0", "_progress", "_cancelled")

    def __init__(self, deadline_ms: int = 0) -> None:
        self.deadline_ms = int(deadline_ms)
        self._t0 = time.monotonic()
        self._progress = 0
        self._cancelled = False

    # -- reference surface ---------------------------------------------------
    def set_deadline_ms(self, ms: int) -> None:
        """Restart the clock with a new deadline (``set_deadline_ms``,
        src/monitor.rs:30-33)."""
        self.deadline_ms = int(ms)
        self._t0 = time.monotonic()

    def get_progress(self) -> int:
        """0–100 (``get_progress``, src/monitor.rs:39-50)."""
        return self._progress

    def cancel(self) -> None:
        """Cooperative cancellation (``TessMonitor`` cancel flag)."""
        self._cancelled = True

    def is_cancelled(self) -> bool:
        return self._cancelled

    def expired(self) -> bool:
        return (self.deadline_ms > 0 and
                (time.monotonic() - self._t0) * 1000.0 > self.deadline_ms)

    # -- engine-side hooks ---------------------------------------------------
    def set_progress(self, pct: int) -> None:
        self._progress = max(self._progress, min(100, int(pct)))

    def check(self) -> None:
        """Called between parse chunks; aborts the document when due."""
        if self._cancelled:
            raise ExtractionCancelled("cancelled")
        if self.expired():
            raise ExtractionCancelled(
                f"deadline {self.deadline_ms}ms expired at "
                f"{self._progress}%")
