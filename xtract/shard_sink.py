"""Parquet sink for one job shard whose write tasks also compute the
shard manifest's figures.

Each write task holds its rows anyway, so it returns a small partial
next to its Parquet file: the commutative checksum partial, the row
count, the html byte and block sums and a status histogram.  The driver
merges the few partials into the manifest (``merge_shard_partials``).
The shard therefore runs as ONE streaming execution, read → validate →
extract → write, with no re-read of the written data and no status
shuffle: a histogram over one shard's rows is a combiner's job, not an
exchange's.
"""

from __future__ import annotations

import hashlib
import os
from typing import Iterable, Optional

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from ray.data.block import Block, BlockAccessor
from ray.data.datasource import Datasink, WriteResult

from .pipeline import merge_checksum_partials

#: statuses a manifest counts as parse failures
PARSE_FAILURES = ("parse_error", "bad_encoding", "unsupported_binary",
                  "invalid", "timeout")


def _shard_digest_partial(t: pa.Table) -> str:
    """Commutative checksum partial of a batch: the sum of per-row
    sha256(url || 0x00 || content_text) mod 2^256, as 64 hex digits."""
    total = 0
    for u, text in zip(t["url"].to_pylist(), t["content_text"].to_pylist()):
        h = hashlib.sha256()
        h.update(u.encode("utf-8"))
        h.update(b"\x00")
        h.update((text or "").encode("utf-8"))
        total = (total + int.from_bytes(h.digest(), "big")) % (1 << 256)
    return f"{total:064x}"


def _sum(t: pa.Table, col: str) -> int:
    return int(pc.sum(t[col]).as_py() or 0)


def _table_partial(t: pa.Table) -> dict:
    """One write task's share of the manifest figures."""
    counts = pc.value_counts(t["status"]).to_pylist()
    return {
        "partial": _shard_digest_partial(t),
        "n": t.num_rows,
        "html_bytes": _sum(t, "html_len"),
        "blocks_kept": _sum(t, "n_blocks_kept"),
        "blocks_dropped": _sum(t, "n_blocks_dropped"),
        "status_counts": {c["values"]: c["counts"] for c in counts},
    }


def merge_shard_partials(parts: list) -> dict:
    """Merge write-task partials: the shard's ``n_rows``, ``checksum``
    and manifest ``metrics`` (status histogram keys in sorted order)."""
    counts: dict = {}
    for p in parts:
        for k, v in p["status_counts"].items():
            counts[k] = counts.get(k, 0) + v
    counts = dict(sorted(counts.items()))
    return {
        "n_rows": sum(p["n"] for p in parts),
        "checksum": merge_checksum_partials([(p["partial"], p["n"]) for p in parts]),
        "metrics": {
            "html_bytes": sum(p["html_bytes"] for p in parts),
            "blocks_kept": sum(p["blocks_kept"] for p in parts),
            "blocks_dropped": sum(p["blocks_dropped"] for p in parts),
            "status_counts": counts,
            "parse_failures": sum(v for k, v in counts.items()
                                  if k in PARSE_FAILURES),
        },
    }


class ShardSink(Datasink):
    """Writes each task's non-empty blocks as one Parquet file under
    ``path`` and returns that task's ``_table_partial``; after the write,
    ``partials`` holds every task's partial (a task with no rows writes
    no file and returns none)."""

    def __init__(self, path: str):
        self.path = path
        self.partials: list = []

    def on_write_start(self) -> None:
        os.makedirs(self.path, exist_ok=True)

    def write(self, blocks: Iterable[Block], ctx) -> Optional[dict]:
        tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        tables = [t for t in tables if t.num_rows]
        if not tables:
            return None
        t = pa.concat_tables(tables, promote_options="default")
        pq.write_table(t, os.path.join(self.path, f"part-{ctx.task_idx:06d}.parquet"))
        return _table_partial(t)

    def on_write_complete(self, write_result: WriteResult) -> None:
        self.partials = [p for p in write_result.write_returns if p is not None]
