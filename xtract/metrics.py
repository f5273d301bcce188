"""Corpus-level aggregations: checksum, dedup, metrics (SURVEY §2.5).

G1/G2: per-document confidence stats come out of the extract stage with
no shuffle (computed inside the per-doc pass, the ``mean_text_conf``
analogue ``src/api.rs:114-120``).  G3: global counters via tiny
``aggregate`` reductions.  G4 (north rule): full-corpus checksum via
groupby-url — exact url-dedup (one native Min aggregate over a
sortable composite; no per-group Python) then a commutative digest
sum, so the result is independent of partitioning and parallelism.

Scale notes: the only all-to-all exchange here is the ``groupby('url')``
— key cardinality ≈ corpus size, uniform after hashing, no hot keys.
Digest summing is a per-batch combiner (one partial row per batch)
before a driver-side merge of a handful of rows.
"""

from __future__ import annotations

import hashlib

import pandas as pd
import pyarrow as pa

from .pipeline import merge_checksum_partials


def dedup_by_url(extracted_ds):
    """Exact dedup: keep one row per url — deterministic winner (min
    warc_ts first).  Vectorized combiner + coarse co-group
    (``ops.agg.first_row_per_key``): one winner row per url per block
    enters the shuffle, and the whole job makes O(P) Python calls
    instead of one per url (the round-1 per-group ``map_groups`` was 2×
    the extract stage's cost).  Nested columns (content_spans)
    survive — pyarrow take/filter only."""
    from .ops.agg import first_row_per_key

    order = (("warc_ts",) if "warc_ts" in extracted_ds.schema().names
             else ())
    return first_row_per_key(extracted_ds, "url", order)


def add_digest(batch: pa.Table) -> pa.Table:
    """Vectorized-ish per-row digest column: sha256(url || content_text)
    as a 64-hex string."""
    urls = batch["url"].to_pylist()
    texts = batch["content_text"].to_pylist()
    digests = []
    for u, t in zip(urls, texts):
        h = hashlib.sha256()
        h.update(u.encode("utf-8"))
        h.update(b"\x00")
        h.update((t or "").encode("utf-8"))
        digests.append(h.hexdigest())
    return batch.append_column("digest", pa.array(digests, pa.string()))


def corpus_checksum(extracted_ds, dedup: bool = True,
                    pin_slim: bool = True) -> str:
    """North-rule G4: per-row digest FIRST, then project to
    (url, warc_ts, digest) before the groupby-url dedup — the shuffle
    moves 3 slim columns instead of the full extracted rows (multi-KB
    content_text stays put; pre-aggregate-before-shuffle rule).  Matches
    ``oracle.corpus_checksum`` over url-unique oracle results
    bit-for-bit."""
    import pyarrow.compute as pc

    def slim(t: pa.Table) -> pa.Table:
        t = add_digest(t)
        return t.select([c for c in ("url", "warc_ts", "digest")
                         if c in t.column_names])

    # the projection is decided per batch from its own columns: asking
    # the lazy dataset for its schema would run the extract pipeline an
    # extra time under a limit-1 plan
    ds = extracted_ds.map_batches(slim, batch_format="pyarrow")
    if dedup and pin_slim:
        # pin the slim (url, ts, digest) projection before the
        # all-to-all: when the groupby consumes the expensive extract
        # pipeline directly, the shuffle's tasks contend with the map
        # tasks and wall time explodes at low parallelism (measured
        # 60 s fused vs 24 s pinned at 8 CPUs on the bench corpus).
        # ~130 B/row in the object store, spillable; disable only when
        # even the slim projection dwarfs local spill capacity.
        ds = ds.materialize()
    if dedup:
        # winner per url = min (warc_ts, digest) — encoded as ONE
        # sortable composite string so the whole dedup is a single
        # NATIVE hash aggregate (Min), no per-group Python at all.
        # digest as tie-break gives a total order → byte-deterministic
        # winner regardless of partitioning.  (Measured ~1.5× faster
        # than the generic combiner+co-group winner on slim columns;
        # first_row_per_key remains the pattern for full-row winners.)
        # The digest is always the composite's last 64 characters.
        from ray.data.aggregate import Min

        _TS_OFF = 1 << 62  # keeps the zero-padded int non-negative

        def add_comp(t: pa.Table) -> pa.Table:
            if "warc_ts" in t.column_names:
                # null warc_ts must not poison the composite (Min skips
                # nulls → a url whose every row has null ts would get a
                # null winner).  Fill with the max sentinel so null-ts
                # rows sort LAST — the same null-at-end rule the
                # sort-based winner used.  sentinel + _TS_OFF = int64
                # max, whose 20-digit pad sorts after any real ts.
                ts = pc.fill_null(pc.cast(t["warc_ts"], pa.int64()),
                                  pa.scalar((1 << 62) - 1, pa.int64()))
                ts = pc.add(ts, pa.scalar(_TS_OFF, pa.int64()))
                ts_pad = pc.utf8_lpad(pc.cast(ts, pa.string()), 20, "0")
                comp = pc.binary_join_element_wise(ts_pad, t["digest"], "")
            else:
                comp = t["digest"]
            return pa.table({"url": t["url"], "comp": comp})

        winners = ds.map_batches(add_comp, batch_format="pyarrow").groupby(
            "url").aggregate(Min("comp", alias_name="comp"))
        ds = winners.map_batches(
            lambda t: pa.table({"digest": pc.utf8_slice_codeunits(t["comp"], -64)}),
            batch_format="pyarrow")

    def partial(b: pa.Table) -> pa.Table:
        total = 0
        for d in b["digest"].to_pylist():
            total = (total + int(d, 16)) % (1 << 256)
        return pa.table({"partial": [f"{total:064x}"], "n": [len(b)]})

    parts = ds.map_batches(partial, batch_format="pyarrow").take_all()
    return merge_checksum_partials([(r["partial"], r["n"]) for r in parts])


def status_counts(extracted_ds) -> pd.DataFrame:
    from ray.data.aggregate import Count

    out = extracted_ds.groupby("status").aggregate(Count(alias_name="n")).to_pandas()
    return out.sort_values("status").reset_index(drop=True)


def corpus_metrics(extracted_ds) -> dict:
    """Global extraction metrics (blocks kept/dropped, parse failures,
    bytes) — the run report (north rule: extraction metrics)."""
    from ray.data.aggregate import Count, Mean, Sum

    row = extracted_ds.aggregate(
        Count(alias_name="n_docs"),
        Sum("n_blocks_kept", alias_name="blocks_kept"),
        Sum("n_blocks_dropped", alias_name="blocks_dropped"),
        Sum("html_len", alias_name="html_bytes"),
        Mean("mean_conf", alias_name="mean_conf"),
    )
    st = status_counts(extracted_ds)
    row["status_counts"] = dict(zip(st["status"], (int(x) for x in st["n"])))
    return row


def lowest_confidence(extracted_ds, k: int = 20):
    """QA view: top-k lowest-confidence documents (global sort + limit,
    O3 — metrics/report only, never on the hot path)."""
    return extracted_ds.select_columns(
        ["url", "mean_conf", "status", "n_blocks_kept"]).sort("mean_conf").limit(k)
