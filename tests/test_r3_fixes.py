"""Round-3 fix tests: 64-bit join keys, null-warc_ts checksum,
non-negative LM costs, hot-bucket pair capping, Dataset-side HLL merge.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def test_equi_join_cogroup_64bit_keys(ray_session):
    """Distinct int64 keys beyond 2^53 must NOT collide (the float64
    upcast in the co-group used to merge on floats)."""
    import ray.data as rd

    from xtract.ops.joins import equi_join_cogroup

    k1, k2 = 1 << 60, (1 << 60) + 2
    left = pd.DataFrame({"k": [k1, k2], "x": [1, 2]})
    right = pd.DataFrame({"k": [k1], "y": [99]})
    got = equi_join_cogroup(rd.from_pandas(left).repartition(2),
                            rd.from_pandas(right), "k").to_pandas()
    # only k1 joins; k2 must not falsely match
    assert len(got) == 1
    assert int(got["k"].iloc[0]) == k1
    assert int(got["x"].iloc[0]) == 1
    # right value column keeps its integer dtype (no float64 upcast)
    assert pd.api.types.is_integer_dtype(got["y"].dtype)
    assert int(got["y"].iloc[0]) == 99


def test_asof_join_cogroup_int_values_stay_int(ray_session):
    import ray.data as rd

    from xtract.ops.joins import asof_join_cogroup

    left = pd.DataFrame({"k": [1, 1, 2], "lts": [5, 10, 5]})
    right = pd.DataFrame({"k": [1, 2], "rts": [4, 99],
                          "val": [(1 << 60) + 3, 7]})
    got = asof_join_cogroup(rd.from_pandas(left).repartition(2),
                            rd.from_pandas(right), "k", "lts", "rts",
                            ["val"]).to_pandas()
    got = got.sort_values(["k", "lts"]).reset_index(drop=True)
    # k=1 rows match val exactly at 64-bit precision; k=2 has no match
    assert pd.api.types.is_integer_dtype(got["val_asof"].dtype)
    assert int(got.loc[0, "val_asof"]) == (1 << 60) + 3
    assert int(got.loc[1, "val_asof"]) == (1 << 60) + 3
    assert pd.isna(got.loc[2, "val_asof"])


def test_corpus_checksum_null_warc_ts(ray_session):
    """A url whose every row has null warc_ts must not crash the
    composite-Min winner, and null-ts rows sort last (non-null wins)."""
    import ray.data as rd

    from xtract.metrics import corpus_checksum

    t = pa.table({
        "url": ["u1", "u1", "u2"],
        "warc_ts": pa.array([None, 1_700_000_000_000_000, None],
                            pa.timestamp("us")),
        "content_text": ["a-null-ts", "a-real-ts", "b"],
    })
    cs = corpus_checksum(rd.from_arrow(t), pin_slim=False)
    # expected: u1's winner is the NON-null ts row; u2 survives with null
    import hashlib

    def dig(u, txt):
        h = hashlib.sha256()
        h.update(u.encode())
        h.update(b"\x00")
        h.update(txt.encode())
        return int(h.hexdigest(), 16)

    total = (dig("u1", "a-real-ts") + dig("u2", "b")) % (1 << 256)
    assert cs == f"2:{total:064x}"


def _digest(u: str, txt: str) -> int:
    import hashlib

    h = hashlib.sha256()
    h.update(u.encode())
    h.update(b"\x00")
    h.update(txt.encode())
    return int(h.hexdigest(), 16)


def test_corpus_checksum_without_warc_ts(ray_session):
    """No warc_ts column: the winner per url is the smallest digest."""
    import ray.data as rd

    from xtract.metrics import corpus_checksum

    t = pa.table({"url": ["u1", "u1", "u2"],
                  "content_text": ["x", "y", "z"]})
    for pin in (True, False):
        cs = corpus_checksum(rd.from_arrow(t), pin_slim=pin)
        total = (min(_digest("u1", "x"), _digest("u1", "y"))
                 + _digest("u2", "z")) % (1 << 256)
        assert cs == f"2:{total:064x}"
    cs = corpus_checksum(rd.from_arrow(t), dedup=False)
    total = (_digest("u1", "x") + _digest("u1", "y")
             + _digest("u2", "z")) % (1 << 256)
    assert cs == f"3:{total:064x}"


def test_corpus_checksum_asks_no_schema(ray_session, monkeypatch):
    """The projection is decided per batch: the lazy input is not
    executed an extra time to learn its schema.  (A schema read that
    may not fetch, as groupby's key check makes, runs nothing.)"""
    import ray.data as rd

    from xtract.metrics import corpus_checksum

    calls = []
    schema = rd.Dataset.schema

    def counting_schema(self, fetch_if_missing=True):
        if fetch_if_missing:
            calls.append(1)
        return schema(self, fetch_if_missing=fetch_if_missing)

    t = pa.table({"url": ["u1", "u1"],
                  "warc_ts": pa.array([2, 1], pa.timestamp("us")),
                  "content_text": ["late", "early"]})
    ds = rd.from_arrow(t).map_batches(lambda b: b, batch_format="pyarrow")
    monkeypatch.setattr(rd.Dataset, "schema", counting_schema)
    assert corpus_checksum(ds) == f"1:{_digest('u1', 'early'):064x}"
    assert calls == []


def test_char_lm_costs_never_negative(ray_session):
    import ray.data as rd

    from xtract.ops.ngram_lm import train_char_lm

    docs = pd.DataFrame({
        "text": ["the quick brown fox " * 30, "zzzz qqqq " * 50,
                 "hello world " * 40]})
    # tiny max_grams forces equal-count cut boundaries
    for mg in (5, 17, 50):
        table = train_char_lm(rd.from_pandas(docs), order=3, max_grams=mg)
        assert all(v >= 0.0 for v in table.values()), (mg, min(table.values()))


def test_hot_bucket_star_capped():
    """A pathological bucket (10^4 identical members) emits O(m) star
    edges, not m^2, and the components are identical."""
    from xtract.ops.dedup import (HOT_RUN_CAP, _bucket_pairs_partition,
                                  _minhash_pairs_partition)

    m = 10_000
    assert m > HOT_RUN_CAP
    g = pa.table({"band": pa.array(np.zeros(m, np.uint64), pa.uint64()),
                  "doc_id": pa.array(np.arange(m), pa.int64())})
    out = _bucket_pairs_partition(g, "doc_id")
    assert len(out) == m - 1  # star, not m(m-1)/2
    assert out["a"].to_pylist() == [0] * (m - 1)  # anchored at min id
    assert sorted(out["b"].to_pylist()) == list(range(1, m))

    # verified (minhash) variant: identical signatures all pass
    sig = np.tile(np.arange(8, dtype=np.uint64), (m, 1))
    g2 = pa.table({
        "band": pa.array(np.zeros(m, np.uint64), pa.uint64()),
        "doc_id": pa.array(np.arange(m), pa.int64()),
        "minhash": pa.FixedSizeListArray.from_arrays(
            pa.array(sig.reshape(-1), pa.uint64()), 8),
    })
    out2 = _minhash_pairs_partition(g2, "doc_id", 4, 5)
    assert len(out2) == m - 1
    assert out2["a"].to_pylist() == [0] * (m - 1)


def test_small_bucket_pairs_exact():
    """Below the cap, all-pairs emission is unchanged."""
    from xtract.ops.dedup import _bucket_pairs_partition

    m = 5
    g = pa.table({"band": pa.array(np.zeros(m, np.uint64), pa.uint64()),
                  "doc_id": pa.array(np.arange(m), pa.int64())})
    out = _bucket_pairs_partition(g, "doc_id")
    assert len(out) == m * (m - 1) // 2


def test_minhash_dedup_pathological_corpus(ray_session):
    """End-to-end: thousands of identical docs cluster together with
    bounded pair emission."""
    import ray.data as rd

    from xtract.ops.dedup import minhash_lsh_dedup

    n = 2000
    docs = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "text": ["exactly the same viral page content here"] * n,
    })
    out = minhash_lsh_dedup(rd.from_pandas(docs).repartition(4)
                            ).to_pandas()
    assert len(out) == n
    assert (out["cluster_id"] == 0).all()


def test_hll_dataset_side_merge(ray_session):
    import ray.data as rd

    from xtract.ops.sketch import approx_distinct

    n = 20_000
    df = pd.DataFrame({"v": [f"value-{i % 5000}" for i in range(n)]})
    est = approx_distinct(rd.from_pandas(df).repartition(8), "v")
    assert abs(est - 5000) / 5000 < 0.05


def _dup_corpus(n_docs: int = 60) -> pd.DataFrame:
    """Synthetic high-duplication corpus: a boilerplate banner in every
    doc, a shared paragraph in half of them, unique body text."""
    rows = []
    for i in range(n_docs):
        lines = [
            "Accept our cookies to continue reading this site",
            f"unique headline number {i} for this document",
            "This shared paragraph appears in many documents verbatim."
            if i % 2 == 0 else f"distinct paragraph body {i} stays here",
            "short",
            f"tail content {i} with enough length to count as a line",
        ]
        rows.append({"doc_id": np.int64(i), "url": f"https://ex.com/{i}",
                     "text": "\n".join(lines)})
    return pd.DataFrame(rows)


def test_line_dedup_cogroup_matches_broadcast(ray_session):
    import ray.data as rd

    from xtract.ops.linedup import drop_repeated_lines

    df = _dup_corpus()
    ds = rd.from_pandas(df).repartition(4)
    bc = (drop_repeated_lines(ds, max_docs=5, col="text", key="doc_id")
          .to_pandas().sort_values("doc_id").reset_index(drop=True))
    cg = (drop_repeated_lines(ds, max_docs=5, col="text", key="doc_id",
                              broadcast_limit=0)  # force the co-group path
          .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert list(bc.columns) == list(cg.columns)
    pd.testing.assert_frame_equal(bc, cg)
    # the banner (60 docs) and the shared paragraph (30 docs) are hot
    assert (bc["n_lines_dropped"] >= 1).all()
    assert "Accept our cookies" not in bc["text"].iloc[0]


def test_paragraph_dedup_cogroup_matches_broadcast(ray_session):
    import ray.data as rd

    from xtract.ops.linedup import dedup_paragraphs

    df = _dup_corpus()[["doc_id", "text"]]
    ds = rd.from_pandas(df).repartition(4)
    bc = (dedup_paragraphs(ds).to_pandas()
          .sort_values("doc_id").reset_index(drop=True))
    cg = (dedup_paragraphs(ds, broadcast_limit=0).to_pandas()
          .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(bc, cg)
    # owner (doc 0) keeps the banner and shared para; doc 2 drops them
    assert bc.loc[0, "n_paras_dropped"] == 0
    assert bc.loc[2, "n_paras_dropped"] == 2
    assert "shared paragraph" in bc.loc[0, "text"]
    assert "shared paragraph" not in bc.loc[2, "text"]


def test_knn_ivf_int_recall_and_partition_invariance(ray_session):
    """Integer IVF: exact SQL semantics are covered by the oracle test;
    here check (a) k results per query ranked by (d, vec_id), (b)
    recall@10 vs integer brute force is reasonable, (c) the result is
    identical under a different partitioning."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from xtract.ops.similarity import _quant_int, knn_ivf_int

    rng = np.random.default_rng(11)
    n, dim = 400, 16
    vecs = rng.normal(size=(n, dim)).astype(np.float32) * 0.3
    t = pa.table({"vec_id": pa.array(range(n), pa.int64()),
                  "embedding": pa.array([list(map(float, v)) for v in vecs],
                                        pa.list_(pa.float32()))})
    out = knn_ivf_int(rd.from_arrow(t).repartition(4), [0, 5], k=10,
                      n_cells=8, nprobe=3).to_pandas()
    out2 = knn_ivf_int(rd.from_arrow(t).repartition(9), [0, 5], k=10,
                       n_cells=8, nprobe=3).to_pandas()
    assert out.equals(out2)
    qv = _quant_int(np.asarray(vecs[[0, 5]], np.float64))
    allv = _quant_int(np.asarray(vecs, np.float64))
    for qi in (0, 1):
        g = out[out["query_id"] == qi]
        assert len(g) == 10
        d = ((allv - qv[qi]) ** 2).sum(1)
        exact = set(np.lexsort((np.arange(n), d))[:10].tolist())
        got = set(g["vec_id"].tolist())
        assert len(got & exact) >= 6, (qi, got, exact)
        # ranked by (d, vec_id)
        dd = g["d"].to_numpy()
        assert (np.diff(dd) >= 0).all()


def test_levenshtein_matches_duckdb_and_band():
    """Banded early-exit returns the exact distance when d ≤ cap and
    any value > cap otherwise — cross-checked against DuckDB's
    levenshtein on random short strings."""
    import random

    import duckdb

    from xtract.ops.fuzzy import levenshtein

    rng = random.Random(7)
    con = duckdb.connect()
    for _ in range(300):
        a = "".join(rng.choice("abcx ") for _ in range(rng.randint(0, 12)))
        b = "".join(rng.choice("abcx ") for _ in range(rng.randint(0, 12)))
        want = con.execute("SELECT levenshtein(?, ?)", [a, b]).fetchone()[0]
        assert levenshtein(a, b) == want, (a, b)
        cap = rng.randint(0, 6)
        got = levenshtein(a, b, cap=cap)
        if want <= cap:
            assert got == want, (a, b, cap)
        else:
            assert got > cap, (a, b, cap)
