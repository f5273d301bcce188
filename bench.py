#!/usr/bin/env python
"""Benchmark harness: headline extraction pipeline + per-op timings.

Prints ONE JSON line:
  {"metric": "...", "value": <headline sec>, "unit": "sec",
   "queries": {...}, "sf": ..., "num_cpus": N, "docs_per_s": ...,
   "mb_html_per_s": ...}

Env: GRAFT_SF_DIR (default /root/testdata/sf0.1),
     RAY_GRAFT_CPUS (default 32).

--scaling: run the headline pipeline in fresh processes at two CPU
levels (XTRACT_SCALING_LO, default 8, and XTRACT_SCALING_HI, default
32) on the same input and report both throughputs, keyed ``_lo`` and
``_hi`` with the levels themselves in ``lo``/``hi``, plus the scaling
efficiency (the sandbox substitute for N-vs-4N cluster sizes —
SURVEY §4.3); result also recorded in BASELINE.md.

The pages input is synthesized once per (sf, expand, repeat) into a
cached parquet dir so the timed pipeline is the real product path:
read_parquet → validate → skew-split → actor-pool extract → checksum.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
EXPAND = int(os.environ.get("XTRACT_BENCH_EXPAND", "8"))
REPEAT = int(os.environ.get("XTRACT_BENCH_REPEAT", "10"))


def ensure_pages(sf_dir: str) -> str:
    """Synthesize the pages corpus once (cached across processes/runs;
    cache key includes a hash of the synthesizer source so corpus
    changes invalidate it)."""
    import hashlib
    import inspect

    import xtract.synth as _synth

    tag = os.path.basename(os.path.normpath(sf_dir))
    sver = hashlib.sha256(inspect.getsource(_synth).encode()).hexdigest()[:8]
    out = f"/tmp/xtract_bench_pages_{tag}_e{EXPAND}_r{REPEAT}_{sver}"
    done = os.path.join(out, "_SYNTH_DONE")
    if os.path.exists(done):
        return out
    from xtract.synth import synth_pages_dataset

    ds = synth_pages_dataset(sf_dir, repeat=REPEAT, expand=EXPAND)
    ds.write_parquet(out)
    with open(done, "w") as f:
        f.write("ok")
    return out


def bench_once() -> dict:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import ray.data as rd

    from xtract.metrics import corpus_checksum
    from xtract.ops.dedup import minhash_lsh_dedup
    from xtract.ops.similarity import knn_bruteforce
    from xtract.ops.textstats import text_stats_batch
    from xtract.pipeline import extract_pages, explode_pages, read_pages

    pages_dir = ensure_pages(SF_DIR)
    queries: dict[str, float] = {}

    # warm the OS page cache (untimed) + input stats
    stats = read_pages(pages_dir).map_batches(
        lambda b: __import__("pyarrow").table({
            "n": [len(b)],
            "bytes": [int(__import__("pyarrow").compute.sum(
                __import__("pyarrow").compute.binary_length(b["html"])).as_py() or 0)],
        }), batch_format="pyarrow").to_pandas()
    n_docs, html_bytes = int(stats.n.sum()), int(stats.bytes.sum())

    best_of = int(os.environ.get("XTRACT_BENCH_BEST_OF", "2"))

    def timed(fn) -> float:
        """Best-of-N wall time (single-node box is noisy, ±20%+ under
        neighbor load; min is the least-contended measurement)."""
        best = None
        for _ in range(best_of):
            t0 = time.perf_counter()
            fn()
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        return round(best, 3)

    # headline: read → validate → extract (warm per-worker state, elastic
    # tasks) → count consumed streaming (no driver materialization)
    n_out_box = []
    t_extract = timed(lambda: n_out_box.append(
        extract_pages(read_pages(pages_dir)).count()))
    n_out = n_out_box[-1]
    queries["extract"] = t_extract

    if os.environ.get("XTRACT_BENCH_EXTRACT_ONLY"):
        # per-stage split for the scaling report: where does the wall
        # time go at this parallelism level?  (read-only scan, the
        # extract stage, and the checksum aggregation tail)
        queries["read_only"] = timed(
            lambda: read_pages(pages_dir).count())
        digest_box = []
        queries["checksum_full"] = timed(lambda: digest_box.append(
            corpus_checksum(extract_pages(read_pages(pages_dir)))))
        queries["checksum_tail"] = round(
            max(0.0, queries["checksum_full"] - t_extract), 3)
        ray.shutdown()
        return {
            "checksum": digest_box[-1],
            "metric": "extracted documents/sec (byte-identical text per url)",
            "value": round(t_extract, 3), "unit": "sec", "queries": queries,
            "sf": SF_DIR, "num_cpus": NUM_CPUS, "n_docs": n_docs,
            "n_out": n_out, "html_mb": round(html_bytes / 1e6, 1),
            "docs_per_s": round(n_out / t_extract, 1),
            "mb_html_per_s": round(html_bytes / 1e6 / t_extract, 2),
        }

    # checksum aggregation (extract + groupby-url dedup + digest partials)
    queries["extract_checksum"] = timed(
        lambda: corpus_checksum(extract_pages(read_pages(pages_dir))))

    # blocks hierarchy explode on a slice
    queries["blocks_explode_2k"] = timed(
        lambda: explode_pages(read_pages(pages_dir).limit(2000),
                              levels=("block",)).count())

    # training-data ops over the driver tables
    queries["doc_token_stats"] = timed(
        lambda: rd.read_parquet(f"{SF_DIR}/documents.parquet",
                                columns=["doc_id", "text"]).map_batches(
            text_stats_batch, batch_format="pyarrow").count())

    queries["minhash_dedup"] = timed(
        lambda: minhash_lsh_dedup(
            rd.read_parquet(f"{SF_DIR}/documents.parquet",
                            columns=["doc_id", "text"]),
            concurrency=(2, max(2, NUM_CPUS // 2))))

    emb = rd.read_parquet(f"{SF_DIR}/embeddings.parquet")
    import numpy as np

    q0 = np.asarray([r["embedding"] for r in emb.take(4)], np.float64)
    queries["knn_bruteforce"] = timed(lambda: knn_bruteforce(emb, q0, k=10))

    # outlink extraction over the full pages corpus (tokenizer walk +
    # href resolution, streaming flat explode — crawl-graph surface)
    from xtract.links import extract_outlinks

    queries["outlinks"] = timed(
        lambda: extract_outlinks(read_pages(pages_dir)).count())

    # anchor-text harvest: outlinks → per-target description profile
    # (pair groupbys + distinct-host dedup + two co-group joins)
    from xtract.ops.graph import anchor_text_profile

    # cross_host_only=False: the synth corpus links intra-host, and the
    # bench should time the pair-groupby/top-anchor machinery on real rows
    queries["anchor_profile"] = timed(
        lambda: anchor_text_profile(
            extract_outlinks(read_pages(pages_dir)),
            cross_host_only=False).count())

    # head metadata (canonical/robots/refresh) over the full corpus —
    # same tokenizer walk, per-page row out
    from xtract.links import extract_head_meta

    queries["head_meta"] = timed(
        lambda: extract_head_meta(read_pages(pages_dir)).count())

    # table + heading extraction over the full corpus — the 4th/5th
    # tokenizer-walk surfaces (same streaming flat-explode shape)
    from xtract.tables import extract_headings, extract_tables

    queries["tables_cells"] = timed(
        lambda: extract_tables(read_pages(pages_dir)).count())
    queries["headings"] = timed(
        lambda: extract_headings(read_pages(pages_dir)).count())

    # exact substring dedup stats (window explode → Count/Min groupby →
    # flag → per-doc interval merge: the shuffle-heaviest training op)
    from xtract.ops.substring import substring_dedup_stats

    queries["substring_dedup"] = timed(
        lambda: substring_dedup_stats(
            rd.read_parquet(f"{SF_DIR}/documents.parquet",
                            columns=["doc_id", "text"]), k=20).count())

    from xtract.ops.joins import asof_join_cogroup

    def run_asof():
        orders = rd.read_parquet(f"{SF_DIR}/orders.parquet",
                                 columns=["o_custkey", "o_orderdate"])
        orders = orders.map_batches(
            lambda b: __import__("pyarrow").table(
                {"user_id": b["o_custkey"], "o_orderdate": b["o_orderdate"]}),
            batch_format="pyarrow")
        ev = rd.read_parquet(f"{SF_DIR}/events.parquet",
                             columns=["event_id", "user_id", "ts"])
        asof_join_cogroup(ev, orders, "user_id", "ts", "o_orderdate",
                          ["o_orderdate"]).count()

    queries["asof_cogroup"] = timed(run_asof)

    from xtract.ops.streaming import stream_window_aggregate

    def run_stream():
        ev = rd.read_parquet(f"{SF_DIR}/events.parquet",
                             columns=["ts", "event_type", "value"])
        tbl, _ = stream_window_aggregate(
            ev.iter_batches(batch_format="pyarrow", batch_size=8192),
            ts_col="ts", key_col="event_type", val_col="value",
            width_s=3600, lateness_s=10 ** 9, n_shards=8)
        return tbl.num_rows

    queries["stream_window"] = timed(run_stream)

    import pyarrow as _pa
    import pyarrow.compute as _pc

    from xtract.ops.versioned import commit_bucketed, commit_upsert

    def run_upsert():
        import shutil
        import tempfile

        store = tempfile.mkdtemp(prefix="bench_upsert_", dir="/tmp")
        try:
            cust = rd.read_parquet(
                f"{SF_DIR}/customer.parquet",
                columns=["c_custkey", "c_acctbal"]).map_batches(
                lambda t: _pa.table({
                    "c_custkey": t["c_custkey"],
                    "cents": _pc.cast(_pc.round(_pc.multiply(
                        t["c_acctbal"], 100)), _pa.int64())}),
                batch_format="pyarrow")
            commit_bucketed(cust, store, key="c_custkey",
                            n_buckets=64)
            ups = cust.map_batches(
                lambda t: t.filter(_pc.equal(_pc.bit_wise_and(
                    t["c_custkey"], 7), 0)),
                batch_format="pyarrow")
            return commit_upsert(ups, store)["n_rows"]
        finally:
            shutil.rmtree(store, ignore_errors=True)

    queries["upsert_merge"] = timed(run_upsert)

    from xtract.ops.packing import pack_documents
    from xtract.ops.vocab import build_vocab

    def run_pack():
        docs = rd.read_parquet(f"{SF_DIR}/documents.parquet",
                               columns=["doc_id", "text"])
        vocab = build_vocab(docs, size=4096)
        pack_documents(docs, vocab, seq_len=512).count()

    queries["pack_sequences"] = timed(run_pack)

    # BM25 through the persisted inverted index: build (posting explode
    # + partitioned write) then a bucket-pruned search
    from xtract.ops.ranking import (bm25_search_index, bm25_score,
                                    build_text_index)

    def run_bm25_index():
        import shutil
        import tempfile

        d = tempfile.mkdtemp(prefix="bm25_bench_", dir="/tmp")
        try:
            docs = rd.read_parquet(f"{SF_DIR}/documents.parquet",
                                   columns=["doc_id", "text"])
            build_text_index(docs, d)
            bm25_search_index(d, "data stream join window dup")
        finally:
            shutil.rmtree(d, ignore_errors=True)

    queries["bm25_index"] = timed(run_bm25_index)

    # TF-IDF keyword extraction: the two-exchange (token co-group →
    # doc co-group) shape over the full documents table
    from xtract.ops.ranking import tfidf_top_terms

    queries["tfidf_keywords"] = timed(
        lambda: tfidf_top_terms(
            rd.read_parquet(f"{SF_DIR}/documents.parquet",
                            columns=["doc_id", "text"]), k=3).count())

    # bigram PMI collocations: two corpus count passes + bounded
    # broadcast + exact big-int scoring
    from xtract.ops.collocations import bigram_pmi

    queries["bigram_pmi"] = timed(
        lambda: len(bigram_pmi(
            rd.read_parquet(f"{SF_DIR}/documents.parquet",
                            columns=["text"]), min_count=5, k=50)))

    # per-host triangle counts over the planted link graph (degree-
    # ordered wedges + semi co-group closure)
    import __ray_entry__ as _E

    queries["host_triangles"] = timed(
        lambda: _E.queries()["host_triangles"](SF_DIR).count())

    # Q8-style market share: three chained co-groups (custkey semi →
    # orderkey year attach → suppkey nation attach) in one pipeline
    queries["market_share"] = timed(
        lambda: len(_E.queries()["nation_market_share"](SF_DIR)))

    # Q21-style blame assignment: per-(order,supplier) combiner +
    # one orderkey co-group replaying whole orders locally
    queries["late_supplier"] = timed(
        lambda: len(_E.queries()["late_supplier_orders"](SF_DIR)))

    # session-11 heavyweights: winnowing fingerprint selection over the
    # documents table (rolling hash + sliding-window argmin per doc)
    # and bipartite butterfly counting over lineitem (pair co-group)
    from xtract.ops.graph import butterfly_counts
    from xtract.ops.textstats import winnow_fingerprints

    queries["winnow_fp"] = timed(
        lambda: winnow_fingerprints(
            rd.read_parquet(f"{SF_DIR}/documents.parquet",
                            columns=["doc_id", "text"]),
            k=16, w=4).count())
    queries["butterflies"] = timed(
        lambda: butterfly_counts(
            rd.read_parquet(f"{SF_DIR}/lineitem.parquet",
                            columns=["l_orderkey", "l_partkey"]),
            "l_orderkey", "l_partkey").count())

    # session-12 heavyweights: trained LR (4 GD passes over the
    # feature table), PQ train→encode→search (2 kmeans + ADC), and the
    # global prefix-scan lateness audit over 150k events
    queries["logreg_train_score"] = timed(
        lambda: len(_E.queries()["doc_quality_lr"](SF_DIR)))
    queries["knn_pq"] = timed(
        lambda: len(_E.queries()["knn_pq"](SF_DIR)))
    queries["late_scan"] = timed(
        lambda: len(_E.queries()["events_late_arrivals"](SF_DIR)))

    # session-14 heavyweights: the skew-aware join over a 70%-hot key
    # (frequency measure + broadcast-hot + cold co-group) and the
    # exact AUC prefix scan over the scored corpus
    queries["skew_join"] = timed(
        lambda: _E.queries()["orders_skew_join"](SF_DIR).count())
    queries["lr_auc"] = timed(
        lambda: len(_E.queries()["lr_auc"](SF_DIR)))

    # session-15 heavyweights: the fragment-replicate salted join
    # (hot on BOTH sides), depth-2 tree training (3 histogram
    # exchanges), and the exact-integer PCA scatter pass (64×64 Gram)
    queries["salted_join"] = timed(
        lambda: _E.queries()["event_type_salted_join"](SF_DIR).count())
    queries["dtree_train"] = timed(
        lambda: len(_E.queries()["doc_quality_tree"](SF_DIR)))
    queries["pca_scatter"] = timed(
        lambda: _E.queries()["embedding_scatter"](SF_DIR).count())
    queries["boost_train_score"] = timed(
        lambda: _E.queries()["doc_quality_boost"](SF_DIR).count())

    # round-4: one representative per previously-UNTIMED family, so a
    # regression in the storage / robots / quantile / streaming /
    # sketch tiers shows up in BENCH diffs (verdict r3 item 4)
    def _q_rows(name):
        out = _E.queries()[name](SF_DIR)
        return out.count() if hasattr(out, "count") else len(out)

    for bname, qname in [
        ("time_travel", "events_time_travel"),          # versioned store
        ("zorder_box", "events_zorder_box"),            # Z-order layout
        ("sorted_join", "orders_sorted_join"),          # sorted layout
        ("bucketed_agg", "customer_spend_bucketed"),    # bucketed layout
        ("robots_filter", "host_robots_filter"),        # robots tier
        ("price_quantiles", "order_price_quantiles"),   # exact quantiles
        ("stream_watermark", "events_stream_window"),   # watermark window
        ("stream_sessions", "user_sessions_stream"),    # session windows
        ("anf_hll", "host_anf_hll"),                    # HLL sketch tier
        # round-5: the remaining untimed iterative-graph tier — the
        # ops most sensitive to the iterated-state pathology class the
        # round-4 _consolidate fix addressed (verdict r4 item 5)
        ("host_pagerank", "host_pagerank"),             # power iteration
        ("host_scc", "host_scc"),                       # fwd∩bwd labels
        ("host_communities", "host_communities"),       # label propagation
        ("host_k_core", "host_k_core"),                 # iterative peeling
        # round-5: the multimodal tier was the last untimed family —
        # synth → decode/hash actor pools → banded near-dup closure
        ("media_features", "media_features"),           # codec decode
        ("image_near_dups", "image_near_dups"),         # aHash + banding
        ("video_near_dups", "video_near_dups"),         # frame majority
    ]:
        queries[bname] = timed(lambda q=qname: _q_rows(q))

    result = {
        "metric": "extracted documents/sec (byte-identical text per url)",
        "value": round(t_extract, 3),
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "n_docs": n_docs,
        "n_out": n_out,
        "html_mb": round(html_bytes / 1e6, 1),
        "docs_per_s": round(n_out / t_extract, 1),
        "mb_html_per_s": round(html_bytes / 1e6 / t_extract, 2),
    }
    ray.shutdown()
    return result


def run_subprocess(ncpu: int, extract_only: bool = True) -> dict:
    env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
    if extract_only:
        env["XTRACT_BENCH_EXTRACT_ONLY"] = "1"
    out = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env,
                         capture_output=True, text=True, check=True,
                         cwd=os.path.dirname(os.path.abspath(__file__))).stdout
    return json.loads(out.strip().splitlines()[-1])


def _burn(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


def hardware_ceiling(lo: int, hi: int) -> float:
    """Raw CPU scaling of this box between the two worker counts (pure
    integer burn via multiprocessing) — the efficiency ceiling any
    CPU-bound pipeline can reach here (virtualized cores share turbo/
    bandwidth; on a real N→4N *node* cluster this ceiling is ~1.0)."""
    import multiprocessing as mp

    def run(workers: int) -> float:
        t0 = time.perf_counter()
        with mp.Pool(workers) as p:
            p.map(_burn, [2_000_000] * 64)
        return time.perf_counter() - t0

    return (run(lo) / run(hi)) / (hi / lo)


def scaling_report(lo: int, hi: int, runs_lo: list, runs_hi: list,
                   ceiling: float) -> dict:
    """The --scaling JSON from the sorted bench runs at ``lo`` and
    ``hi`` CPUs (median run per level)."""
    r_lo, r_hi = runs_lo[len(runs_lo) // 2], runs_hi[len(runs_hi) // 2]
    thr_lo, thr_hi = r_lo["docs_per_s"], r_hi["docs_per_s"]
    eff = (thr_hi / thr_lo) / (hi / lo)
    return {
        "metric": f"scaling efficiency (docs/s at {lo} vs {hi} cpus)",
        "value": round(eff, 3), "unit": "efficiency",
        "lo": lo, "hi": hi,
        "checksum_equal_across_parallelism":
            len({r.get("checksum") for r in runs_lo + runs_hi}) == 1,
        "samples_per_level": len(runs_lo), "estimator": "median",
        "docs_per_s_lo_all": [r["docs_per_s"] for r in runs_lo],
        "docs_per_s_hi_all": [r["docs_per_s"] for r in runs_hi],
        "sec_lo": r_lo["value"], "sec_hi": r_hi["value"],
        "docs_per_s_lo": thr_lo, "docs_per_s_hi": thr_hi,
        "mb_per_s_lo": r_lo["mb_html_per_s"], "mb_per_s_hi": r_hi["mb_html_per_s"],
        "stages_lo": r_lo["queries"], "stages_hi": r_hi["queries"],
        "hardware_ceiling": round(ceiling, 3),
        "normalized_efficiency": round(eff / ceiling, 3),
        "sf": SF_DIR, "n_docs": r_hi["n_docs"],
    }


def main() -> None:
    if "--scaling" in sys.argv:
        # default 8 vs 32; XTRACT_SCALING_LO/HI pick another N-vs-4N
        # pair (4 vs 16 leaves the 32-vCPU box unsaturated at the top
        # level — closer to what distinct N vs 4N NODES would show)
        lo = int(os.environ.get("XTRACT_SCALING_LO", "8"))
        hi = int(os.environ.get("XTRACT_SCALING_HI", "32"))
        # MEDIAN of 3 fresh processes per level (round-4 hardening:
        # best-of-2 let one lucky outlier carry the claim on this
        # noisy box; the median is the honest central estimate)
        runs_lo = sorted((run_subprocess(lo) for _ in range(3)),
                         key=lambda r: r["value"])
        runs_hi = sorted((run_subprocess(hi) for _ in range(3)),
                         key=lambda r: r["value"])
        print(json.dumps(scaling_report(lo, hi, runs_lo, runs_hi,
                                        hardware_ceiling(lo, hi))))
        return
    print(json.dumps(bench_once()))


if __name__ == "__main__":
    main()
