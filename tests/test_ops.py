"""Training-data ops: dedup family, similarity search, text stats,
multimodal plumbing — with planted duplicates/near-duplicates."""

import numpy as np
import pyarrow as pa
import pytest

from xtract.ops.dedup import (
    SimHasher,
    embedding_dedup,
    exact_dedup,
    minhash_lsh_dedup,
    simhash_dedup,
)
from xtract.ops.similarity import knn_bruteforce, knn_ivf
from xtract.ops.textstats import (
    bpeish_count,
    rolling_fingerprint,
    text_stats_batch,
    token_count,
)

BASE = ("the quick brown fox jumps over the lazy dog while the cat watches "
        "from the warm windowsill and the birds sing in the morning light")


@pytest.fixture(scope="module")
def planted_docs(ray_session):
    import ray.data as rd

    rows = []
    for i in range(40):
        rows.append({"doc_id": i, "text": f"unique document number {i} " +
                     " ".join(f"tok{i}x{j}" for j in range(30))})
    rows.append({"doc_id": 100, "text": BASE})
    rows.append({"doc_id": 101, "text": BASE})                       # exact dup
    rows.append({"doc_id": 102, "text": BASE.replace("dog", "hound")})  # near dup
    return rd.from_items(rows)


def test_exact_dedup_finds_planted(planted_docs):
    out = exact_dedup(planted_docs).to_pandas()
    assert len(out) == 42  # 43 rows, one exact dup collapsed
    grp = out[out.doc_id == 100]
    assert int(grp.n_dups.iloc[0]) == 2


def test_minhash_clusters_near_dups(planted_docs):
    # one-word edit of a ~25-word doc → true Jaccard ≈ 0.77; use 0.7 threshold
    out = minhash_lsh_dedup(planted_docs, threshold=(7, 10)).to_pandas()
    c = dict(zip(out.doc_id, out.cluster_id))
    assert c[100] == c[101] == c[102]          # exact + near dup share cluster
    assert c[0] != c[100] and c[0] != c[1]     # unique docs stay apart


def test_minhash_default_threshold_excludes_weak_pair(planted_docs):
    out = minhash_lsh_dedup(planted_docs).to_pandas()  # default 0.8
    c = dict(zip(out.doc_id, out.cluster_id))
    assert c[100] == c[101]                    # exact dup always clusters


def test_ngram_jaccard_variant(planted_docs):
    out = minhash_lsh_dedup(planted_docs, char_ngrams=True, k=5).to_pandas()
    c = dict(zip(out.doc_id, out.cluster_id))
    assert c[100] == c[101]


def test_simhash_clusters(planted_docs):
    out = simhash_dedup(planted_docs).to_pandas()
    c = dict(zip(out.doc_id, out.cluster_id))
    assert c[100] == c[101]
    assert c[0] != c[100]


def test_simhash64_deterministic():
    a = SimHasher.simhash64(BASE)
    assert a == SimHasher.simhash64(BASE)
    assert bin(a ^ SimHasher.simhash64(BASE.replace("dog", "hound"))).count("1") <= 12


def test_embedding_dedup(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(0)
    vecs = rng.standard_normal((30, 16))
    vecs[21] = vecs[20] + 0.001                   # planted near-identical pair
    ds = rd.from_items([{"vec_id": i, "embedding": vecs[i].tolist()}
                        for i in range(30)])
    out = embedding_dedup(ds, threshold=0.99).to_pandas()
    c = dict(zip(out.vec_id, out.cluster_id))
    assert c[20] == c[21]
    assert len(set(c.values())) == 29


def test_knn_bruteforce_exact(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(1)
    vecs = rng.standard_normal((100, 16))
    ds = rd.from_items([{"vec_id": i, "embedding": vecs[i].tolist()}
                        for i in range(100)])
    q = vecs[:2]
    out = knn_bruteforce(ds, q, k=5).to_pandas()
    # numpy reference
    unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    qu = q / np.linalg.norm(q, axis=1, keepdims=True)
    sims = qu @ unit.T
    for qi in range(2):
        expect = np.lexsort((np.arange(100), -sims[qi]))[:5].tolist()
        got = out[out.query_id == qi].sort_values("rank").vec_id.tolist()
        assert got == expect
    assert out[out.query_id == 0].iloc[0].vec_id == 0  # self is rank 1


def test_knn_ivf_contains_self(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(2)
    vecs = rng.standard_normal((200, 16))
    ds = rd.from_items([{"vec_id": i, "embedding": vecs[i].tolist()}
                        for i in range(200)])
    out = knn_ivf(ds, vecs[:1], k=5, n_cells=8, nprobe=3).to_pandas()
    assert out.iloc[0].vec_id == 0 and out.iloc[0]["rank"] == 1


def test_token_count_semantics():
    assert token_count("") == 0
    assert token_count("   ") == 0
    assert token_count(" a  b\t\nc ") == 3
    assert bpeish_count("hello, world 42") == 5  # hello , world 4 2


def test_rolling_fingerprint_stability():
    assert rolling_fingerprint(BASE) == rolling_fingerprint(BASE)
    # min-of-windows is intentionally robust to small appends; disjoint
    # content must differ
    assert rolling_fingerprint(BASE) != rolling_fingerprint(
        "completely different words drawn from another vocabulary entirely")
    assert rolling_fingerprint("") == 0


def test_text_stats_batch_columns():
    t = pa.table({"text": ["Hello, World! 42", ""]})
    out = text_stats_batch(t)
    assert out["n_tokens"].to_pylist() == [3, 0]
    assert out["n_alpha"].to_pylist() == [10, 0]
    assert out["n_digit"].to_pylist() == [2, 0]
    assert out["n_upper"].to_pylist() == [2, 0]
    assert len(out["fingerprint"][0].as_py()) == 32


def test_multimodal_real_decode(ray_session):
    import ray.data as rd

    from xtract.ops.multimodal import DecodeStage, decode_media, synth_media_batch

    docs = rd.from_items([{"doc_id": i} for i in range(12)])
    media = docs.map_batches(synth_media_batch, batch_format="pyarrow")
    feats = decode_media(media, batch_size=4).to_pandas()
    assert len(feats) == 12
    assert set(feats.decode_status) == {"ok"}
    assert all(len(f) == 32 for f in feats.features)
    # features are REAL statistics, not hashes: image rows carry dims
    img = feats[feats.kind == "image"].iloc[0]
    assert img.features[20] > 0 and img.features[21] > 0  # width/height
    au = feats[feats.kind == "audio"].iloc[0]
    assert 0.0 < au.features[0] < 1.0  # sine RMS
    assert au.features[19] == 16000.0  # sample rate
    # unknown codecs keep the honest unsupported path
    bad = pa.table({"media_id": pa.array([99], pa.int64()),
                    "url": ["u"], "kind": ["image"],
                    "payload": pa.array([b"\x89PNG fake"], pa.binary()),
                    "meta": pa.array([{"width": 1, "height": 1,
                                       "sample_rate": 0, "n_frames": 1,
                                       "codec": "png"}],
                                     type=pa.struct([
                                         ("width", pa.int32()),
                                         ("height", pa.int32()),
                                         ("sample_rate", pa.int32()),
                                         ("n_frames", pa.int32()),
                                         ("codec", pa.string())]))})
    out = DecodeStage()(bad).to_pydict()
    assert out["decode_status"] == ["unsupported_codec"]


def test_bmp_wav_xraw_roundtrip():
    import numpy as np

    from xtract.ops.multimodal import (
        decode_bmp, decode_wav, decode_xraw, encode_bmp, encode_wav,
        encode_xraw)

    px = (np.arange(5 * 7 * 3).reshape(5, 7, 3) % 256).astype(np.uint8)
    assert (decode_bmp(encode_bmp(px)) == px).all()
    s = (np.sin(np.arange(500) / 10.0) * 1000).astype(np.int16)
    s2, rate = decode_wav(encode_wav(s, 8000))
    assert rate == 8000 and (s2 == s).all()
    frames = [encode_bmp(px), encode_bmp(px[::-1].copy())]
    assert decode_xraw(encode_xraw(frames)) == frames


def test_multimodal_resize_and_frames(ray_session):
    import numpy as np
    import ray.data as rd

    from xtract.ops.multimodal import (
        FrameSampleStage, ResizeStage, decode_bmp, synth_media_batch)

    docs = rd.from_items([{"doc_id": i} for i in range(12)])
    media = docs.map_batches(synth_media_batch, batch_format="pyarrow")
    resized = media.map_batches(ResizeStage, fn_constructor_args=(32, 32),
                                batch_format="pyarrow", batch_size=4,
                                concurrency=2, num_cpus=1).to_pandas()
    # real resize: image rows decode to exactly 32x32 pixels
    imgs = resized[resized.kind == "image"]
    assert (imgs.out_width == 32).all()
    out_px = decode_bmp(imgs.resized.iloc[0])
    assert out_px.shape == (32, 32, 3)
    # non-image payloads (wav) go down the unsupported path, not a crash
    assert set(resized[resized.kind == "audio"].resize_status) == {"unsupported_codec"}
    frames = media.map_batches(FrameSampleStage, fn_constructor_args=(4,),
                               batch_format="pyarrow", batch_size=4,
                               concurrency=2, num_cpus=1).to_pandas()
    assert len(frames) > 0
    assert (frames.frame_index % 4 == 0).all()
    # only video rows produce frames, and frames are REAL decodable BMPs
    vids = {i for i in range(12) if i % 3 == 2}
    assert set(frames.media_id) <= vids
    assert decode_bmp(frames.frame.iloc[0]).ndim == 3


def test_distributed_cc_matches_unionfind(ray_session):
    import ray.data as rd

    from xtract.ops.cc import connected_components_ds
    from xtract.ops.dedup import _connected_components

    rng = np.random.default_rng(5)
    edges = [(int(a), int(b)) for a, b in rng.integers(0, 20, (16, 2)) if a != b]
    ds = rd.from_items([{"a": a, "b": b} for a, b in edges])
    out = connected_components_ds(ds, num_partitions=2, max_rounds=6).to_pandas()
    ref = _connected_components(np.asarray(edges, np.int64))
    assert dict(zip(out.node.astype(int), out.label.astype(int))) == ref


def test_distributed_cc_chain(ray_session):
    import ray.data as rd

    from xtract.ops.cc import connected_components_ds

    chain = rd.from_items([{"a": i, "b": i + 1} for i in range(5)])
    out = connected_components_ds(chain, num_partitions=2, max_rounds=8).to_pandas()
    assert set(out.label.astype(int)) == {0}


@pytest.mark.slow
def test_minhash_distributed_cc(planted_docs):
    # default path is distributed CC; the driver union-find (opt-in for
    # provably tiny edge lists) must agree row-for-row
    a = minhash_lsh_dedup(planted_docs, threshold=(7, 10),
                          distributed_cc=False).to_pandas()
    b = minhash_lsh_dedup(planted_docs, threshold=(7, 10)).to_pandas()
    assert dict(zip(a.doc_id, a.cluster_id)) == dict(zip(b.doc_id, b.cluster_id))


def test_attach_labels_cogroup_matches_broadcast(ray_session):
    import ray.data as rd

    from xtract.ops.cc import attach_labels

    ids = rd.from_items([{"doc_id": i} for i in range(50)])
    labels = rd.from_arrow(pa.table({
        "node": pa.array([3, 7, 11], pa.int64()),
        "label": pa.array([3, 3, 3], pa.int64())}))
    bc = attach_labels(ids, labels, "doc_id").to_pandas()
    cg = attach_labels(ids, labels, "doc_id", broadcast_limit=0).to_pandas()
    want = {i: (3 if i in (3, 7, 11) else i) for i in range(50)}
    assert dict(zip(bc.doc_id, bc.cluster_id)) == want
    assert dict(zip(cg.doc_id, cg.cluster_id)) == want


def test_native_hash_join(ray_session):
    import ray.data as rd

    from xtract.ops.cc import hash_join

    l = rd.from_items([{"k": i, "x": i * 2} for i in range(10)])
    r = rd.from_items([{"kk": i, "y": i * 3} for i in range(5, 15)])
    j = hash_join(l, r, "k", "kk", num_partitions=2).to_pandas()
    assert len(j) == 5 and set(j.k) == set(range(5, 10))


def test_embedding_dedup_no_pairs(ray_session):
    import ray.data as rd

    # orthogonal-ish random vectors: no pair reaches the 0.999 threshold
    rng = np.random.default_rng(11)
    vecs = rng.standard_normal((20, 16))
    ds = rd.from_items([{"vec_id": i, "embedding": vecs[i].tolist()}
                        for i in range(20)])
    out = embedding_dedup(ds, threshold=0.9999).to_pandas()
    assert len(out) == 20
    assert (out.cluster_id == out.vec_id).all()  # everyone keeps own id


def test_hll_approx_distinct(ray_session):
    import ray.data as rd

    from xtract.ops.sketch import approx_distinct

    n = 5000
    ds = rd.from_items([{"v": f"value-{i % 1500}"} for i in range(n)]
                       ).repartition(5)
    est = approx_distinct(ds, "v", p=12)
    assert abs(est - 1500) / 1500 < 0.05
    # partition-independence: same estimate under a different layout
    est2 = approx_distinct(ds.repartition(2), "v", p=12)
    assert est == est2


def test_hll_token_mode(ray_session):
    import ray.data as rd

    from xtract.ops.sketch import approx_distinct

    # NB sql_tokens splits on [^a-z]+ — use letter-only unique tokens
    def word(i):
        return "".join("abcdefghij"[int(d)] for d in str(i))

    docs = rd.from_items([{"text": f"alpha beta tok{word(i)}x"}
                          for i in range(300)])
    est = approx_distinct(docs, "text", p=12, tokenize=True)
    assert abs(est - 302) / 302 < 0.06


def test_dedup_index_incremental(ray_session):
    import ray.data as rd

    from xtract.ops.dedup_index import DedupIndex

    idx = DedupIndex(num_shards=4)
    job1 = rd.from_items([{"doc_id": i, "text": f"doc number {i}"}
                          for i in range(50)] +
                         [{"doc_id": 99, "text": "doc number 7"}])  # dup of 7
    kept1 = idx.filter_new(job1).to_pandas()
    assert len(kept1) == 50                      # within-job dup dropped
    assert idx.total() == 50
    # a later job: half overlap with job1, half new
    job2 = rd.from_items([{"doc_id": 1000 + i,
                           "text": f"doc number {i + 25}"} for i in range(50)])
    kept2 = idx.filter_new(job2).to_pandas()
    assert len(kept2) == 25                      # only the unseen half survives
    assert set(kept2.doc_id) == {1000 + i for i in range(25, 50)}
    assert idx.total() == 75


def test_ivf_index_persist_and_query(ray_session, tmp_path):
    import ray.data as rd

    from xtract.ops.similarity import build_ivf_index, knn_bruteforce, knn_ivf_index

    rng = np.random.default_rng(9)
    vecs = rng.standard_normal((400, 16))
    ds = rd.from_items([{"vec_id": i, "embedding": vecs[i].tolist()}
                        for i in range(400)])
    out = str(tmp_path / "ivf")
    centers = build_ivf_index(ds, out, n_cells=8)
    assert centers.shape == (8, 16)
    q = vecs[:3]
    got = knn_ivf_index(out, q, k=5, nprobe=4).to_pandas()
    bf = knn_bruteforce(ds, q, k=5).to_pandas()
    hits = len(set(map(tuple, got[["query_id", "vec_id"]].values)) &
               set(map(tuple, bf[["query_id", "vec_id"]].values)))
    assert hits / len(bf) >= 0.8       # ANN recall vs exact
    # each query's own vector must be its rank-1 hit
    for qi in range(3):
        assert got[got.query_id == qi].iloc[0].vec_id == qi


def test_minhash_rejoin_mode_matches_carry(planted_docs):
    """verify-by-rejoin (slim band rows + signature half-joins) must
    produce the identical clustering to the signature-carrying path."""
    a = minhash_lsh_dedup(planted_docs, threshold=(7, 10)).to_pandas()
    b = minhash_lsh_dedup(planted_docs, threshold=(7, 10),
                          carry_signatures=False).to_pandas()
    assert dict(zip(a.doc_id, a.cluster_id)) == dict(zip(b.doc_id, b.cluster_id))


def test_embedding_multiprobe_recall(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(17)
    base = rng.standard_normal((40, 24))
    rows = []
    for i in range(40):
        rows.append({"vec_id": 2 * i, "embedding": base[i].tolist()})
        noisy = base[i] + rng.standard_normal(24) * 0.12  # cos ≈ 0.96-0.99
        rows.append({"vec_id": 2 * i + 1, "embedding": noisy.tolist()})
    ds = rd.from_items(rows)

    def n_recovered(out):
        c = dict(zip(out.vec_id, out.cluster_id))
        return sum(c[2 * i] == c[2 * i + 1] for i in range(40))

    plain = n_recovered(embedding_dedup(ds, threshold=0.9).to_pandas())
    probed = n_recovered(embedding_dedup(ds, threshold=0.9,
                                         n_probe_bits=3).to_pandas())
    # multi-probe can only add true pairs (exact verify → no false merges)
    assert probed >= plain
    assert probed >= 30          # catches the vast majority of planted pairs


def test_decontaminate_flags_benchmark_overlap(ray_session):
    import ray.data as rd

    from xtract.ops.textstats import decontaminate

    passage = ("the benchmark question asks about the capital city of a "
               "country in western europe with many famous museums and art")
    train = rd.from_items([
        {"doc_id": 0, "text": f"some training text then {passage} then more"},
        {"doc_id": 1, "text": "entirely unrelated training document about "
                              "cooking pasta with tomatoes and fresh basil "
                              "leaves in a large pot of salted water"},
    ])
    bench = rd.from_items([{"text": passage}])
    out = decontaminate(train, bench, n=13).to_pandas().set_index("doc_id")
    assert bool(out.loc[0, "is_contaminated"])
    assert out.loc[0, "n_contaminated_ngrams"] > 0
    assert not bool(out.loc[1, "is_contaminated"])


def test_decontaminate_gates_the_benchmark_broadcast(ray_session, monkeypatch):
    import ray.data as rd

    from xtract.ops import textstats
    from xtract.ops.textstats import decontaminate

    words = " ".join(f"w{chr(97 + i % 26)}{chr(97 + i // 26)}" for i in range(40))
    train = rd.from_items([{"doc_id": 0, "text": words}])
    # 40 words → 28 distinct 13-grams on the benchmark side
    bench = rd.from_items([{"text": words}])
    monkeypatch.setattr(textstats, "BENCH_NGRAM_LIMIT", 27)
    with pytest.raises(ValueError, match="BENCH_NGRAM_LIMIT"):
        decontaminate(train, bench, n=13)
    monkeypatch.setattr(textstats, "BENCH_NGRAM_LIMIT", 28)
    out = decontaminate(train, bench, n=13).to_pandas()
    assert out.n_contaminated_ngrams.tolist() == [28]


def test_deterministic_sample(ray_session):
    import ray.data as rd

    from xtract.ops.agg import deterministic_sample

    ds = rd.from_items([{"doc_id": i, "x": i * 2} for i in range(100)])
    out = deterministic_sample(ds, "doc_id", every=10).to_pandas()
    assert sorted(out.doc_id) == list(range(0, 100, 10))
    # partition-independent
    out2 = deterministic_sample(ds.repartition(7), "doc_id", every=10).to_pandas()
    assert sorted(out2.doc_id) == sorted(out.doc_id)


def test_ivf_append_grows_index(ray_session, tmp_path):
    """Incremental growth: vectors appended after the build must be
    findable (each appended query's own vector is its rank-1 hit) and
    the original contents must be untouched."""
    import ray.data as rd

    from xtract.ops.similarity import build_ivf_index, ivf_append, knn_ivf_index

    rng = np.random.default_rng(23)
    vecs = rng.standard_normal((300, 16))
    ds = rd.from_items([{"vec_id": i, "embedding": vecs[i].tolist()}
                        for i in range(300)])
    out = str(tmp_path / "ivf")
    build_ivf_index(ds, out, n_cells=8)

    new_vecs = rng.standard_normal((50, 16))
    new_ds = rd.from_items([
        {"vec_id": 1000 + i, "embedding": new_vecs[i].tolist()}
        for i in range(50)])
    assert ivf_append(out, new_ds) == 50

    got = knn_ivf_index(out, new_vecs[:4], k=3, nprobe=8).to_pandas()
    for qi in range(4):
        assert got[got.query_id == qi].iloc[0].vec_id == 1000 + qi
    # original vectors still served
    old = knn_ivf_index(out, vecs[:2], k=3, nprobe=8).to_pandas()
    for qi in range(2):
        assert old[old.query_id == qi].iloc[0].vec_id == qi
