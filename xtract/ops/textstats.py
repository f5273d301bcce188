"""Text analysis ops: token counts, char-class stats, quality score,
fingerprints, language ID — over a ``documents(doc_id, text, ...)`` table.

The SQL-checkable stats use exactly the character classes / trim /
split semantics that the DuckDB oracle SQL in ``__ray_entry__.py``
uses, so row values hash-match bit-for-bit: ASCII regex classes only,
``[ \\t\\n\\r]+`` tokenization of text trimmed on `` \\t\\n\\r``.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa

_TOKEN_SPLIT = re.compile(r"[ \t\n\r]+")
_ALPHA = re.compile(r"[A-Za-z]")
_DIGIT = re.compile(r"[0-9]")
_PUNCT = re.compile(r"[.!?,;:]")
_UPPER = re.compile(r"[A-Z]")
_TRIM = " \t\n\r"

#: BPE-ish token pattern (public GPT-2 style pre-tokenizer shape):
#: word pieces, numbers, punctuation runs, whitespace collapsed
_BPEISH = re.compile(r"[A-Za-z]+|[0-9]|[^A-Za-z0-9\s]+")

#: most benchmark n-grams ``decontaminate`` will collect on the driver
#: and broadcast (~100 B each)
BENCH_NGRAM_LIMIT = 10_000_000


def token_count(text: str) -> int:
    t = text.strip(_TRIM)
    return 0 if not t else len(_TOKEN_SPLIT.split(t))


def bpeish_count(text: str) -> int:
    return len(_BPEISH.findall(text))


def text_stats_batch(batch: pa.Table) -> pa.Table:
    """map_batches: add n_tokens / char-class counts / md5 fingerprint.
    Exactly mirrors the oracle SQL expressions (see __ray_entry__)."""
    texts = batch["text"].to_pylist()
    n = len(texts)
    n_tokens = np.empty(n, np.int64)
    n_alpha = np.empty(n, np.int64)
    n_digit = np.empty(n, np.int64)
    n_punct = np.empty(n, np.int64)
    n_upper = np.empty(n, np.int64)
    fp = []
    for i, t in enumerate(texts):
        t = t or ""
        n_tokens[i] = token_count(t)
        n_alpha[i] = len(_ALPHA.findall(t))
        n_digit[i] = len(_DIGIT.findall(t))
        n_punct[i] = len(_PUNCT.findall(t))
        n_upper[i] = len(_UPPER.findall(t))
        fp.append(hashlib.md5(t.encode("utf-8")).hexdigest())
    out = batch
    for name, arr in (("n_tokens", n_tokens), ("n_alpha", n_alpha),
                      ("n_digit", n_digit), ("n_punct", n_punct),
                      ("n_upper", n_upper)):
        out = out.append_column(name, pa.array(arr))
    return out.append_column("fingerprint", pa.array(fp, pa.string()))


class QualityScorer:
    """Actor stage: composite quality score for filtering training data.
    Stopword table + compiled regexes are per-actor warm state."""

    def __init__(self) -> None:
        from ..langdetect import STOPWORDS

        self.stop = frozenset().union(*STOPWORDS.values())
        self.word_re = re.compile(r"[a-zA-Z]+")

    def __call__(self, batch: pa.Table) -> pa.Table:
        import zlib

        texts = batch["text"].to_pylist()
        n = len(texts)
        scores = np.empty(n, np.float64)
        stop_ratio = np.empty(n, np.float64)
        mean_wlen = np.empty(n, np.float64)
        comp_ratio = np.empty(n, np.float64)
        bullet_frac = np.empty(n, np.float64)
        max_rep = np.empty(n, np.int64)
        for i, t in enumerate(texts):
            t = t or ""
            words = self.word_re.findall(t.lower())
            nw = len(words)
            sw = sum(1 for w in words if w in self.stop)
            stop_ratio[i] = sw / nw if nw else 0.0
            mean_wlen[i] = (sum(len(w) for w in words) / nw) if nw else 0.0
            # Gopher-style signals (deterministic):
            raw = t.encode("utf-8")
            comp_ratio[i] = (len(zlib.compress(raw, 6)) / len(raw)) if raw else 1.0
            lines = [l for l in t.split("\n") if l.strip()]
            bullet_frac[i] = (sum(1 for l in lines if l.lstrip().startswith(
                ("-", "*", "•"))) / len(lines)) if lines else 0.0
            # longest run of one repeated word
            run = best = 0
            prev = None
            for w in words:
                run = run + 1 if w == prev else 1
                prev = w
                if run > best:
                    best = run
            max_rep[i] = best
            # deterministic integer composite scaled to 0-100
            s = 0
            if 20 <= nw <= 100000:
                s += 30
            if nw and 3 * sw >= nw:       # stopword ratio >= 1/3
                s += 25
            if nw and 3.0 <= mean_wlen[i] <= 10.0:
                s += 25
            if nw and 2 * len(set(words)) >= nw:
                s += 10   # distinct-word ratio >= 1/2 (not repetitive)
            if best <= 4:
                s += 10
            scores[i] = float(s)
        return (batch.append_column("quality_score", pa.array(scores))
                     .append_column("stopword_ratio", pa.array(stop_ratio))
                     .append_column("mean_word_len", pa.array(mean_wlen))
                     .append_column("compression_ratio", pa.array(comp_ratio))
                     .append_column("bullet_line_frac", pa.array(bullet_frac))
                     .append_column("max_word_run", pa.array(max_rep)))


def stopword_counts_batch(batch: pa.Table, stop: frozenset,
                          key: str = "doc_id", col: str = "text") -> pa.Table:
    """Integer stopword stats per document against a fixed stopword set
    — SQL-checkable (same ``[^a-z]+`` tokenization as the vocab ops, so
    the DuckDB oracle matches bit-for-bit)."""
    from .vocab import sql_tokens

    keys, n_words, n_stop = [], [], []
    for k, t in zip(batch[key].to_pylist(), batch[col].to_pylist()):
        toks = sql_tokens(t)
        keys.append(k)
        n_words.append(len(toks))
        n_stop.append(sum(1 for x in toks if x in stop))
    return pa.table({key: pa.array(keys),
                     "n_words_az": pa.array(n_words, pa.int64()),
                     "n_stopwords": pa.array(n_stop, pa.int64())})


class DocLangId:
    """Actor stage: language-ID columns over documents.text (warm
    trigram/stopword tables — A10 analogue applied to the corpus)."""

    def __init__(self, margin: int = 2) -> None:
        from ..langdetect import LangDetector

        self.det = LangDetector(margin=margin)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        langs, confs = [], np.empty(len(texts), np.float32)
        for i, t in enumerate(texts):
            l, c = self.det.detect((t or "")[:2000])
            langs.append(l)
            confs[i] = c
        return (batch.append_column("lang_detected", pa.array(langs, pa.string()))
                     .append_column("lang_conf", pa.array(confs)))


def rolling_fingerprint(text: str, window: int = 64,
                        mod: int = (1 << 61) - 1, base: int = 257) -> int:
    """Deterministic rolling-hash document fingerprint: min of rolling
    polynomial hashes over byte windows (content-defined sampling —
    robust to small edits, unlike md5)."""
    data = text.encode("utf-8")
    if not data:
        return 0
    if len(data) <= window:
        h = 0
        for b in data:
            h = (h * base + b) % mod
        return h
    h = 0
    pw = pow(base, window - 1, mod)
    best = mod
    for i, b in enumerate(data):
        if i >= window:
            h = (h - data[i - window] * pw) % mod
        h = (h * base + b) % mod
        if i >= window - 1 and h < best:
            best = h
    return best


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    texts = batch["text"].to_pylist()
    fps = np.array([rolling_fingerprint(t or "") for t in texts], np.uint64)
    return batch.append_column("rolling_fp", pa.array(fps, pa.uint64()))


def gopher_repetition_batch(batch: pa.Table, key: str = "doc_id",
                            col: str = "text") -> pa.Table:
    """Gopher-style WITHIN-document repetition signals (Rae et al. 2021
    §A1.1, public filtering rules): duplicate-line fractions and the
    most-frequent word-bigram count.  Emits integer numerators /
    denominators only (callers derive the ratios), so the DuckDB oracle
    hash-matches bit-for-bit:

    - ``n_lines`` / ``n_dup_lines``: non-empty stripped lines, and the
      occurrences of lines appearing more than once in the doc;
    - ``n_line_chars`` / ``n_dup_line_chars``: the character mass of
      those lines (all occurrences counted);
    - ``n_bigrams`` / ``top_bigram_count``: word bigrams (shared
      ``[a-z]+`` tokenizer) and the count of the most frequent one."""
    from .vocab import sql_tokens

    keys = batch[key].to_pylist()
    texts = batch[col].to_pylist()
    n = len(keys)
    n_lines = np.zeros(n, np.int64)
    n_dup = np.zeros(n, np.int64)
    n_chars = np.zeros(n, np.int64)
    n_dup_chars = np.zeros(n, np.int64)
    n_bi = np.zeros(n, np.int64)
    top_bi = np.zeros(n, np.int64)
    for i, t in enumerate(texts):
        t = t or ""
        counts: dict[str, int] = {}
        for line in t.split("\n"):
            s = line.strip(_TRIM)
            if s:
                counts[s] = counts.get(s, 0) + 1
        n_lines[i] = sum(counts.values())
        n_chars[i] = sum(len(l) * c for l, c in counts.items())
        n_dup[i] = sum(c for c in counts.values() if c > 1)
        n_dup_chars[i] = sum(len(l) * c for l, c in counts.items() if c > 1)
        ws = sql_tokens(t)
        if len(ws) > 1:
            bc: dict[tuple, int] = {}
            for a, b in zip(ws, ws[1:]):
                bc[(a, b)] = bc.get((a, b), 0) + 1
            n_bi[i] = len(ws) - 1
            top_bi[i] = max(bc.values())
    return pa.table({
        key: batch[key],
        "n_lines": pa.array(n_lines), "n_dup_lines": pa.array(n_dup),
        "n_line_chars": pa.array(n_chars),
        "n_dup_line_chars": pa.array(n_dup_chars),
        "n_bigrams": pa.array(n_bi), "top_bigram_count": pa.array(top_bi),
    })


# ---------------------------------------------------------------------------
# benchmark decontamination (n-gram overlap rule)
# ---------------------------------------------------------------------------

def _word_ngram_hashes(text: str, n: int) -> set:
    from .vocab import sql_tokens

    toks = sql_tokens(text)
    out = set()
    for i in range(len(toks) - n + 1):
        out.add(hashlib.blake2b(" ".join(toks[i:i + n]).encode(),
                                digest_size=8).digest())
    return out


def decontaminate(ds, benchmark_ds, key: str = "doc_id", col: str = "text",
                  bench_col: str = "text", n: int = 13):
    """Flag training documents that share any word ``n``-gram with a
    benchmark/eval set (the public 13-gram decontamination rule used
    for GPT-3-style training corpora).

    → Dataset(key, n_contaminated_ngrams, is_contaminated).

    Shape: the benchmark side is the SMALL side by definition — its
    n-gram hash set is collected once (bounded by benchmark size) and
    broadcast via ``ray.put``; the corpus side is one streaming
    ``map_batches`` membership pass.  Deterministic (blake2b hashes,
    the shared ``[^a-z]+`` tokenizer).  The n-gram rows are counted
    before they are collected: past ``BENCH_NGRAM_LIMIT`` the call
    fails loudly instead of pulling a corpus-sized "benchmark" into
    driver memory."""
    import ray

    bench_grams = benchmark_ds.select_columns([bench_col]).map_batches(
        lambda b: pa.table({"g": pa.array(
            [h for t in b[bench_col].to_pylist()
             for h in _word_ngram_hashes(t or "", n)], pa.binary())}),
        batch_format="pyarrow").materialize()
    n_grams = bench_grams.count()
    if n_grams > BENCH_NGRAM_LIMIT:
        raise ValueError(
            f"decontaminate: the benchmark side has {n_grams} {n}-grams, "
            f"more than BENCH_NGRAM_LIMIT {BENCH_NGRAM_LIMIT}; pass the "
            "benchmark set (the small side) as benchmark_ds")
    bench = frozenset(r["g"] for r in bench_grams.take_all())
    ref = ray.put(bench)

    def flag(b: pa.Table) -> pa.Table:
        bset = ray.get(ref)
        keys, hits = [], []
        for k, t in zip(b[key].to_pylist(), b[col].to_pylist()):
            keys.append(k)
            hits.append(sum(1 for h in _word_ngram_hashes(t or "", n)
                            if h in bset))
        return pa.table({
            key: pa.array(keys),
            "n_contaminated_ngrams": pa.array(hits, pa.int64()),
            "is_contaminated": pa.array([h > 0 for h in hits], pa.bool_()),
        })

    return ds.select_columns([key, col]).map_batches(
        flag, batch_format="pyarrow")


_SENT_ENDERS = re.compile(r"[.!?]+")
_READ_WORD = re.compile(r"[a-z0-9']+")


def readability_batch(batch: pa.Table, key: str = "doc_id",
                      col: str = "text") -> pa.Table:
    """LIX-style readability signals per doc, integer-exact so the SQL
    oracle re-derives them bit-for-bit: sentence-ender runs, word
    tokens, long words (≥7 chars), and ``lix_milli`` =
    ⌊1000·(words/sentences + 100·long/words)⌋ (Björnsson's LIX ×1000;
    both divisions are single IEEE ops on identical ints).  One
    streaming batch map — the quality-gate companion to
    `gopher_repetition_batch`."""
    import math

    texts = batch[col].to_pylist()
    n_sent = np.empty(len(texts), np.int64)
    n_words = np.empty(len(texts), np.int64)
    n_long = np.empty(len(texts), np.int64)
    lix = np.empty(len(texts), np.int64)
    for i, t in enumerate(texts):
        t = (t or "").lower()
        s = len(_SENT_ENDERS.findall(t))
        words = _READ_WORD.findall(t)
        w = len(words)
        lw = sum(1 for x in words if len(x) >= 7)
        n_sent[i] = s
        n_words[i] = w
        n_long[i] = lw
        lix[i] = (math.floor(1000.0 * (w / max(s, 1) + 100.0 * lw / w))
                  if w else 0)
    return pa.table({key: batch[key],
                     "n_sentences": pa.array(n_sent, pa.int64()),
                     "n_words": pa.array(n_words, pa.int64()),
                     "n_long_words": pa.array(n_long, pa.int64()),
                     "lix_milli": pa.array(lix, pa.int64())})


_SENT_RE = re.compile(r"[^.!?]+[.!?]*")
_SENT_TRIM = " \t\r\n\f\v"


def split_sentences_batch(batch: pa.Table, key: str = "doc_id",
                          col: str = "text") -> pa.Table:
    """Explode documents into sentence rows under one deterministic,
    RE2-compatible rule (so a SQL oracle can replay it exactly):
    sentences are the non-overlapping matches of ``[^.!?]+[.!?]*``
    (a run of non-terminators plus its trailing terminators), trimmed
    of ASCII whitespace.  Leading bare terminator runs are skipped by
    the regex on both sides identically.

    → (key, sent_idx, sentence, n_chars); streaming flat explode, no
    shuffle.  Compiled module-level regex, flat Arrow builders."""
    keys_in = batch[key].to_pylist()
    texts = batch[col].to_pylist()
    out_keys: list = []
    idxs: list[int] = []
    sents: list[str] = []
    for k, txt in zip(keys_in, texts):
        for i, m in enumerate(_SENT_RE.findall(txt or "")):
            out_keys.append(k)
            idxs.append(i)
            sents.append(m.strip(_SENT_TRIM))
    return pa.table({
        key: pa.array(out_keys, batch[key].type),
        "sent_idx": pa.array(idxs, pa.int64()),
        "sentence": pa.array(sents, pa.string()),
        "n_chars": pa.array([len(s) for s in sents], pa.int64()),
    })


def split_sentences(ds, key: str = "doc_id", col: str = "text"):
    """Sentence explode over a Dataset (RAG / sentence-dedup prep)."""
    return ds.map_batches(lambda b: split_sentences_batch(b, key, col),
                          batch_format="pyarrow")


def assign_split_batch(batch: pa.Table, col: str = "text",
                       train_hi: str = "cc", val_hi: str = "e6"
                       ) -> pa.Table:
    """Deterministic train/val/test split assignment by content digest
    — the standard leakage-safe corpus partitioner (same doc always
    lands in the same split, across runs, shards and cluster sizes;
    near-80/10/10 because md5 is uniform).

    The split rule is a plain hex-string comparison on ``md5(text)``
    (train < 'cc' ≈ 204/256, val < 'e6' ≈ 230/256, else test) so the
    DuckDB oracle is the literal same CASE expression — no hex→int
    conversion anywhere."""
    texts = batch[col].to_pylist()
    out = []
    for t in texts:
        h = hashlib.md5((t or "").encode("utf-8")).hexdigest()
        out.append("train" if h < train_hi else
                   "val" if h < val_hi else "test")
    return batch.append_column("split", pa.array(out, pa.string()))


def rolling_hashes(data: bytes, window: int, mod: int = (1 << 61) - 1,
                   base: int = 257) -> "list[int]":
    """All rolling polynomial window hashes of ``data`` (one per end
    position ``window-1 .. n-1``; empty when ``n < window``) — the
    per-position layer under :func:`rolling_fingerprint`'s min."""
    n = len(data)
    if n < window:
        return []
    out = []
    h = 0
    pw = pow(base, window - 1, mod)
    for i, b in enumerate(data):
        if i >= window:
            h = (h - data[i - window] * pw) % mod
        h = (h * base + b) % mod
        if i >= window - 1:
            out.append(h)
    return out


def winnow_select(hv: np.ndarray, w: int) -> np.ndarray:
    """Pure winnowing selection: indices into ``hv`` picked as the
    RIGHTMOST minimum of each window of ``w`` consecutive hashes,
    deduplicated ascending.  Empty when ``len(hv) < w``."""
    from numpy.lib.stride_tricks import sliding_window_view

    if len(hv) < w:
        return np.empty(0, np.int64)
    win = sliding_window_view(hv, w)
    right = (w - 1) - np.argmin(win[:, ::-1], axis=1)
    return np.unique(np.arange(len(win), dtype=np.int64) + right)


def winnow_fingerprints(ds, key: str = "doc_id", col: str = "text",
                        k: int = 16, w: int = 4,
                        mod: int = (1 << 61) - 1, base: int = 257):
    """MOSS-style winnowing fingerprint selection (Schleimer, Wilkerson
    & Aiken 2003, public algorithm): over the k-gram rolling-hash
    sequence, each window of ``w`` consecutive hashes selects its
    minimum (ties → RIGHTMOST, the paper's rule), selections dedup to
    one row per position.  Guarantee: two documents sharing any
    substring of length ≥ k + w - 1 share at least one fingerprint —
    the local, position-aware dedup layer between whole-doc hashing
    and shingle MinHash.

    Documents with fewer than ``w`` k-gram hashes (length < k+w-1)
    emit nothing — the caller's short-doc path is whole-doc hashing.

    Streaming flat explode, no shuffle.  → Dataset(key, pos, fp):
    ``pos`` is the k-gram's END byte offset, ``fp`` the uint64 hash.
    """

    def batch_fn(b: pa.Table) -> pa.Table:
        keys, poss, fps = [], [], []
        kt = b[key].to_pylist()
        for kid, t in zip(kt, b[col].to_pylist()):
            hv_list = rolling_hashes((t or "").encode("utf-8"), k,
                                     mod, base)
            if len(hv_list) < w:
                continue
            hv = np.array(hv_list, np.uint64)
            sel = winnow_select(hv, w)
            keys.extend([kid] * len(sel))
            poss.append(sel + (k - 1))
            fps.append(hv[sel])
        if not keys:
            return pa.table({key: pa.array([], b[key].type),
                             "pos": pa.array([], pa.int64()),
                             "fp": pa.array([], pa.uint64())})
        return pa.table({
            key: pa.array(keys, b[key].type),
            "pos": pa.array(np.concatenate(poss), pa.int64()),
            "fp": pa.array(np.concatenate(fps), pa.uint64())})

    return ds.map_batches(batch_fn, batch_format="pyarrow")
