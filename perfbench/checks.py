"""Output checks for the xtract benchmark.

Each check compares the program's output with what the generator
planted, or with a result computed here from its definition, and
returns a list of problems (empty when the output is right).  None of
them imports ``xtract``.
"""

from __future__ import annotations

import hashlib
import xml.etree.ElementTree as ET
from collections import Counter, defaultdict
from datetime import datetime, timedelta

_EPOCH = datetime(1970, 1, 1)


def _key(url, ts) -> tuple:
    """(url, warc_ts in microseconds) — rows keep the timestamp as a
    datetime or as an int depending on how they were read."""
    if isinstance(ts, datetime):
        ts = (ts.replace(tzinfo=None) - _EPOCH) // timedelta(microseconds=1)
    return url, ts


def rows_by_key(table) -> dict:
    """Arrow table of extracted rows → {(url, ts): row dict}; a key seen
    twice is kept as a list so the one-row-per-input check can see it."""
    out: dict = {}
    for row in table.to_pylist():
        k = _key(row["url"], row.get("warc_ts"))
        out.setdefault(k, []).append(row)
    return out


def check_extracted(pages, table) -> list:
    """Every extracted row against its page's expectations."""
    errs = []
    got = rows_by_key(table)
    want = Counter(_key(p.url, p.warc_ts) for p in pages)
    if table.num_rows != len(pages):
        errs.append(f"{table.num_rows} output rows for {len(pages)} input rows")
    for k, n in want.items():
        if len(got.get(k, ())) != n:
            errs.append(f"{k}: {len(got.get(k, ()))} output rows, want {n}")
    for p in pages:
        rows = got.get(_key(p.url, p.warc_ts))
        if not rows:
            continue
        errs += [f"{p.url} ({p.family}): {e}" for e in _check_row(p, rows[0])]
        if len(errs) > 50:
            break
    return errs


def _check_row(p, row) -> list:
    errs = []
    text = row["content_text"] or ""
    if row["status"] != p.status:
        errs.append(f"status {row['status']!r}, want {p.status!r}")
    if p.exact is not None and text != p.exact:
        errs.append(f"text {text[:60]!r}... differs from the exact expected text")
    pos = 0
    for u in p.units:
        i = text.find(u, pos)
        if i < 0:
            where = "out of order" if u in text else "missing"
            errs.append(f"planted unit {where}: {u[:50]!r}")
            break
        pos = i + len(u)
    for b in p.boiler:
        if b in text:
            errs.append(f"boilerplate leaked: {b!r}")
    errs += check_spans(row["content_spans"] or [], p.doc_len)
    return errs


def check_spans(spans, doc_len: int) -> list:
    prev = 0
    for sp in spans:
        s, e = (sp["start"], sp["end"]) if isinstance(sp, dict) else sp
        if not (prev <= s < e <= doc_len):
            return [f"span ({s}, {e}) after {prev} breaks order or leaves [0, {doc_len}]"]
        prev = e
    return []


def checksum(rows, dedup: bool = True) -> str:
    """Corpus checksum from its definition: for each url keep the
    earliest capture (every row when ``dedup`` is false), sum
    sha256(url ‖ NUL ‖ content_text) mod 2^256; rendered as
    "<rows summed>:<64 hex digits>"."""
    if dedup:
        best: dict = {}
        for url, ts, text in rows:
            if url not in best or ts < best[url][0]:
                best[url] = (ts, text)
        kept = [(url, text) for url, (_, text) in best.items()]
    else:
        kept = [(url, text) for url, _, text in rows]
    total = 0
    for url, text in kept:
        h = hashlib.sha256(url.encode() + b"\x00" + (text or "").encode()).digest()
        total = (total + int.from_bytes(h, "big")) % (1 << 256)
    return f"{len(kept)}:{total:064x}"


def table_checksum(table, dedup: bool = True) -> str:
    return checksum((_key(r["url"], r["warc_ts"]) + (r["content_text"],)
                     for r in table.select(["url", "warc_ts", "content_text"]).to_pylist()),
                    dedup)


def check_same(ray_table, seq_table) -> list:
    """The Ray output equals the in-process output for every row."""
    cols = ["url", "warc_ts", "content_text", "content_spans", "status"]
    a = {_key(r["url"], r["warc_ts"]): r for r in ray_table.select(cols).to_pylist()}
    b = {_key(r["url"], r["warc_ts"]): r for r in seq_table.select(cols).to_pylist()}
    if a.keys() != b.keys():
        return [f"Ray rows {len(a)} and in-process rows {len(b)} cover different keys"]
    bad = [k for k in a if a[k] != b[k]]
    return [f"{len(bad)} rows differ between Ray and in-process, e.g. {bad[0]}"] if bad else []


def check_manifests(manifests, n_input: int) -> list:
    n = sum(int(m["n_rows"]) for m in manifests)
    errs = [] if n == n_input else [f"manifests count {n} rows, input has {n_input}"]
    if not all(m.get("complete") for m in manifests):
        errs.append("a manifest is not marked complete")
    return errs


def check_layout(pages, rows, rendered) -> list:
    """Hierarchy rows (levels block/para/line/word) and the hOCR, ALTO and
    TSV payloads of the same pages."""
    errs = []
    blocks: dict = {}
    paras: Counter = Counter()
    lines = defaultdict(list)
    words = defaultdict(list)
    for r in rows:
        k = (r["url"], r["block_id"])
        lvl = r["level"]
        if lvl == "block":
            if k in blocks:
                errs.append(f"{k}: two block rows")
            blocks[k] = r["text"]
        elif lvl == "para":
            paras[k] += 1
        elif lvl == "line":
            lines[k].append(r)
        elif lvl == "word":
            words[k].append(r)
    if set(paras) != set(blocks) or any(v != 1 for v in paras.values()):
        errs.append(f"{len(paras)} blocks with para rows, {len(blocks)} block rows; "
                    "want one para row per block row")
    for k, text in blocks.items():
        for r in lines[k] + words[k]:
            if text[r["span_start"]:r["span_end"]] != r["text"]:
                errs.append(f"{k} {r['level']} {r['text'][:30]!r} is not block text "
                            f"[{r['span_start']}:{r['span_end']}]")
                break
        by_line = defaultdict(list)
        for r in words[k]:
            by_line[r["line_id"]].append((r["word_id"], r["text"]))
        for ln in lines[k]:
            joined = " ".join(t for _, t in sorted(by_line.get(ln["line_id"], [])))
            if joined != ln["text"]:
                errs.append(f"{k} words {joined[:30]!r} do not join into line {ln['text'][:30]!r}")
                break
        if len(errs) > 20:
            return errs
    per_url = defaultdict(list)
    for (url, bid), text in blocks.items():
        per_url[url].append((bid, text))
    for p in pages:
        doc = "\n\n".join(t for _, t in sorted(per_url.get(p.url, [])))
        pos = 0
        for u in p.units:
            i = doc.find(u, pos)
            if i < 0:
                errs.append(f"{p.url}: planted unit missing from blocks: {u[:40]!r}")
                break
            pos = i + len(u)
    errs += check_rendered(blocks, words, rendered, len(pages))
    return errs


def _block_words(words, k) -> list:
    return [r["text"] for r in sorted(words.get(k, []), key=lambda r: (r["line_id"], r["word_id"]))]


def check_rendered(blocks, words, rendered, n_pages: int) -> list:
    """``rendered``: rows of (url, format, payload), one per page and
    format.  ALTO and hOCR must parse as XML and carry each block's words
    in order; TSV must list each block's id and text."""
    errs = []
    seen = Counter()
    ids_of = defaultdict(list)
    for url, bid in sorted(blocks):
        ids_of[url].append(bid)
    for r in rendered:
        if len(errs) > 20:
            break
        url, fmt, payload = r["url"], r["format"], r["payload"]
        seen[fmt] += 1
        ids = ids_of[url]
        if fmt in ("alto", "hocr"):
            try:
                root = ET.fromstring(payload)
            except ET.ParseError as exc:
                errs.append(f"{url}: {fmt} does not parse: {exc}")
                continue
            if fmt == "alto":
                got = {int(tb.get("ID")[1:]): [s.get("CONTENT") for s in tb.iter("String")]
                       for tb in root.iter("TextBlock")}
            else:
                got = {}
                for div in root.iter("div"):
                    if div.get("class") == "ocr_carea":
                        got[int(div.get("id").split("_")[1])] = [
                            w for sp in div.iter("span") for w in (sp.text or "").split(" ") if w]
            want = {bid: _block_words(words, (url, bid)) for bid in ids}
            if got != want:
                errs.append(f"{url}: {fmt} words differ from the word rows")
        elif fmt == "tsv":
            lines = payload.split("\n")[1:]
            got = [(int(ln.split("\t")[0]), ln.split("\t", 6)[6]) for ln in lines]
            want = [(bid, blocks[(url, bid)].replace("\t", " ").replace("\n", "\\n"))
                    for bid in ids]
            if got != want:
                errs.append(f"{url}: tsv rows differ from the block rows")
    for fmt in ("hocr", "alto", "tsv"):
        if seen[fmt] != n_pages:
            errs.append(f"{seen[fmt]} {fmt} payloads for {n_pages} pages")
    return errs
