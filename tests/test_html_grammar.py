"""One HTML grammar: ``tokenize()`` covers the input exactly, ``segment()``
agrees with a Segmenter fed from ``tokenize()``, and a golden digest pins
segmentation and extraction output over a fixed synthesized corpus."""

from __future__ import annotations

import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from xtract.config import ExtractionConfig
from xtract.extract import extract_document
from xtract.html_tokenizer import tokenize
from xtract.segment import Block, Segmenter, segment
from xtract.synth import FAMILY_WHEEL, synth_page_rows

#: raw-text elements whose body produces no token at all
_DROPPED_RAW = {"script", "style", "xmp", "noscript"}

_SOUP_PIECES = [
    b"<", b"<!", b"<!--", b"-->", b"--", b"<?", b"?>", b"</", b">", b"/>", b"/",
    b'"', b"'", b"=", b" ", b"\n", b"-", b"x", b"p", b"a", b"b", b"div", b"br",
    b"script", b"SCRIPT", b"style", b"xmp", b"noscript", b"title", b"textarea",
    b"<script>", b"</script>", b"</SCRIPT foo>", b"<style>", b"</style >",
    b"<title>", b"</title>", b"<textarea>", b"</textarea>", b"<xmp>",
    b"</xmp>", b"<noscript>", b"</noscript>", b"<!doctype html>", b"&amp;",
    b"\xc3\xa9", b"\xff",
]

byte_soup = st.one_of(
    st.lists(st.sampled_from(_SOUP_PIECES), max_size=40).map(b"".join),
    st.binary(max_size=200),
)


@settings(max_examples=400, deadline=None)
@given(byte_soup)
def test_tokens_tile_the_input(html):
    """Spans are ordered, never overlap and cover [0, n); the only gaps
    are the bodies of dropped raw-text elements."""
    n = len(html)
    toks = list(tokenize(html))
    prev_end = 0
    prev = None
    for tok in toks:
        kind, start, end = tok[0], tok[1], tok[2]
        assert start <= end <= n
        if start != prev_end:
            assert start > prev_end, (tok, prev)
            # a gap is legal only between <script|style|xmp|noscript> and
            # its end tag (or EOF for an unterminated one)
            assert prev is not None and prev[0] == "start", (tok, prev)
            assert prev[3] in _DROPPED_RAW and not prev[5], (tok, prev)
            assert kind == "end" and tok[3] == prev[3], (tok, prev)
        if start == end:
            # the only empty token is the synthetic end of a raw-text
            # element that runs to EOF
            assert kind == "end" and start == n, tok
        prev_end = end
        prev = tok
    assert prev_end == n


def _segment_via_tokens(html: bytes) -> list[Block]:
    seg = Segmenter(html)
    for tok in tokenize(html):
        if tok[0] == "text":
            seg.text_run(tok[1], tok[2])
        elif tok[0] == "start":
            seg.start_tag(tok[3], tok[4], tok[5], tok[1], tok[2])
        elif tok[0] == "end":
            seg.end_tag(tok[3], tok[1], tok[2])
    return seg.finish()


def _block_record(b: Block) -> list:
    return [getattr(b, s) for s in Block.__slots__]


@settings(max_examples=300, deadline=None)
@given(byte_soup)
def test_segment_uses_the_tokenizer_grammar(html):
    got = [_block_record(b) for b in segment(html)]
    want = [_block_record(b) for b in _segment_via_tokens(html)]
    assert got == want


# -- golden digest -------------------------------------------------------------

_TRICKY = [
    b"",
    b"plain text, no markup at all",
    b"x<!-- never closed <p>still comment</p>",
    b"<p>before</p><!doctype html <p decl runs to EOF",
    b"<p>before</p><?xml version='1.0' <p pi runs to EOF",
    b"<p>a<!-x>b</p><p>c<!>d</p><p>e<?>f</p>",
    b"<script>var s = '</p>';</SCRIPT foo><p>after script</p>",
    b"<style>p{}</style ><p>after style</p><xmp><b>raw</b></XMP><p>tail</p>",
    b"<noscript><p>no</p></noscript><p>yes</p>",
    b"<title>My <Page</title><textarea>a <b>b</b></textarea><p>body text</p>",
    b"<p>unterminated <script>var x = 1; <p>never seen",
    b"<p>unterminated <title>title runs to EOF",
    b"<p>lit < bracket and <3 and a<b and </ 5 and <!x and <? end</p>",
    b'<a href="x>y" title=\'a>b\'>quoted gt</a><p>next paragraph here</p>',
    b"<DIV><P>Upper case tags<BR/>next line</P></DIV><script/>kept text",
    b"<table><tr><td>cell one<td>cell two</table><ul><li>one<li>two</ul>",
    b"<p>caf\xc3\xa9 r\xc3\xa9sum\xc3\xa9 &amp; &lt;tag&gt; \xff\xfe bad</p>",
    b"<div hidden>hidden text</div><dialog>closed</dialog><p>shown text</p>",
    b"<p>" + b"<b>" * 50 + b"deep nesting" + b"</b>" * 50 + b"</p>",
]


def _golden_pages() -> list[tuple[bytes | None, str | None, str]]:
    words = ("alpha beta gamma delta epsilon zeta eta theta iota kappa lambda "
             "mu nu xi omicron pi rho sigma tau upsilon phi chi psi omega").split()
    pages = []
    seen = set()
    for doc_id in range(64):
        text = " ".join(words[(doc_id * 7 + i * 3) % len(words)] for i in range(40))
        for row in synth_page_rows(doc_id, text, "en"):
            seen.add(row["url"].split("//")[1].split(".")[0])
            pages.append((row["html"], row["text"], row["lang"]))
    assert seen == set(FAMILY_WHEEL), set(FAMILY_WHEEL) - seen
    pages.extend((h, None, "en") for h in _TRICKY)
    return pages


#: sha256 of segment() blocks and extract_document() content_text /
#: content_spans over _golden_pages(), taken before the tokenizer and the
#: segmenter shared one scanner
GOLDEN_SHA256 = "448f64a570f0d7a5c2e0c0ce854e532f4fb47360f12fc8fcab9c91d5c00364bd"


def test_golden_segment_and_extract_digest():
    cfg = ExtractionConfig()
    h = hashlib.sha256()
    for html, text, lang in _golden_pages():
        if html is not None:
            blocks = [_block_record(b) for b in segment(html)]
            h.update(json.dumps(blocks, ensure_ascii=True).encode())
        r = extract_document(html, text, lang, cfg)
        h.update(json.dumps([r["status"], r["content_text"], r["content_spans"]],
                            ensure_ascii=True).encode())
    assert h.hexdigest() == GOLDEN_SHA256
