"""The HTML grammar: one deterministic byte-offset scanner.

``scan`` is the only HTML scan loop in the engine.  It walks the raw
``html`` bytes with one master pattern and reports each construct to
callbacks with its exact byte span, so spans are the engine's
"bounding boxes" (reference ``bounding_box``,
``src/page_iterator.rs:110-134``).  ``segment()`` passes its stack
machine's methods straight in (no token objects on the hot path);
``tokenize`` collects the same constructs as tuples for the other
consumers (links, tables, structured data, templates, robots).

Error recovery is specified, not best-effort: a ``<`` that does not
start a well-formed tag, comment, declaration or processing instruction
is literal text; an unterminated comment, declaration, processing
instruction or raw-text element runs to EOF.  The sequential oracle and
the distributed stage share this scanner, so recovery decisions are
identical everywhere (SURVEY §7 hard part (b)).

Tokens are tuples (cheap, no classes):
    ("text", start, end)                      raw text bytes [start, end)
    ("start", start, end, tag, attrs_bytes, self_closing)
    ("end", start, end, tag)
    ("comment" | "decl" | "pi", start, end)   dropped by consumers
Tag names are lower-cased ASCII strings.
"""

from __future__ import annotations

import re
from bisect import bisect_left

TokenT = tuple

#: one alternative per construct, tried in order at each position;
#: ``m.lastindex`` names the one that matched (None: a literal '<').
#: A tag is '<', optional '/', name, attr soup (quote-aware so '>'
#: inside quotes is not a terminator), optional trailing '/', '>'.
#: The name is matched atomically (captured in a lookahead, consumed by
#: backreference): giving name bytes back to the soup cannot change
#: the outcome, and retrying it would make one failed tag quadratic.
_OTHER_PAT = (
    rb"([^<]+)"                                     # 1 text
    rb"|(<!--(?:.*?-->|.*))"                        # 2 comment
    rb"|(<![^>]*>?)"                                # 3 declaration
    rb"|(<\?[^>]*>?)"                               # 4 processing instruction
)
_SCAN_RE = re.compile(
    _OTHER_PAT
    + rb"|<(/?)(?=([a-zA-Z][a-zA-Z0-9:_-]*))\6"     # 5 '/', 6 name
    rb"((?:\"[^\"]*\"|'[^']*'|[^>\"'])*?)(/?)>"     # 7 attrs, 8 '/'
    rb"|<",                                         # literal '<'
    re.S,
)
#: the same grammar without the tag alternative, for positions where
#: ``_guarded_match`` shows that no tag can close
_NO_TAG_RE = re.compile(_OTHER_PAT + rb"|<", re.S)
_TEXT, _COMMENT, _DECL, _PI, _TAG = 1, 2, 3, 4, 8
_OTHER_KINDS = {_COMMENT: "comment", _DECL: "decl", _PI: "pi"}
_TAG_START = re.compile(rb"</?[a-zA-Z]")
_SOUP_STOP = re.compile(rb"[>\"']")

#: Elements whose content is raw text (no markup parsed inside).
RAW_TEXT_ELEMENTS = frozenset({"script", "style", "textarea", "title", "xmp", "noscript"})

#: Raw-text elements whose content is still *text* for extraction
#: (title/textarea); script/style/xmp/noscript content is dropped.
RAW_TEXT_KEPT = frozenset({"title", "textarea"})

_RAW_END_RES: dict[str, re.Pattern] = {
    t: re.compile(rb"</" + t.encode() + rb"(?:\s[^>]*)?>", re.I) for t in RAW_TEXT_ELEMENTS
}

#: decoded-tag-name cache (name bytes → lowercase str), shared per
#: worker process; bounded so hostile unique-tag documents can't grow it
_TAG_NAMES: dict[bytes, str] = {}

#: deadline-monitor check cadence, in scanned constructs (a few KiB of
#: html per check — cheap enough to be invisible, fine-grained enough to
#: bound overrun to milliseconds)
_CHECK_EVERY = 256


def scan(html: bytes, on_text, on_start, on_end, on_other=None, monitor=None) -> None:
    """Scan ``html`` once, calling
    ``on_text(start, end)``, ``on_start(tag, attrs_bytes, self_closing,
    start, end)``, ``on_end(tag, start, end)`` and, when given,
    ``on_other(kind, start, end)`` for comments, declarations and
    processing instructions, in document order.  Never raises on
    malformed input (typed per-row errors happen above this layer,
    mirroring reference src/error.rs — parse never aborts the job).

    ``monitor`` (xtract.monitor.Monitor): checked every ``_CHECK_EVERY``
    constructs — deadline expiry aborts the scan mid-document via
    ``ExtractionCancelled`` (TessMonitor analogue, reference
    ``src/monitor.rs:30-37``).  Progress tracks the byte position over
    0-90% of the document's budget; classify/assemble take the rest."""
    n = len(html)
    pos = 0
    match = _SCAN_RE.match
    guarded = False
    # a raw-text end tag ends in '>': searching past the last one would
    # only rescan to EOF at every '</script' without a '>'
    gt_end = html.rfind(b">") + 1
    ticks = 0
    while pos < n:
        if monitor is not None:
            ticks += 1
            if not ticks % _CHECK_EVERY:
                monitor.set_progress(90 * pos // n)
                monitor.check()
        m = match(html, pos)
        end = m.end()
        kind = m.lastindex
        if kind == _TEXT:
            on_text(pos, end)
        elif kind == _TAG:
            closing, name_b, attrs_b, selfclose = m.group(5, 6, 7, 8)
            tag = _TAG_NAMES.get(name_b)
            if tag is None:
                tag = name_b.decode("ascii").lower()
                if len(_TAG_NAMES) < 4096:  # bounded vs hostile tag spray
                    _TAG_NAMES[name_b] = tag
            if closing:
                on_end(tag, pos, end)
            else:
                on_start(tag, attrs_b, bool(selfclose), pos, end)
                if tag in RAW_TEXT_ELEMENTS and not selfclose:
                    em = _RAW_END_RES[tag].search(html, end, gt_end)
                    # unterminated raw element → content to EOF
                    body_end = n if em is None else em.start()
                    if tag in RAW_TEXT_KEPT and body_end > end:
                        on_text(end, body_end)
                    if em is None:
                        on_end(tag, n, n)
                        break
                    end = em.end()
                    on_end(tag, body_end, end)
        elif kind is None:
            on_text(pos, end)  # recovery rule: literal '<' is text
            if not guarded and _TAG_START.match(html, pos):
                # a tag failed to close: its walk reached EOF or an
                # unpaired quote, and every later '<' on that walk
                # would repeat it — decide them all up front instead
                match = _guarded_match(html)
                guarded = True
        elif on_other is not None:
            on_other(_OTHER_KINDS[kind], pos, end)
        pos = end
    if monitor is not None:
        monitor.set_progress(90)
        monitor.check()


def _guarded_match(html: bytes):
    """``match(html, pos)`` that skips the tag alternative where no tag
    can close.  A tag's attr soup walks unquoted bytes, jumps over
    quoted runs and closes at the first unquoted '>'; it fails at EOF or
    at a quote with no partner after it.  So whether a tag at ``pos``
    closes depends only on the first '>', '"' or "'" at or after
    ``pos``, and one right-to-left pass over those bytes decides it for
    every position, in place of a walk to EOF per '<'."""
    stops = [m.start() for m in _SOUP_STOP.finditer(html)]
    closes = bytearray(len(stops) + 1)  # the last slot stands for EOF
    next_quote: dict[int, int] = {}
    for k in range(len(stops) - 1, -1, -1):
        c = html[stops[k]]
        if c == 0x3E:  # '>'
            closes[k] = 1
        else:
            j = next_quote.get(c)
            closes[k] = 0 if j is None else closes[j + 1]
            next_quote[c] = k
    tag_match, no_tag_match = _SCAN_RE.match, _NO_TAG_RE.match

    def match(s: bytes, pos: int):
        if closes[bisect_left(stops, pos)]:
            return tag_match(s, pos)
        return no_tag_match(s, pos)

    return match


def tokenize(html: bytes) -> list[TokenT]:
    """``scan`` collected into a list of token tuples."""
    out: list[TokenT] = []
    add = out.append
    scan(
        html,
        lambda s, e: add(("text", s, e)),
        lambda tag, attrs_b, selfclose, s, e: add(("start", s, e, tag, attrs_b, selfclose)),
        lambda tag, s, e: add(("end", s, e, tag)),
        lambda kind, s, e: add((kind, s, e)),
    )
    return out


_ATTR_RE = re.compile(
    rb"([a-zA-Z_:][a-zA-Z0-9_:.-]*)\s*(?:=\s*(\"[^\"]*\"|'[^']*'|[^\s\"'>]*))?"
)


def parse_attrs(attrs_b: bytes) -> dict[str, str]:
    """Parse an attribute soup on demand (lazy — most tags never need it).
    First occurrence of a name wins (HTML5 rule)."""
    out: dict[str, str] = {}
    for m in _ATTR_RE.finditer(attrs_b):
        name = m.group(1).decode("ascii", "replace").lower()
        if name in out:
            continue
        v = m.group(2)
        if v is None:
            out[name] = ""
        else:
            if len(v) >= 2 and v[:1] in (b'"', b"'") and v[-1:] == v[:1]:
                v = v[1:-1]
            out[name] = v.decode("utf-8", "replace")
    return out
