"""Tokenizer: byte offsets, recovery rules, raw-text elements."""

from xtract.html_tokenizer import parse_attrs, tokenize


def toks(b: bytes):
    return list(tokenize(b))


def test_offsets_cover_input():
    html = b"<p>hello <b>world</b></p>"
    ts = toks(html)
    # text spans must slice back to the exact source bytes
    assert html[ts[1][1]:ts[1][2]] == b"hello "
    assert [t[0] for t in ts] == ["start", "text", "start", "text", "end", "end"]


def test_literal_lt_is_text():
    ts = toks(b"a < b and a <3 done")
    assert all(t[0] == "text" for t in ts)
    joined = b"".join(b"a < b and a <3 done"[t[1]:t[2]] for t in ts)
    assert joined == b"a < b and a <3 done"


def test_unterminated_comment_to_eof():
    ts = toks(b"x<!-- never closed")
    assert ts[-1][0] == "comment"


def test_script_content_dropped():
    ts = toks(b"<script>var x = '<p>not a tag</p>';</script>after")
    kinds = [t[0] for t in ts]
    assert "text" in kinds
    # the only text token is 'after'
    texts = [t for t in ts if t[0] == "text"]
    assert len(texts) == 1


def test_title_content_kept():
    ts = toks(b"<title>My <Page</title>")
    texts = [t for t in ts if t[0] == "text"]
    assert len(texts) == 1
    assert b"<title>My <Page</title>"[texts[0][1]:texts[0][2]] == b"My <Page"


def test_unterminated_script_to_eof():
    ts = toks(b"<script>forever")
    assert ts[-1][0] == "end" and ts[-1][3] == "script"


def test_attrs_with_gt_in_quotes():
    ts = toks(b'<a href="x>y" title=\'a>b\'>t</a>')
    assert ts[0][0] == "start" and ts[0][3] == "a"
    attrs = parse_attrs(ts[0][4])
    assert attrs["href"] == "x>y" and attrs["title"] == "a>b"


def test_attr_first_occurrence_wins():
    assert parse_attrs(b' id="a" id="b"')["id"] == "a"


def test_self_closing_and_case():
    ts = toks(b"<BR/><IMG src=x>")
    assert ts[0][3] == "br" and ts[0][5] is True
    assert ts[1][3] == "img"


def test_unterminated_decl_and_pi_to_eof():
    # no '>' after '<!' / '<?': the construct swallows the rest,
    # markup-looking bytes included
    html = b"a<!doctype html <p b"
    assert toks(html) == [("text", 0, 1), ("decl", 1, len(html))]
    html = b"a<?xml version='1.0' <p b"
    assert toks(html) == [("text", 0, 1), ("pi", 1, len(html))]


def test_short_bang_is_decl_not_comment():
    # '<!-' without the second '-' is a declaration ending at '>'
    assert toks(b"<!-x>y") == [("decl", 0, 5), ("text", 5, 6)]
    assert toks(b"<!-->z-->w") == [("comment", 0, 9), ("text", 9, 10)]


def test_raw_text_end_tag_is_case_insensitive_with_attrs():
    html = b"<script>if (a</b) x();</SCRIPT foo>after"
    ts = toks(html)
    assert [t[0] for t in ts] == ["start", "end", "text"]
    assert ts[1][3] == "script" and html[ts[1][1]:ts[1][2]] == b"</SCRIPT foo>"
    assert html[ts[2][1]:ts[2][2]] == b"after"


def _growth(make, n: int) -> float:
    """Process-time ratio of tokenizing ``make(4 * n)`` to ``make(n)``,
    best of 3 each: about 4 for a linear scan, about 16 for a quadratic
    one, and little moved by other load on the host."""
    import time

    def best(html: bytes) -> float:
        times = []
        for _ in range(3):
            t0 = time.process_time()
            toks(html)
            times.append(time.process_time() - t0)
        return max(min(times), 1e-4)

    return best(make(4 * n)) / best(make(n))


def test_unclosable_tags_are_literal_text_in_linear_time():
    # a '<' + name whose attr soup reaches EOF, or a quote with no
    # partner, before any '>' is literal text; deciding that must not
    # rescan to EOF at every such '<' (8 KB of it once took 1.4 s)
    for tail in (b"", b'"', b'">'):
        growth = _growth(lambda k: b"<a" * k + tail, 25_000)
        assert growth < 10, (tail, growth)
    growth = _growth(lambda k: b"<" + b"a" * (2 * k) + b'">', 25_000)
    assert growth < 10, growth
    base = b"<a" * 100_000
    for html in (base, base + b'"', base + b'">', b"<" + b"a" * 200_000 + b'">'):
        ts = toks(html)
        assert all(t[0] == "text" for t in ts)
        assert ts[0][1] == 0 and ts[-1][2] == len(html)
        assert all(a[2] == b[1] for a, b in zip(ts, ts[1:]))
    assert toks(base)[:4] == [
        ("text", 0, 1), ("text", 1, 2), ("text", 2, 3), ("text", 3, 4)]


def test_unterminated_raw_text_end_search_is_linear():
    growth = _growth(lambda k: b"<script>" + b"</script x" * k, 5_000)
    assert growth < 10, growth
    html = b"<script>" + b"</script x" * 20_000
    assert toks(html) == [("start", 0, 8, "script", b"", False),
                          ("end", len(html), len(html), "script")]


def test_tags_after_an_unclosable_tag_still_close():
    # the first '<a' fails on its unpaired quote; later tags, including
    # one inside that tag's quoted run, are decided on their own
    assert toks(b'<a "x <b>y</b>') == [
        ("text", 0, 1), ("text", 1, 6), ("start", 6, 9, "b", b"", False),
        ("text", 9, 10), ("end", 10, 14, "b")]
    assert toks(b'<a "<b>" "<i>z') == [
        ("text", 0, 1), ("text", 1, 4), ("start", 4, 7, "b", b"", False),
        ("text", 7, 10), ("start", 10, 13, "i", b"", False), ("text", 13, 14)]
