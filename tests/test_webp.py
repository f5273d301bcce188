"""Lossless WebP / VP8L codec (ops/webp) + its multimodal
integration: pixel-exact round-trips across every coding feature
(optimal prefix codes, LZ77, color cache, all 14 predictor modes,
cross-color, subtract-green, palette incl. sub-byte bundling), lossy
VP8 / corrupt rejection, planted WebP near-dup recovery through the
Ray pipeline, BMP↔WebP hash parity, WAV/WebP RIFF disambiguation."""

import struct

import numpy as np
import pytest

from xtract.ops.multimodal import _synth_pixels, average_hash
from xtract.ops.webp import decode_webp, encode_webp


def test_roundtrip_entropy_features():
    rng = np.random.default_rng(3)
    px = rng.integers(0, 256, (13, 17, 3), np.uint8)
    smooth = np.tile(rng.integers(0, 256, (1, 17, 3), np.uint8),
                     (13, 1, 1))
    assert np.array_equal(decode_webp(encode_webp(px, use_lz77=False)),
                          px)
    assert np.array_equal(decode_webp(encode_webp(smooth)), smooth)
    assert np.array_equal(decode_webp(encode_webp(px, cache_bits=6)),
                          px)
    assert np.array_equal(
        decode_webp(encode_webp(smooth, cache_bits=8)), smooth)
    assert np.array_equal(
        decode_webp(encode_webp(np.array([[[9, 8, 7]]], np.uint8))),
        np.array([[[9, 8, 7]]], np.uint8))


def test_roundtrip_every_predictor_mode():
    rng = np.random.default_rng(5)
    px = rng.integers(0, 256, (13, 17, 3), np.uint8)
    for mode in range(14):
        out = decode_webp(encode_webp(px, predictor_mode=mode))
        assert np.array_equal(out, px), mode


def test_predictor_top_right_at_right_edge_is_current_row_leftmost():
    """Hand-built 3x2 VP8L stream, predictor mode 3 (TR) everywhere; the
    expected pixels follow RFC 9649 section 4.1 by hand: the rightmost
    column takes the leftmost pixel of the CURRENT row as TR.  Only the
    in-repo entropy coder is used, not its predictor encoder."""
    from xtract.ops.webp import _emit_entropy_image, _Writer

    # residuals, [A, R, G, B]
    res = np.array([[[0, 10, 20, 30], [0, 1, 1, 1], [0, 1, 1, 1]],
                    [[0, 100, 100, 100], [0, 5, 5, 5], [0, 5, 5, 5]]],
                   np.uint8)
    wtr = _Writer()
    wtr.write(3 - 1, 14)
    wtr.write(2 - 1, 14)
    wtr.write(0, 1)  # alpha hint
    wtr.write(0, 3)  # version
    wtr.write(1, 1)  # a transform follows
    wtr.write(0, 2)  # predictor
    wtr.write(2 - 2, 3)  # 4x4 tiles: one mode for the whole image
    modes = np.array([[[255, 0, 3, 0]]], np.uint8)  # mode in green
    _emit_entropy_image(wtr, modes, 0, False, False)
    wtr.write(0, 1)  # end of transforms
    _emit_entropy_image(wtr, res, 0, False, True)
    stream = b"\x2F" + wtr.flush()
    chunk = b"VP8L" + struct.pack("<I", len(stream)) + stream
    chunk += b"\x00" * (len(stream) & 1)
    data = b"RIFF" + struct.pack("<I", len(chunk) + 4) + b"WEBP" + chunk

    # row 0: (0,0) adds ARGB(255,0,0,0), then L; (0,1): T;
    # (1,1): TR = (0,2) = (12,22,32);
    # (1,2): TR = (1,0) = (110,120,130), not the row above's (10,20,30)
    want = np.array([[[10, 20, 30], [11, 21, 31], [12, 22, 32]],
                     [[110, 120, 130], [17, 27, 37], [115, 125, 135]]],
                    np.uint8)
    assert np.array_equal(decode_webp(data), want)


def test_roundtrip_transforms_and_combos():
    rng = np.random.default_rng(7)
    px = rng.integers(0, 256, (13, 17, 3), np.uint8)
    assert np.array_equal(
        decode_webp(encode_webp(px, subtract_green=True)), px)
    assert np.array_equal(
        decode_webp(encode_webp(px, cross_color=(23, -17, 40))), px)
    assert np.array_equal(
        decode_webp(encode_webp(px, subtract_green=True,
                                cross_color=(5, 9, -3),
                                predictor_mode=7)), px)


def test_roundtrip_palette_and_bundling():
    rng = np.random.default_rng(9)
    # 5 colors → 4-bit bundling; 2 colors → 1-bit; 200 → unbundled
    pal5 = (rng.integers(0, 5, (11, 19), np.uint8)[:, :, None]
            * np.array([50, 30, 11], np.uint8)[None, None, :])
    assert np.array_equal(
        decode_webp(encode_webp(pal5, palette=True)), pal5)
    bw = (rng.integers(0, 2, (8, 21), np.uint8)[:, :, None]
          * np.array([255, 255, 255], np.uint8)[None, None, :])
    assert np.array_equal(decode_webp(encode_webp(bw, palette=True)),
                          bw)
    big = (rng.integers(0, 200, (9, 23), np.uint8)[:, :, None]
           * np.array([1, 3, 7], np.uint8)[None, None, :])
    assert np.array_equal(decode_webp(encode_webp(big, palette=True)),
                          big)


def test_gray_and_rgba_composite():
    rng = np.random.default_rng(11)
    g = rng.integers(0, 256, (7, 9), np.uint8)
    assert np.array_equal(decode_webp(encode_webp(g)),
                          np.repeat(g[:, :, None], 3, 2))
    rgba = rng.integers(0, 256, (6, 8, 4), np.uint8)
    out = decode_webp(encode_webp(rgba))
    a = rgba[:, :, 3:].astype(np.int32)
    fg = rgba[:, :, :3].astype(np.int32)
    exp = ((fg * a + 255 * (255 - a) + 127) // 255).astype(np.uint8)
    assert np.array_equal(out, exp)


def test_lossy_and_corrupt_rejected():
    px = np.zeros((4, 4, 3), np.uint8)
    good = encode_webp(px)
    # relabel the VP8L chunk as lossy VP8: honest NotImplementedError
    lossy = good.replace(b"VP8L", b"VP8 ", 1)
    with pytest.raises(NotImplementedError, match="lossless"):
        decode_webp(lossy)
    with pytest.raises(ValueError):
        decode_webp(b"RIFF\x04\x00\x00\x00WEBP")
    with pytest.raises(ValueError):
        decode_webp(b"not webp")
    with pytest.raises(ValueError):
        decode_webp(good[:24])  # truncated bitstream


def test_webp_bmp_hash_parity_and_wav_disambiguation():
    px = _synth_pixels(21, 24, 18)
    assert average_hash(decode_webp(encode_webp(px))) \
        == average_hash(px)
    # a RIFF/WAVE payload must NOT parse as WebP
    from xtract.ops.multimodal import encode_wav

    wav = encode_wav(np.zeros(100, np.int16), 8000)
    with pytest.raises(ValueError, match="WebP"):
        decode_webp(wav)


def test_webp_near_dups_through_pipeline(ray_session):
    import ray.data as rd

    from xtract.ops.multimodal import encode_bmp, image_near_dups

    base = _synth_pixels(9, 40, 32)
    other = _synth_pixels(123, 40, 32)
    rows = [
        {"media_id": 1, "kind": "image", "payload": encode_bmp(base)},
        {"media_id": 2, "kind": "image",
         "payload": encode_webp(base, subtract_green=True,
                                predictor_mode=1, cache_bits=6)},
        {"media_id": 3, "kind": "image", "payload": encode_webp(other)},
    ]
    out = image_near_dups(rd.from_items(rows)).to_pandas()
    c = dict(zip(out.media_id, out.cluster_id))
    assert c[1] == c[2]  # lossless containers of the same pixels
    assert c[3] != c[1]


def test_media_features_and_resize_on_webp(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from xtract.ops.multimodal import ResizeStage, decode_bmp, decode_media

    rows = [
        {"media_id": 1, "kind": "image",
         "payload": encode_webp(_synth_pixels(2, 24, 24)),
         "meta": {"codec": "webp"}},
        {"media_id": 2, "kind": "image",
         "payload": b"RIFF" + struct.pack("<I", 12) + b"WEBPVP8 \x00\x00\x00\x00",
         "meta": {"codec": "webp"}},
    ]
    out = decode_media(rd.from_items(rows)).to_pandas()
    st = dict(zip(out.media_id, out.decode_status))
    assert st[1] == "ok"
    assert st[2] == "unsupported_codec"  # lossy VP8: honest rejection

    rs = ResizeStage(16, 16)(pa.Table.from_pylist(
        [{"media_id": 1, "kind": "image",
          "payload": encode_webp(_synth_pixels(4, 30, 20),
                                 cache_bits=4),
          "meta": {"codec": "webp"}}]))
    assert rs["resize_status"].to_pylist() == ["ok"]
    assert decode_bmp(rs["resized"].to_pylist()[0]).shape == (16, 16, 3)
