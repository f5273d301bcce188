"""Baseline JPEG codec (ops/jpeg) + its multimodal integration:
round-trip fidelity, malformed/progressive rejection, planted JPEG
near-dup recovery through the Ray pipeline, media_features ok-status
on JPEG payloads."""

import numpy as np
import pyarrow as pa
import pytest

from xtract.ops.jpeg import decode_jpeg, encode_jpeg
from xtract.ops.multimodal import _synth_pixels, average_hash


def test_roundtrip_psnr_and_shape():
    for (w, h) in [(8, 8), (16, 24), (37, 23), (40, 39)]:
        px = _synth_pixels(11, w, h)
        out = decode_jpeg(encode_jpeg(px, quality=90))
        assert out.shape == (h, w, 3)
        mse = ((out.astype(float) - px) ** 2).mean()
        psnr = 10 * np.log10(255 ** 2 / max(mse, 1e-9))
        assert psnr > 30, (w, h, psnr)


def test_smooth_image_near_lossless():
    img = np.zeros((32, 32, 3), np.uint8)
    yy, xx = np.mgrid[0:32, 0:32]
    img[:, :, 0] = (yy * 4).astype(np.uint8)
    img[:, :, 1] = (xx * 4).astype(np.uint8)
    img[:, :, 2] = 128
    out = decode_jpeg(encode_jpeg(img, quality=95))
    assert np.abs(out.astype(int) - img.astype(int)).max() <= 4


def test_quality_knob_changes_size():
    px = _synth_pixels(3, 32, 32)
    lo = encode_jpeg(px, quality=20)
    hi = encode_jpeg(px, quality=95)
    assert len(lo) < len(hi)
    assert decode_jpeg(lo).shape == decode_jpeg(hi).shape


def test_malformed_and_arithmetic_rejected():
    with pytest.raises(ValueError, match="SOI"):
        decode_jpeg(b"not a jpeg")
    good = bytearray(encode_jpeg(_synth_pixels(1, 16, 16)))
    i = bytes(good).index(b"\xFF\xC0")
    # flip SOF0 to SOF9 (arithmetic sequential): must be refused
    good[i + 1] = 0xC9
    with pytest.raises(NotImplementedError, match="arithmetic"):
        decode_jpeg(bytes(good))
    # flip SOF0 to SOF2: the baseline-style full-spectrum scan is
    # malformed AS a progressive stream (Ss=0, Se=63 mixes DC and AC)
    good[i + 1] = 0xC2
    with pytest.raises(ValueError, match="mixes DC and AC"):
        decode_jpeg(bytes(good))


def test_ahash_stable_across_jpeg_cycle():
    # the perceptual hash survives a lossy encode→decode cycle
    px = _synth_pixels(5, 32, 32)
    h0 = average_hash(px)
    h1 = average_hash(decode_jpeg(encode_jpeg(px, quality=90)))
    assert bin(h0 ^ h1).count("1") <= 6


def _jpeg_media_ds(rows):
    import ray.data as rd

    return rd.from_items(rows)


def test_jpeg_near_dups_planted_pair(ray_session):
    # two JPEGs of the same scene (one re-encoded at lower quality)
    # must cluster; a different scene must not
    from xtract.ops.multimodal import image_near_dups

    base = _synth_pixels(9, 40, 32)
    other = _synth_pixels(123, 40, 32)
    rows = [
        {"media_id": 1, "kind": "image",
         "payload": encode_jpeg(base, quality=92)},
        {"media_id": 2, "kind": "image",
         "payload": encode_jpeg(base, quality=55)},
        {"media_id": 3, "kind": "image",
         "payload": encode_jpeg(other, quality=92)},
    ]
    out = image_near_dups(_jpeg_media_ds(rows)).to_pandas()
    c = dict(zip(out.media_id, out.cluster_id))
    assert c[1] == c[2]
    assert c[3] != c[1]


def test_media_features_ok_on_jpeg(ray_session):
    from xtract.ops.multimodal import decode_media

    rows = [
        {"media_id": 1, "kind": "image",
         "payload": encode_jpeg(_synth_pixels(2, 24, 24)),
         "meta": {"codec": "jpeg"}},
        {"media_id": 2, "kind": "image", "payload": b"\xFF\xD8garbage",
         "meta": {"codec": "jpeg"}},
    ]
    out = decode_media(_jpeg_media_ds(rows)).to_pandas()
    st = dict(zip(out.media_id, out.decode_status))
    assert st[1] == "ok"
    assert st[2] in ("decode_error", "unsupported_codec")


def test_resize_stage_handles_jpeg(ray_session):
    from xtract.ops.multimodal import ResizeStage, decode_bmp

    rows = [{"media_id": 1, "kind": "image",
             "payload": encode_jpeg(_synth_pixels(4, 30, 20)),
             "meta": {"codec": "jpeg"}}]
    out = ResizeStage(16, 16)(pa.Table.from_pylist(rows))
    assert out["resize_status"].to_pylist() == ["ok"]
    rs = decode_bmp(out["resized"].to_pylist()[0])
    assert rs.shape == (16, 16, 3)


# ---------------------------------------------------------------------------
# progressive (SOF2) — round 5
# ---------------------------------------------------------------------------

def test_progressive_pixel_exact_vs_baseline():
    # same quantized coefficients → the progressive stream must decode
    # pixel-identically to the baseline stream at every quality
    from xtract.ops.jpeg import encode_jpeg_progressive

    for (w, h, q) in [(8, 8, 85), (16, 24, 90), (37, 23, 75),
                      (40, 39, 50)]:
        px = _synth_pixels(11, w, h)
        base = decode_jpeg(encode_jpeg(px, quality=q))
        prog = decode_jpeg(encode_jpeg_progressive(px, quality=q))
        assert np.array_equal(base, prog), (w, h, q)


def test_progressive_scripts_and_restarts_exact():
    # spectral-selection-only, deep successive-approximation chains,
    # and restart markers must all reproduce the baseline pixels
    from xtract.ops.jpeg import encode_jpeg_progressive

    rng = np.random.default_rng(42)
    spectral = (((0, 1, 2), 0, 0, 0, 0), ((0,), 1, 10, 0, 0),
                ((0,), 11, 63, 0, 0), ((1,), 1, 63, 0, 0),
                ((2,), 1, 63, 0, 0))
    deep_sa = (((0, 1, 2), 0, 0, 0, 3), ((0, 1, 2), 0, 0, 3, 2),
               ((0, 1, 2), 0, 0, 2, 1), ((0, 1, 2), 0, 0, 1, 0),
               ((0,), 1, 63, 0, 3), ((0,), 1, 63, 3, 2),
               ((0,), 1, 63, 2, 1), ((0,), 1, 63, 1, 0),
               ((1,), 1, 63, 0, 1), ((1,), 1, 63, 1, 0),
               ((2,), 1, 63, 0, 0))
    for trial in range(3):
        h, w = int(rng.integers(8, 60)), int(rng.integers(8, 60))
        px = (rng.integers(0, 256, (h, w, 3), np.uint8) if trial % 2
              else _synth_pixels(trial, w, h))
        q = int(rng.integers(30, 95))
        base = decode_jpeg(encode_jpeg(px, quality=q))
        for kw in ({"script": spectral}, {"script": deep_sa},
                   {"restart_interval": 3}):
            prog = decode_jpeg(
                encode_jpeg_progressive(px, quality=q, **kw))
            assert np.array_equal(base, prog), (trial, kw)


def test_progressive_near_dups_through_pipeline(ray_session):
    # a progressive re-encode of a scene must cluster with its
    # baseline encode; a different progressive scene must not
    from xtract.ops.jpeg import encode_jpeg_progressive
    from xtract.ops.multimodal import image_near_dups

    base = _synth_pixels(9, 40, 32)
    other = _synth_pixels(123, 40, 32)
    rows = [
        {"media_id": 1, "kind": "image",
         "payload": encode_jpeg(base, quality=92)},
        {"media_id": 2, "kind": "image",
         "payload": encode_jpeg_progressive(base, quality=70)},
        {"media_id": 3, "kind": "image",
         "payload": encode_jpeg_progressive(other, quality=92)},
    ]
    out = image_near_dups(_jpeg_media_ds(rows)).to_pandas()
    c = dict(zip(out.media_id, out.cluster_id))
    assert c[1] == c[2]
    assert c[3] != c[1]


def test_media_features_ok_on_progressive(ray_session):
    from xtract.ops.jpeg import encode_jpeg_progressive
    from xtract.ops.multimodal import decode_media

    rows = [{"media_id": 1, "kind": "image",
             "payload": encode_jpeg_progressive(_synth_pixels(2, 24, 24)),
             "meta": {"codec": "jpeg"}}]
    out = decode_media(_jpeg_media_ds(rows)).to_pandas()
    assert out.decode_status.tolist() == ["ok"]


# ---------------------------------------------------------------------------
# corrupt streams land as ValueError / decode_error, never another type
# ---------------------------------------------------------------------------

def _sos_payloads(data: bytes) -> list[int]:
    """Offsets of every SOS segment's payload (the Ns byte), found by
    walking the marker segments and skipping each scan's entropy-coded
    bytes (where 0xFF is always followed by 0x00 or an RST marker)."""
    out = []
    pos = 2
    while pos + 4 <= len(data) and data[pos + 1] != 0xD9:
        seglen = int.from_bytes(data[pos + 2:pos + 4], "big")
        pos += 2 + seglen
        if data[pos - seglen - 1] == 0xDA:
            out.append(pos - seglen + 2)
            while not (data[pos] == 0xFF and data[pos + 1] != 0x00
                       and not 0xD0 <= data[pos + 1] <= 0xD7):
                pos += 1
    return out


def _decode_status(payload: bytes) -> str:
    from xtract.ops.multimodal import DecodeStage

    batch = pa.table({"payload": [payload], "kind": ["image"],
                      "meta": pa.array([None], pa.null())})
    return DecodeStage()(batch)["decode_status"].to_pylist()[0]


def test_progressive_unknown_scan_component_is_decode_error():
    from xtract.ops.jpeg import encode_jpeg_progressive

    data = bytearray(encode_jpeg_progressive(_synth_pixels(4, 16, 16)))
    sos = _sos_payloads(bytes(data))
    assert len(sos) > 2
    data[sos[0] + 1] = 99  # first scan's first component selector
    with pytest.raises(ValueError, match="unknown component"):
        decode_jpeg(bytes(data))
    assert _decode_status(bytes(data)) == "decode_error"


def test_progressive_missing_ac_table_is_decode_error():
    from xtract.ops.jpeg import encode_jpeg_progressive

    data = bytearray(encode_jpeg_progressive(_synth_pixels(4, 16, 16)))
    # the first AC scan (Ss >= 1; AC scans carry one component) names
    # AC table 3, which no DHT segment defines
    ac = next(p for p in _sos_payloads(bytes(data))
              if data[p] == 1 and data[p + 3] >= 1)
    data[ac + 2] = (data[ac + 2] & 0xF0) | 3
    with pytest.raises(ValueError, match="Huffman table"):
        decode_jpeg(bytes(data))
    assert _decode_status(bytes(data)) == "decode_error"


def test_baseline_unknown_scan_component_is_decode_error():
    data = bytearray(encode_jpeg(_synth_pixels(4, 16, 16)))
    (sos,) = _sos_payloads(bytes(data))
    data[sos + 1] = 99
    with pytest.raises(ValueError, match="unknown component"):
        decode_jpeg(bytes(data))
    assert _decode_status(bytes(data)) == "decode_error"


def test_every_truncation_raises_only_value_error():
    from xtract.ops.jpeg import encode_jpeg_progressive

    px = _synth_pixels(5, 16, 16)
    for data in (encode_jpeg(px), encode_jpeg_progressive(px)):
        for cut in range(2, len(data)):
            try:
                decode_jpeg(data[:cut])
            except ValueError:
                pass
