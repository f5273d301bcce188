"""Round-5 WAV format widening (ops/multimodal.decode_wav — manual
RIFF walk replacing the PCM-only stdlib reader): 8/24/32-bit PCM,
IEEE float32, G.711 μ-law/A-law, stereo mixdown, and the canonical
G.711 code-table fixpoint checks."""

import struct

import numpy as np
import pytest

from xtract.ops.multimodal import (_alaw_decode, _alaw_encode,
                                   _ulaw_decode, _ulaw_encode,
                                   decode_wav, encode_wav)


def test_g711_code_table_fixpoints():
    codes = np.arange(256, dtype=np.uint8)
    # A-law: every code survives decode→encode exactly
    assert (_alaw_encode(_alaw_decode(codes)) == codes).all()
    # μ-law: only the ±0 duality differs (0x7F and 0xFF both mean 0)
    bad = np.flatnonzero(_ulaw_encode(_ulaw_decode(codes)) != codes)
    assert list(bad) == [127]
    assert _ulaw_decode(np.array([0x7F], np.uint8))[0] == 0
    assert _ulaw_decode(np.array([0xFF], np.uint8))[0] == 0


def test_wav_roundtrip_every_format():
    x = (np.sin(np.arange(4000) * 0.05) * 20000).astype(np.int16)
    for fmt, tol in [("pcm16", 0), ("pcm8", 256), ("pcm24", 0),
                     ("float32", 0), ("ulaw", 1024), ("alaw", 1024)]:
        s, r = decode_wav(encode_wav(x, 16000, fmt=fmt))
        assert r == 16000 and len(s) == len(x)
        assert np.abs(s.astype(int) - x.astype(int)).max() <= tol, fmt


def test_wav_float32_hand_built_full_scale():
    # a float32 payload written without the in-repo encoder: the decoder
    # scales by 32768, so -1.0 is the int16 minimum and +1.0 clips
    f = np.array([0.0, 0.75, -1.0, 1.0, -0.5, 1 / 32768], "<f4")
    fmt = struct.pack("<HHIIHH", 3, 1, 8000, 8000 * 4, 4, 32)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", f.nbytes) + f.tobytes())
    s, r = decode_wav(b"RIFF" + struct.pack("<I", len(body)) + body)
    assert r == 8000
    assert s.tolist() == [0, 24576, -32768, 32767, -16384, 1]


def test_wav_32bit_stereo_and_extensible():
    x = (np.cos(np.arange(1000) * 0.1) * 15000).astype(np.int16)
    # hand-built 32-bit stereo PCM (same signal both channels)
    inter = np.repeat(x.astype(np.int32) << 16, 2).astype("<i4")
    fmt = struct.pack("<HHIIHH", 1, 2, 8000, 8000 * 8, 8, 32)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", inter.nbytes)
            + inter.tobytes())
    s, r = decode_wav(b"RIFF" + struct.pack("<I", len(body)) + body)
    assert r == 8000 and np.array_equal(s, x)
    # WAVE_FORMAT_EXTENSIBLE wrapper around PCM16: base(16) +
    # cbSize(2) + wValidBits(2) + dwChannelMask(4) + GUID(16)@24
    guid = struct.pack("<H", 1) + b"\x00" * 14
    fmt = (struct.pack("<HHIIHH", 0xFFFE, 1, 8000, 16000, 2, 16)
           + struct.pack("<HHI", 22, 16, 0x4) + guid)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", x.nbytes)
            + x.astype("<i2").tobytes())
    s, r = decode_wav(b"RIFF" + struct.pack("<I", len(body)) + body)
    assert np.array_equal(s, x)


def test_wav_malformed_and_unknown_rejected():
    with pytest.raises(ValueError):
        decode_wav(b"RIFFxxxxNOPE")
    with pytest.raises(ValueError):
        decode_wav(b"not audio")
    # unknown format tag → honest NotImplementedError (→ unsupported)
    fmt = struct.pack("<HHIIHH", 0x55, 1, 8000, 8000, 1, 8)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", 4) + b"\x00" * 4)
    with pytest.raises(NotImplementedError):
        decode_wav(b"RIFF" + struct.pack("<I", len(body)) + body)


def test_audio_features_through_stage_on_ulaw(ray_session):
    import ray.data as rd

    from xtract.ops.multimodal import decode_media

    x = (np.sin(np.arange(2000) * 0.04) * 12000).astype(np.int16)
    rows = [{"media_id": 1, "kind": "audio",
             "payload": encode_wav(x, 16000, fmt="ulaw"),
             "meta": {"codec": "g711u"}}]
    out = decode_media(rd.from_items(rows)).to_pandas()
    assert out.decode_status.tolist() == ["ok"]
    assert out.features[0][19] == 16000.0  # sample rate feature
