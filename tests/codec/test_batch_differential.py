"""Differential harness: batched codec kernels == scalar reference.

The batched whole-block kernels (:mod:`repro.codec.batch`) claim **bit
identity** with the per-frame/per-band scalar loops they replace — on the
wire (encode) and in the recovered samples (decode), including the exact
exception a malformed stream raises.  These tests pin that claim with
hypothesis sweeps over dtypes, odd block sizes, empty blocks, every Rice
parameter 0..30, and random byte-level corruption.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.batch import (
    _read_fields,
    decode_bands_batched,
    encode_bands_batched,
)
from repro.codec.mdct import (
    _reference_mdct_synthesis,
    mdct_analysis,
    mdct_synthesis,
)
from repro.codec.mp3like import Mp3LikeCodec
from repro.codec.rice import (
    _reference_rice_decode,
    rice_decode,
    rice_encode,
)
from repro.codec.vorbislike import VorbisLikeCodec, _model


def _signal(rng, n, channels, kind):
    if kind == "noise":
        x = rng.normal(0.0, 0.3, (n, channels))
    elif kind == "tone":
        t = np.arange(n)[:, None]
        x = 0.5 * np.sin(2 * np.pi * 440.0 * t / 44100.0) * np.ones(
            (1, channels)
        )
    elif kind == "quiet":
        x = rng.normal(0.0, 1e-7, (n, channels))
    elif kind == "sparse":
        x = np.zeros((n, channels))
        x[:: max(1, n // 13)] = 0.9
    else:  # attack: quiet lead-in, loud tail (trips window switching)
        x = rng.normal(0.0, 0.01, (n, channels))
        x[n // 2 :] *= 40.0
    return np.clip(x, -1.0, 1.0)


def _pair(cls, **kwargs):
    return cls(batched=True, **kwargs), cls(batched=False, **kwargs)


def _outcome(codec, data):
    try:
        return ("ok", codec.decode_block(data).tobytes())
    except Exception as exc:  # noqa: BLE001 — exception IS the contract
        return (type(exc).__name__, str(exc))


# -- Rice coding -------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.integers(min_value=-(2**16), max_value=2**16),
        min_size=0,
        max_size=64,
    ),
    k=st.integers(min_value=0, max_value=30),
)
def test_rice_decode_matches_reference_on_valid_streams(values, k):
    v = np.array(values, dtype=np.int64)
    data = rice_encode(v, k)
    got = rice_decode(data, k, len(v))
    ref = _reference_rice_decode(data, k, len(v))
    assert np.array_equal(got, ref)
    assert np.array_equal(got, v)


@settings(max_examples=300, deadline=None)
@given(
    data=st.binary(min_size=0, max_size=48),
    k=st.integers(min_value=0, max_value=34),
    count=st.integers(min_value=0, max_value=40),
)
def test_rice_decode_matches_reference_on_garbage(data, k, count):
    """Arbitrary bytes (truncations, hostile k, k > 30) must produce the
    same values or the same exception as the per-bit walk."""
    try:
        got, got_err = rice_decode(data, k, count), None
    except ValueError as exc:
        got, got_err = None, str(exc)
    try:
        ref, ref_err = _reference_rice_decode(data, k, count), None
    except ValueError as exc:
        ref, ref_err = None, str(exc)
    assert got_err == ref_err
    if got is not None:
        assert np.array_equal(got, ref)


def test_rice_decode_truncated_tail_raises_like_reference():
    v = np.arange(-20, 20, dtype=np.int64)
    data = rice_encode(v, 4)
    for cut in (0, 1, len(data) // 2, len(data) - 1):
        with pytest.raises(ValueError, match="truncated"):
            rice_decode(data[:cut], 4, len(v))


# -- MDCT overlap-add --------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    length=st.integers(min_value=0, max_value=5000),
    n=st.sampled_from([64, 128, 256, 512]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_mdct_synthesis_matches_reference_loop(length, n, seed):
    rng = np.random.default_rng(seed)
    coeffs, _ = mdct_analysis(rng.normal(0.0, 0.5, length), n)
    # quantisation-shaped coefficients too: signed zeros and exact ties
    coeffs = np.round(coeffs * 8.0) / 8.0
    fast = mdct_synthesis(coeffs, length)
    slow = _reference_mdct_synthesis(coeffs, length)
    assert fast.tobytes() == slow.tobytes()  # bitwise, not approx


# -- VorbisLike --------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=20000),
    channels=st.sampled_from([1, 2]),
    quality=st.sampled_from([0, 3, 7, 10]),
    entropy=st.sampled_from(["fixed", "rice"]),
    window_switching=st.booleans(),
    kind=st.sampled_from(["noise", "tone", "quiet", "sparse", "attack"]),
    dtype=st.sampled_from([np.float64, np.float32, np.int16]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_vorbis_batched_bit_identical(
    n, channels, quality, entropy, window_switching, kind, dtype, seed
):
    rng = np.random.default_rng(seed)
    x = _signal(rng, n, channels, kind)
    if dtype is np.int16:
        x = (x * 32767).astype(np.int16)
    else:
        x = x.astype(dtype)
    fast, slow = _pair(
        VorbisLikeCodec,
        quality=quality,
        entropy=entropy,
        window_switching=window_switching,
    )
    wf, ws = fast.encode_block(x), slow.encode_block(x)
    assert wf == ws
    assert fast.decode_block(wf).tobytes() == slow.decode_block(ws).tobytes()


def test_vorbis_empty_block_bit_identical():
    x = np.zeros((0, 2))
    fast, slow = _pair(VorbisLikeCodec)
    wf, ws = fast.encode_block(x), slow.encode_block(x)
    assert wf == ws
    assert fast.decode_block(wf).tobytes() == slow.decode_block(ws).tobytes()


def test_vorbis_nonfinite_input_same_outcome():
    """NaN/Inf coefficients: the batch kernel must defer to the reference
    loop so both configurations produce identical bytes or identical
    errors."""
    for bad in (np.nan, np.inf, -np.inf):
        x = np.zeros((3000, 1))
        x[7] = 0.25
        x[1500] = bad
        outs = []
        for codec in _pair(VorbisLikeCodec, quality=10):
            try:
                outs.append(("ok", codec.encode_block(x)))
            except Exception as exc:  # noqa: BLE001
                outs.append((type(exc).__name__, str(exc)))
        assert outs[0] == outs[1]


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(min_value=64, max_value=9000),
    entropy=st.sampled_from(["fixed", "rice"]),
    cut=st.floats(min_value=0.0, max_value=1.0),
    flips=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.integers(min_value=0, max_value=7),
        ),
        min_size=0,
        max_size=5,
    ),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_vorbis_corrupt_stream_same_outcome(n, entropy, cut, flips, seed):
    """Truncated / bit-flipped blocks: decode must return the same
    samples or raise the same exception either way."""
    rng = np.random.default_rng(seed)
    x = _signal(rng, n, 2, "noise")
    fast, slow = _pair(VorbisLikeCodec, quality=7, entropy=entropy)
    blob = bytearray(fast.encode_block(x))
    header = 10
    if len(blob) > header + 1:
        blob = blob[: header + 1 + int(cut * (len(blob) - header - 1))]
        for frac, bit in flips:
            i = header + int(frac * (len(blob) - header - 1))
            blob[min(i, len(blob) - 1)] ^= 1 << bit
    assert _outcome(fast, bytes(blob)) == _outcome(slow, bytes(blob))


# -- Mp3Like -----------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=20000),
    channels=st.sampled_from([1, 2]),
    kbps=st.sampled_from([96, 128, 192, 256, 320]),
    kind=st.sampled_from(["noise", "tone", "quiet", "sparse", "attack"]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_mp3_batched_bit_identical(n, channels, kbps, kind, seed):
    rng = np.random.default_rng(seed)
    x = _signal(rng, n, channels, kind)
    fast, slow = _pair(Mp3LikeCodec, bitrate_kbps=kbps)
    wf, ws = fast.encode_block(x), slow.encode_block(x)
    assert wf == ws
    assert fast.decode_block(wf).tobytes() == slow.decode_block(ws).tobytes()


def test_mp3_empty_block_bit_identical():
    fast, slow = _pair(Mp3LikeCodec)
    wf, ws = fast.encode_block(np.zeros((0, 1))), slow.encode_block(
        np.zeros((0, 1))
    )
    assert wf == ws


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=64, max_value=9000),
    cut=st.floats(min_value=0.0, max_value=1.0),
    flips=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.integers(min_value=0, max_value=7),
        ),
        min_size=0,
        max_size=5,
    ),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_mp3_corrupt_stream_same_outcome(n, cut, flips, seed):
    rng = np.random.default_rng(seed)
    x = _signal(rng, n, 2, "noise")
    fast, slow = _pair(Mp3LikeCodec, bitrate_kbps=192)
    blob = bytearray(fast.encode_block(x))
    header = 8
    if len(blob) > header + 1:
        blob = blob[: header + 1 + int(cut * (len(blob) - header - 1))]
        for frac, bit in flips:
            i = header + int(frac * (len(blob) - header - 1))
            blob[min(i, len(blob) - 1)] ^= 1 << bit
    assert _outcome(fast, bytes(blob)) == _outcome(slow, bytes(blob))


# -- kernel edge cases -------------------------------------------------------
#
# The cases below drive the kernels directly with hand-picked band layouts
# and compare them with the codecs' scalar per-frame loops, run on a
# stand-in model that exposes just the edges and the chosen widths.


def _model_for(edges, widths_row=None):
    return SimpleNamespace(
        edges=np.asarray(edges, dtype=np.int64),
        n_bands=len(edges) - 1,
        band_energies=lambda frame: None,
        allocate_widths=lambda energies, quality: widths_row,
    )


def _reference_encode(coeffs, edges, widths, entropy="fixed"):
    codec = VorbisLikeCodec(batched=False, entropy=entropy)
    return b"".join(
        codec._reference_encode_frame(frame, _model_for(edges, row))
        for frame, row in zip(coeffs, widths)
    )


def _reference_decode(data, offset, n_frames, edges):
    codec = VorbisLikeCodec(batched=False)
    model = _model_for(edges)
    out = np.zeros((n_frames, edges[-1]))
    for f in range(n_frames):
        offset = codec._reference_decode_frame(data, offset, out[f], model)
    return out, offset


def _assert_kernels_match(coeffs, edges, widths, *, prefix=b"", suffix=b""):
    """Encode with both paths, then decode the batched bytes from a
    memoryview sitting inside a larger buffer, like a packet payload."""
    n_frames = len(coeffs)
    body = encode_bands_batched(coeffs, edges, widths)
    assert body == _reference_encode(coeffs, edges, widths)
    start = len(prefix)
    view = memoryview(prefix + body + suffix)[start:start + len(body)]
    got, got_end = decode_bands_batched(view, 0, n_frames, edges)
    ref, ref_end = _reference_decode(body, 0, n_frames, edges)
    assert got_end == ref_end == len(body)
    assert got.tobytes() == ref.tobytes()
    return body


def test_read_fields_at_every_bit_offset_and_width():
    """The 24-bit window holds any field of up to 16 bits, including the
    widest case — 16 bits starting at bit 7 of a byte — in the buffer's
    last three bytes, where the window reaches into the zero padding."""
    rng = np.random.default_rng(5)
    data = rng.integers(0, 256, 9, dtype=np.uint8).tobytes()
    buf = np.zeros(len(data) + 2, dtype=np.int64)
    buf[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    whole = int.from_bytes(data, "big")
    pos, wid = zip(*[
        (p, w)
        for w in range(1, 17)
        for p in range(0, 8 * len(data) - w + 1)
    ])
    pos, wid = np.array(pos), np.array(wid)
    last_byte = 8 * (len(data) - 1)
    assert ((pos & 7 == 7) & (wid == 16) & (pos + wid > last_byte)).any()
    got = _read_fields(buf, pos, wid)
    want = [
        (whole >> (8 * len(data) - p - w)) & ((1 << w) - 1)
        for p, w in zip(pos.tolist(), wid.tolist())
    ]
    assert got.tolist() == want


@pytest.mark.parametrize("width", range(2, 17))
def test_unpadded_bands_end_on_the_last_byte(width):
    """count * width % 8 == 0: no part carries a pad, and the block's
    last field ends exactly on the payload's last byte."""
    edges = [0, 8, 16, 24]
    rng = np.random.default_rng(width)
    coeffs = rng.normal(0.0, 0.4, (3, 24))
    widths = np.full((3, 3), width)
    body = _assert_kernels_match(coeffs, edges, widths, suffix=b"\xff\xff")
    assert len(body) == 3 * 3 * (2 + width)


@pytest.mark.parametrize("width", [3, 5, 7, 9, 11, 13, 15])
def test_odd_widths_cross_every_bit_offset(width):
    """Odd widths put fields at every bit offset 0..7, the widest at
    bit 7 (15 bits: a field spanning three bytes)."""
    edges = [0, 1, 9, 17, 40]
    rng = np.random.default_rng(width)
    coeffs = rng.normal(0.0, 0.4, (2, 40))
    widths = np.full((2, 4), width)
    widths[1, 0] = 0
    _assert_kernels_match(coeffs, edges, widths, prefix=b"\x00" * 5)


def test_all_inactive_block_and_empty_block():
    edges = [0, 4, 12, 32]
    zeros = np.zeros((4, 32))
    body = _assert_kernels_match(zeros, edges, np.full((4, 3), 9))
    assert body == b"\x00" * 12
    quiet = np.full((4, 32), 0.3)
    body = _assert_kernels_match(quiet, edges, np.zeros((4, 3), np.int64))
    assert body == b"\x00" * 12
    # n_frames == 0: nothing on the wire, nothing decoded
    assert encode_bands_batched(np.zeros((0, 32)), edges,
                                np.zeros((0, 3), np.int64)) == b""
    got, end = decode_bands_batched(memoryview(b"\x07"), 1, 0, edges)
    assert got.shape == (0, 32) and end == 1


@pytest.mark.parametrize("entropy", ["fixed", "rice"])
def test_stereo_side_plane_decodes_from_its_offset(entropy):
    """The side plane starts wherever the mid plane ended, past the
    header: decode both planes from a memoryview, like a speaker does."""
    rng = np.random.default_rng(11)
    x = _signal(rng, 3000, 2, "noise")
    fast = VorbisLikeCodec(quality=7, entropy=entropy, batched=True)
    blob = fast.encode_block(x)
    header, num_frames = 10, (3000 + 511) // 512 + 1
    edges = _model(fast.sample_rate, fast.frame_size).edges
    view = memoryview(blob)
    mid, side_at = decode_bands_batched(view, header, num_frames, edges)
    side, end = decode_bands_batched(view, side_at, num_frames, edges)
    ref_mid, ref_side_at = _reference_decode(blob, header, num_frames, edges)
    ref_side, ref_end = _reference_decode(blob, ref_side_at, num_frames,
                                          edges)
    assert (side_at, end) == (ref_side_at, ref_end)
    assert end == len(blob)
    assert mid.tobytes() == ref_mid.tobytes()
    assert side.tobytes() == ref_side.tobytes()


@pytest.mark.parametrize("codec_cls", [VorbisLikeCodec, Mp3LikeCodec])
def test_memoryview_payload_decodes_like_bytes(codec_cls):
    """Speakers decode a read-only memoryview into the received frame."""
    rng = np.random.default_rng(3)
    x = _signal(rng, 4000, 2, "tone")
    fast, slow = _pair(codec_cls)
    blob = fast.encode_block(x)
    frame = b"\x55" * 17 + blob + b"\xaa" * 3
    view = memoryview(frame)[17:17 + len(blob)].toreadonly()
    assert _outcome(fast, view) == _outcome(slow, blob)
    assert _outcome(fast, view)[0] == "ok"
    # a truncated view takes the fallback and raises the scalar error
    cut = view[: len(blob) // 2]
    assert _outcome(fast, cut) == _outcome(slow, cut)


@pytest.mark.parametrize("tag", [0x80, 0x85, 0xFF])
def test_mp3_decode_rejects_rice_tags_like_reference(tag):
    """Mp3Like streams carry no Rice bands (rice_tags=False): a tag with
    the high bit set is an out-of-range width, an error either way."""
    rng = np.random.default_rng(1)
    fast, slow = _pair(Mp3LikeCodec, bitrate_kbps=192)
    blob = bytearray(fast.encode_block(_signal(rng, 2000, 1, "noise")))
    blob[8] = tag  # first band descriptor, just past the 8-byte header
    outcome = _outcome(fast, bytes(blob))
    assert outcome == _outcome(slow, bytes(blob))
    assert outcome[0] == "ValueError"
