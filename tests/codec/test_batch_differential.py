"""Differential harness: batched codec kernels == scalar reference.

The batched whole-block kernels (:mod:`repro.codec.batch`) claim **bit
identity** with the per-frame/per-band scalar walks that define the band
format — on the wire (encode) and in the recovered samples (decode),
including the exception type and message a malformed stream or a
non-finite input raises at its first bad band.  The scalar arm of every
comparison is an oracle from ``tests/oracles/codec.py``.  These tests
pin that claim with hypothesis sweeps over dtypes, odd block sizes,
empty blocks, every Rice parameter a band tag can carry (0..127), and
random byte-level corruption.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.codec.batch import (
    _read_fields,
    decode_bands_batched,
    encode_bands_batched,
)
from repro.codec.mdct import mdct_analysis, mdct_synthesis
from repro.codec.mp3like import Mp3LikeCodec
from repro.codec.rice import rice_decode
from repro.codec.vorbislike import VorbisLikeCodec, _model
from tests.oracles.codec import (
    reference_mdct_synthesis,
    reference_rice_decode,
    rice_encode,
    scalar_decode_block,
    scalar_encode_block,
    vorbis_reference_decode_bands,
    vorbis_reference_encode,
)


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


class _Scalar:
    """A codec whose blocks run the scalar oracle."""

    def __init__(self, codec):
        self.codec = codec

    def encode_block(self, samples):
        return scalar_encode_block(self.codec, samples)

    def decode_block(self, data):
        return scalar_decode_block(self.codec, data)


def _pair(cls, **kwargs):
    codec = cls(**kwargs)
    return codec, _Scalar(codec)


def _result(call, *args, **kwargs):
    """``("ok", bytes)`` or the ``(exception type, message)`` raised."""
    try:
        out = call(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 — exception IS the contract
        return (type(exc).__name__, str(exc))
    return ("ok", out if isinstance(out, bytes) else out.tobytes())


def _outcome(codec, data):
    return _result(codec.decode_block, data)


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
    ref = reference_rice_decode(data, k, len(v))
    assert np.array_equal(got, ref)
    assert np.array_equal(got, v)


@settings(max_examples=300, deadline=None)
@given(
    data=st.binary(min_size=0, max_size=48),
    k=st.integers(min_value=0, max_value=127),
    count=st.integers(min_value=0, max_value=40),
)
# values of 2**64 or more: quotient bits shifted past bit 63 (k = 63,
# q = 2; k = 64, q = 1) or a remainder wider than 64 bits (k = 127) —
# alone, before a truncation in a later value, and with the value's own
# remainder cut short (a truncation, not an overflow)
@example(data=b"\x20" + b"\xff" * 16, k=63, count=1)
@example(data=b"\x40" + b"\xff" * 16, k=64, count=5)
@example(data=b"\x80" + b"\xff" * 16, k=127, count=3)
@example(data=b"\x40\xff", k=64, count=1)
def test_rice_decode_matches_reference_on_garbage(data, k, count):
    """Arbitrary bytes under every k a 7-bit tag can carry (truncations,
    k > 30, values of 2**64 or more) must produce the same values or the
    same (exception type, message) as the per-bit walk."""
    assert _result(rice_decode, data, k, count) == _result(
        reference_rice_decode, data, k, count
    )


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
    slow = reference_mdct_synthesis(coeffs, length)
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
    """NaN/Inf coefficients: the batch kernel and the scalar walk
    produce identical bytes or the identical (type, message) error."""
    for bad in (np.nan, np.inf, -np.inf):
        x = np.zeros((3000, 1))
        x[7] = 0.25
        x[1500] = bad
        fast, slow = _pair(VorbisLikeCodec, quality=10)
        assert _result(fast.encode_block, x) == _result(slow.encode_block, x)


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


def test_mp3_nonfinite_input_same_outcome():
    """Mp3Like codes every band of its fixed ladder, so a non-finite
    sample reaches an exponent: the kernel raises the walk's error at
    the same band, in mono and stereo, and a finite block still encodes
    identically."""
    for channels in (1, 2):
        for bad in (np.nan, np.inf, -np.inf, None):
            x = np.zeros((3000, channels))
            x[7] = 0.25
            if bad is not None:
                x[1500, -1] = bad
            fast, slow = _pair(Mp3LikeCodec, bitrate_kbps=192)
            got = _result(fast.encode_block, x)
            assert got == _result(slow.encode_block, x)
            assert (got[0] == "ok") == (bad is None)


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
# and compare them with the scalar per-frame walks, run on a stand-in
# model that exposes just the edges and the chosen widths.


def _reference_encode(coeffs, edges, widths, entropy="fixed"):
    """The scalar encode loop on a stand-in model that exposes just the
    edges and hands out the chosen widths one frame at a time."""
    rows = iter(widths)
    model = SimpleNamespace(
        edges=np.asarray(edges, dtype=np.int64),
        n_bands=len(edges) - 1,
        band_energies=lambda frame: None,
        allocate_widths=lambda energies, quality: next(rows),
    )
    return vorbis_reference_encode(
        VorbisLikeCodec(entropy=entropy), np.asarray(coeffs), model
    )


def _reference_decode(data, offset, n_frames, edges):
    return vorbis_reference_decode_bands(
        data, offset, n_frames, np.asarray(edges, dtype=np.int64)
    )


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
    fast = VorbisLikeCodec(quality=7, entropy=entropy)
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
    # a truncated view raises the scalar walk's error, message included
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


@pytest.mark.parametrize("as_view", [False, True])
def test_first_error_in_wire_order(as_view):
    """The kernel raises the walk's error at the first bad band: a Rice
    band whose payload is truncated fails before the descriptor overrun
    that follows it, and each later failure mode wins once every band
    before it is sound."""
    edges = [0, 8, 16]
    rice_short = b"\x83\x00\x04\x00\xff"  # k = 3, 4 bytes claimed, 1 sent
    rice_long = b"\xc5\x00\x01\x00\x00"  # k = 69: 2**64 or more
    fixed_ok = b"\x08\x00" + bytes(8)  # width 8, all eight bins present
    streams = {
        "rice truncated, then descriptors overrun": rice_short,
        "rice too wide, then descriptors overrun": rice_long,
        "fixed band, then tag past the end": fixed_ok,
        "fixed band, then exponent past the end": fixed_ok + b"\x05",
        "fixed band, then Rice length past the end":
            fixed_ok + b"\x81\x00\x07",
        "width over 16": b"\x11\x00" + bytes(40),
        "fixed payload short": b"\x09\x00" + bytes(8),
        "rice band short, then fixed width over 16":
            b"\x82\x00\x01\x00\xff" + b"\x11\x00",
    }
    for name, body in streams.items():
        data = memoryview(body) if as_view else body
        got = _result(lambda d: decode_bands_batched(d, 0, 1, edges)[0],
                      data)
        want = _result(lambda d: _reference_decode(d, 0, 1, edges)[0],
                       data)
        assert got == want, name
        assert got[0] != "ok", name
    assert _result(
        lambda d: decode_bands_batched(d, 0, 1, edges)[0], rice_short
    )[1] == "rice stream truncated"


def test_encode_first_error_in_wire_order():
    """Encode fails at the first bad band like the walk: a Rice payload
    too long for its u16 length field (a 2**17-bin band) and a band with
    a non-finite peak, in either order; an uncoded (width 0) non-finite
    band is written inactive, without error."""
    n = 1 << 17
    rng = np.random.default_rng(17)
    dense = rng.integers(-7, 8, n).astype(np.float64)
    dense[0] = 32767.0  # width 16, exponent 0: the coefficients themselves
    nan_band = np.full(n, np.nan)
    edges = [0, n, 2 * n]
    for coeffs, widths, kind in (
        ([dense, nan_band], [16, 16], "error"),
        ([nan_band, dense], [16, 16], "ValueError"),
        ([nan_band, dense], [0, 16], "error"),
    ):
        coeffs = np.concatenate(coeffs)[None, :]
        widths = np.array([widths])
        got = _result(encode_bands_batched, coeffs, edges, widths,
                      use_rice=True)
        want = _result(_reference_encode, coeffs, edges, widths, "rice")
        assert got == want
        assert got[0] == kind  # struct.error is named "error"
