"""Sample codecs: linear, mu-law, A-law round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audio import AudioEncoding, AudioParams, decode_samples, encode_samples
from repro.audio.encodings import (
    alaw_decode,
    alaw_encode,
    mulaw_decode,
    mulaw_encode,
)


def ramp(n=1000):
    return np.linspace(-1.0, 1.0, n)


def test_slinear16_round_trip_is_near_exact():
    params = AudioParams(AudioEncoding.SLINEAR16, 44100, 1)
    x = ramp()
    y = decode_samples(encode_samples(x, params), params)
    assert np.max(np.abs(y[:, 0] - x)) < 1 / 32767 + 1e-9


def test_slinear16_wire_size():
    params = AudioParams(AudioEncoding.SLINEAR16, 44100, 2)
    data = encode_samples(np.zeros((100, 2)), params)
    assert len(data) == 400


def test_slinear8_round_trip():
    params = AudioParams(AudioEncoding.SLINEAR8, 8000, 1)
    x = ramp()
    y = decode_samples(encode_samples(x, params), params)
    assert np.max(np.abs(y[:, 0] - x)) < 1 / 127 + 1e-9


def test_ulinear8_round_trip():
    params = AudioParams(AudioEncoding.ULINEAR8, 8000, 1)
    x = ramp()
    y = decode_samples(encode_samples(x, params), params)
    assert np.max(np.abs(y[:, 0] - x)) < 1 / 127 + 1e-9


def test_mulaw_round_trip_small_relative_error():
    """Companding keeps relative error roughly constant across magnitudes."""
    x = np.array([-0.9, -0.5, -0.01, -0.001, 0.001, 0.01, 0.5, 0.9])
    y = mulaw_decode(mulaw_encode(x))
    assert np.all(np.abs(y - x) < 0.05 * np.abs(x) + 0.002)


def test_mulaw_preserves_sign():
    x = np.array([-0.7, -0.1, 0.1, 0.7])
    y = mulaw_decode(mulaw_encode(x))
    assert np.all(np.sign(y) == np.sign(x))


def test_mulaw_codewords_are_complemented():
    """G.711 transmits inverted codes: positive max -> 0x80 pattern."""
    codes = mulaw_encode(np.array([1.0]))
    assert codes.dtype == np.uint8
    assert codes[0] == (~np.uint8(0x7F)) & 0xFF


def test_alaw_round_trip():
    x = np.array([-0.9, -0.5, -0.05, 0.05, 0.5, 0.9])
    y = alaw_decode(alaw_encode(x))
    assert np.all(np.abs(y - x) < 0.05 * np.abs(x) + 0.01)


def test_mulaw_better_than_linear8_for_quiet_signals():
    """The whole point of companding: more resolution near zero."""
    quiet = np.full(100, 0.003)
    mu = mulaw_decode(mulaw_encode(quiet))
    lin_params = AudioParams(AudioEncoding.SLINEAR8, 8000, 1)
    lin = decode_samples(encode_samples(quiet, lin_params), lin_params)[:, 0]
    assert np.mean(np.abs(mu - quiet)) < np.mean(np.abs(lin - quiet))


def test_mono_input_duplicated_to_stereo_device():
    params = AudioParams(AudioEncoding.SLINEAR16, 44100, 2)
    x = ramp(10)
    y = decode_samples(encode_samples(x, params), params)
    assert y.shape == (10, 2)
    assert np.allclose(y[:, 0], y[:, 1])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64),
             min_size=0, max_size=100),
    st.sampled_from(list(AudioEncoding)),
    st.booleans(),
)
def test_property_mono_to_stereo_equals_explicit_repeat(values, encoding,
                                                        column):
    """A mono signal encoded for a stereo device gives exactly the bytes
    of the same signal repeated into both channels by the caller, for
    every encoding and any value (out of range, NaN and inf included):
    the widening happens after per-sample quantisation, which must not
    change a byte."""
    stereo = AudioParams(encoding, 8000, 2)
    x = np.array(values, dtype=np.float64)
    mono = x[:, np.newaxis] if column else x
    explicit = np.repeat(x[:, np.newaxis], 2, axis=1)
    with np.errstate(invalid="ignore"):
        assert encode_samples(mono, stereo) == \
            encode_samples(explicit, stereo)


def test_channel_mismatch_rejected():
    params = AudioParams(AudioEncoding.SLINEAR16, 44100, 1)
    with pytest.raises(ValueError):
        encode_samples(np.zeros((10, 2)), params)


def test_out_of_range_samples_are_clipped():
    params = AudioParams(AudioEncoding.SLINEAR16, 44100, 1)
    y = decode_samples(encode_samples(np.array([5.0, -5.0]), params), params)
    assert y[0, 0] == pytest.approx(1.0, abs=1e-4)
    assert y[1, 0] == pytest.approx(-1.0, abs=1e-4)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=2,
        max_size=200,
    ).filter(lambda xs: len(xs) % 2 == 0),
    st.sampled_from(list(AudioEncoding)),
)
def test_property_round_trip_error_bounded(values, encoding):
    """Every encoding round-trips any in-range signal within its quantiser
    step (generous bound covers companded codecs)."""
    params = AudioParams(encoding, 8000, 1)
    x = np.array(values)
    y = decode_samples(encode_samples(x, params), params)[:, 0]
    bound = 1 / 32000 if encoding is AudioEncoding.SLINEAR16 else 0.06
    assert np.max(np.abs(y - x)) <= bound


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=255))
def test_property_mulaw_decode_encode_is_stable_on_codewords(code):
    """Decode->encode->decode reproduces the same reconstruction value for
    every codeword (codewords for +0 and -0 alias to the same sample)."""
    c = np.array([code], dtype=np.uint8)
    once = mulaw_decode(c)
    twice = mulaw_decode(mulaw_encode(once))
    assert np.allclose(once, twice)
