"""A process that never runs the codec never imports SciPy.

The codec's transforms (``repro.codec.mdct``, ``Mp3LikeCodec``) import
``scipy.fft`` at their first call, not at ``import repro``, so raw-PCM
channels and the control plane run without mapping SciPy.  A fresh
interpreter builds and runs the ``churn`` perfbench workload (raw 8 kHz,
no codec) at its ``"small"`` size and must not have loaded ``scipy``;
then it encodes and decodes one VorbisLike and one Mp3Like block, after
which ``scipy`` is loaded, and the wire bytes and decoded samples equal
those this process computes.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.codec import Mp3LikeCodec, VorbisLikeCodec

ROOT = Path(__file__).resolve().parents[1]

_CHILD = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", "perfbench/workloads.py")
workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
inputs = workloads.make_inputs("churn", 1, size="small")
built = workloads.build(inputs)
built.system.run(until=inputs.until)
checks = workloads.outcome(built)["checks"]
after_run = "scipy" in sys.modules
from tests.test_codec_footprint import codec_digests
digests = codec_digests()
print(json.dumps({"checks": checks, "after_run": after_run,
                  "after_codec": "scipy" in sys.modules,
                  "digests": digests}))
"""


def codec_digests() -> dict:
    """Digests of one VorbisLike and one Mp3Like block's wire bytes and
    decoded samples (stereo, 0.1 s at 44.1 kHz)."""
    t = np.arange(4410) / 44100.0
    block = np.stack([0.5 * np.sin(2 * np.pi * 440 * t),
                      0.3 * np.sin(2 * np.pi * 1250 * t)], axis=1)
    out = {}
    for name, codec in (("vorbislike", VorbisLikeCodec(quality=6)),
                        ("mp3like", Mp3LikeCodec(192))):
        wire = codec.encode_block(block)
        samples = np.ascontiguousarray(codec.decode_block(wire))
        out[name] = [hashlib.blake2b(wire, digest_size=16).hexdigest(),
                     hashlib.blake2b(samples.tobytes(),
                                     digest_size=16).hexdigest()]
    return out


def test_codec_free_run_never_imports_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    child = json.loads(done.stdout.splitlines()[-1])
    assert all(child["checks"].values()), child["checks"]
    assert child["after_run"] is False
    assert child["after_codec"] is True
    assert child["digests"] == codec_digests()
