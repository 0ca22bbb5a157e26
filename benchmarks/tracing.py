"""Per-layer tracing from outside the program.

A Tracer swaps the public calls listed in TRACED for timing wrappers, in
every module namespace that looks them up, and puts the originals back on
uninstall. Each wrapped call adds to `<call>.calls` and to `<call>.ms`,
its busy time: wall time from entry to return, children included. A few
calls also count work: the (row, step) pairs handed to the recurrent
encoder and how many of them are valid, and the bytes each checkpoint
write leaves on disk.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import numpy as np

from ambispeech import (autodiff, checkpoint, corpus, encoders, features, models,
                        synth, training)

# metric name -> (owner whose attribute is wrapped, attribute, further owners
# that bound the same function under that attribute by import)
TRACED = {
    "synth.generate_synthetic": (synth, "generate_synthetic", ()),
    "synth.render_utterance": (synth, "render_utterance", ()),
    "features.read_wav": (features, "read_wav", ()),
    "features.audio_frame_matrix": (features, "audio_frame_matrix", ()),
    "features.save_feature_sequence": (features, "save_feature_sequence", ()),
    "features.load_feature_sequence": (features, "load_feature_sequence", ()),
    "features.encode_sparse": (features, "encode_sparse", ()),
    "corpus.load_manifest": (corpus, "load_manifest", ()),
    "corpus.featurize_corpus": (corpus, "featurize_corpus", ()),
    "encoders.bre_forward": (encoders, "bre_forward", (models,)),
    "encoders.attend": (encoders, "attend", (models,)),
    "models.IntentClassifier.forward": (models.IntentClassifier, "forward", ()),
    "models.save_model": (models, "save_model", ()),
    "models.load_model": (models, "load_model", ()),
    "autodiff.Tensor.backward": (autodiff.Tensor, "backward", ()),
    "training.cross_entropy": (training, "cross_entropy", ()),
    "training.Adam.step": (training.Adam, "step", ()),
    "training.evaluate": (training, "evaluate", ()),
    "checkpoint.save_params": (checkpoint, "save_params", ()),
}


def _count_steps(tracer: "Tracer", args, kwargs) -> None:
    x = args[0]
    mask = args[2] if len(args) > 2 else kwargs.get("mask")
    m = np.asarray(x.mask if mask is None else mask)
    tracer.counts["encoders.steps_total"] += int(m.size)
    tracer.counts["encoders.steps_valid"] += int(np.count_nonzero(m))


def _count_bytes(tracer: "Tracer", args, kwargs) -> None:
    tracer.counts["checkpoint.bytes_written"] += os.path.getsize(args[0])


BEFORE = {"encoders.bre_forward": _count_steps}
AFTER = {"checkpoint.save_params": _count_bytes}


class Tracer:
    """Accumulates calls, busy milliseconds and counts while installed."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.ms: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.phase = ""  # the runner's current phase; calls are also kept per phase
        self.phase_calls: dict[tuple[str, str], int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        before, after = BEFORE.get(name), AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ms[name] += (time.perf_counter() - t0) * 1e3
                self.calls[name] += 1
                self.phase_calls[self.phase, name] += 1
            if after is not None:
                after(self, args, kwargs)
            return out

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        for name, (owner, attr, also) in TRACED.items():
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for target in (owner, *also):
                if getattr(target, attr) is not original:
                    raise RuntimeError(f"{target.__name__}.{attr} is not {name}")
                self._restore.append((target, attr, original))
                setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every traced call's count and busy time, and every work count."""
        out: dict[str, tuple[float, str]] = {}
        for name in TRACED:
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
            out[f"{name}.ms"] = (self.ms.get(name, 0.0), "ms")
        out["encoders.steps_total"] = (self.counts.get("encoders.steps_total", 0), "count")
        out["encoders.steps_valid"] = (self.counts.get("encoders.steps_valid", 0), "count")
        out["checkpoint.bytes_written"] = (self.counts.get("checkpoint.bytes_written", 0), "bytes")
        return out
