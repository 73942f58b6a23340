"""Spans and counters recorded from outside the drr package.

A `Tracer` replaces public functions and methods of the package with thin
wrappers, each bound at the name its caller looks up (a function imported
with `from .bits_back import fit` is looked up in the importing module, so
that module's attribute is the one wrapped).  Every wrapped call records a
span: name, start, end, parent span and operation id.  Spans stay in memory
until the run ends.  `installed()` restores every original on exit, and an
untraced run never creates a tracer at all.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from collections import defaultdict

# (span name, module, attribute path).  The span name's prefix is the layer.
TARGETS = [
    ("rans.push", "drr.rans", "AnsCoder.push"),
    ("rans.pop", "drr.rans", "AnsCoder.pop"),
    ("rans.pmf_quantize", "drr.bits_back", "pmf_quantize"),
    ("vq_codec.train_codec", "drr.learner", "train_codec"),
    ("vq_codec.train_codec", "drr", "train_codec"),
    ("vq_codec.encode_image", "drr.replay_store", "encode_image"),
    ("vq_codec.decode_codes", "drr.replay_store", "decode_codes"),
    ("bits_back.build_coding_tables", "drr.replay_store", "build_coding_tables"),
    ("bits_back.finetune", "drr.replay_store", "finetune"),
    ("bits_back.fit", "drr.bits_back", "fit"),
    ("bits_back.encode_stream", "drr.replay_store", "encode_stream"),
    ("bits_back.decode_stream", "drr.replay_store", "decode_stream"),
    ("bits_back.deserialize_stream", "drr.replay_store", "deserialize_stream"),
    ("replay_store.ingest_phase", "drr.replay_store", "ReplayBuffer.ingest_phase"),
    ("replay_store.save", "drr.replay_store", "ReplayBuffer.save"),
    ("replay_store.load", "drr.replay_store", "ReplayBuffer.load"),
    ("replay_store.account", "drr.replay_store", "ReplayBuffer.account"),
    ("replay_store.reconstruct_all", "drr.replay_store", "ReplayBuffer.reconstruct_all"),
    ("replay_store.reconstruct_class", "drr.replay_store", "ReplayBuffer.reconstruct_class"),
    ("learner.run_experiment", "drr.cli", "run_experiment"),
    ("learner.make_toy_dataset", "drr.cli", "make_toy_dataset"),
    ("learner.train_phase", "drr.learner", "train_phase"),
    ("learner.evaluate", "drr.learner", "evaluate"),
    ("cli.main", "drr.cli", "main"),
    ("cli.run_phases", "drr.cli", "cmd_run_phases"),
    ("cli.report", "drr.cli", "cmd_report"),
]

LAYERS = ("rans", "vq_codec", "bits_back", "replay_store", "learner", "cli")


def _count_files(directory: str) -> int:
    return sum(len(files) for _, _, files in os.walk(directory))


# Domain counters read off a wrapped call: (args, result) -> {counter: amount}.
COUNTERS = {
    "bits_back.encode_stream": lambda args, result: {
        "encode_symbols": result.symbol_count},
    "bits_back.decode_stream": lambda args, result: {
        "decode_symbols": args[0].symbol_count},
    "replay_store.save": lambda args, result: {
        "files_written": _count_files(args[1])},
}
# Counters kept as a maximum over the operation rather than a sum.
PEAKS = {
    "bits_back.encode_stream": lambda args, result: {
        "peak_demand_bits": result.peak_demand_bits},
}


class Tracer:
    """In-memory span log.  `op` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, op)
        self.counters: dict = defaultdict(float)  # (op, counter) -> total
        self.peaks: dict = {}  # (op, counter) -> max
        self.last_args: dict = {}  # span name -> arguments of its latest call
        self.op = None
        self._stack: list[int] = []

    def span(self, name: str, fn):
        """Run fn() as a span; returns its result."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def _wrap(self, name: str, original):
        tracer = self
        count = COUNTERS.get(name)
        peak = PEAKS.get(name)

        def wrapper(*args, **kwargs):
            tracer.last_args[name] = args
            result = tracer.span(name, lambda: original(*args, **kwargs))
            if count is not None:
                for key, amount in count(args, result).items():
                    tracer.counters[(tracer.op, key)] += amount
            if peak is not None:
                for key, value in peak(args, result).items():
                    slot = (tracer.op, key)
                    tracer.peaks[slot] = max(tracer.peaks.get(slot, value), value)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target; restore every original on exit."""
        saved = []
        try:
            for name, module, path in TARGETS:
                owner = sys.modules[module]
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                if isinstance(original, staticmethod):
                    replacement = staticmethod(self._wrap(name, original.__func__))
                else:
                    replacement = self._wrap(name, original)
                saved.append((owner, attr, original))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------

    def per_op(self) -> dict:
        """Per operation id: calls and inclusive seconds per span name, and
        self seconds per layer (a span's duration minus its children's)."""
        child = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = {}
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            entry = out.setdefault(op, {"calls": defaultdict(int),
                                        "seconds": defaultdict(float),
                                        "self": defaultdict(float)})
            duration = end - start
            entry["calls"][name] += 1
            entry["seconds"][name] += duration
            entry["self"][name.split(".", 1)[0]] += duration - child[index]
        return out

    def write(self, path: str) -> None:
        """One tab-separated line per span: name, start, end, parent, op."""
        with open(path, "w") as f:
            for name, start, end, parent, op in self.spans:
                f.write(f"{name}\t{start:.9f}\t{end:.9f}\t"
                        f"{'' if parent is None else parent}\t{op}\n")
