"""In-memory spans recorded around the program's public calls.

A traced run swaps the listed module attributes of ``pedbank`` for thin
wrappers while a traced iteration runs, so calls made inside ``cli.main``
and inside ``train_hints`` are recorded too. Nothing in the package is
edited. Each span holds its id, parent span id, request id, name, start,
end and optional attributes. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import json
import os
from time import perf_counter


def _size(path) -> int:
    return os.path.getsize(path)


# (module, attribute, span name, attributes(args, result) or None)
PATCHES = (
    ("embeddings", "parse_embedding_file", "embeddings.parse_embedding_file",
     lambda a, r: {"bytes": _size(a[0])}),
    ("embeddings", "split_by_label", "embeddings.split_by_label", None),
    ("quantizer", "kmeans_with_objectives", "quantizer.kmeans_with_objectives",
     lambda a, r: {"iterations": len(r[1]) - 1}),
    ("quantizer", "assignment_report", "quantizer.assignment_report", None),
    ("hints", "quantize", "quantizer.quantize", None),  # routing inside train_hints
    ("hints", "train_hints", "hints.train_hints", lambda a, r: {"steps": a[3].steps}),
    ("hints", "forward_classify", "hints.forward_classify", None),
    ("hints", "backward", "hints.backward", None),
    ("hints", "write_history", "hints.write_history", lambda a, r: {"bytes": _size(a[1])}),
    ("bank", "assemble_bank", "bank.assemble_bank", None),
    ("bank", "save_bank", "bank.save_bank", lambda a, r: {"bytes": _size(a[1])}),
    ("bank", "load_bank", "bank.load_bank", lambda a, r: {"bytes": _size(a[0])}),
    ("attention", "init_attention", "attention.init_attention", None),
    ("attention", "load_feature_batch", "attention.load_feature_batch",
     lambda a, r: {"bytes": _size(a[0])}),
    ("attention", "save_feature_batch", "attention.save_feature_batch",
     lambda a, r: {"bytes": _size(a[1])}),
    ("attention", "cross_attend", "attention.cross_attend",
     lambda a, r: {"rows": a[0].m * a[0].h * a[0].w}),
)

ID, PARENT, REQUEST, NAME, START, END, ATTRS = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else -1,
               self.request, name, 0.0, 0.0, None]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        rec[START] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, fn, name: str, attrs):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if attrs is not None:
                rec[ATTRS] = attrs(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, package):
        """Route the PATCHES attributes through span wrappers, then restore."""
        saved = []
        try:
            for module_name, attr, name, attrs in PATCHES:
                module = getattr(package, module_name)
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(original, name, attrs))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        return {rec[ID]: rec[END] - rec[START] - child[rec[ID]] for rec in self.spans}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["id", "parent", "request", "name", "start", "end", "attrs"],
                 "spans": self.spans},
                fh, separators=(",", ":"),
            )
            fh.write("\n")
