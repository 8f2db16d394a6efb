"""Span tracing of latent_guard from outside the package.

``Tracer.installed()`` replaces every function and method defined in the
traced modules with a wrapper that records a span (name, start, end,
parent).  Names a module imported from another module, such as
``cli.train`` or ``autoencoder.bce_loss_per_sample``, are replaced too, so a
call is traced whichever name it goes through.  Layer ``forward`` and
``backward`` spans carry the layer's position in the autoencoder
(``enc0`` .. ``enc7``, ``dec0`` .. ``dec9``), its kind, whether it ran in
training or inference mode, and the batch size.  ``serialization.write_arrays``
also counts the bytes it wrote.  Spans stay in memory;
``write`` dumps them when the run ends.  Leaving the context restores every
original, so code run afterwards is untraced.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
from time import perf_counter

PACKAGE = "latent_guard"

# the package modules, which are also the layers the benchmark reports on
MODULES = (
    "nn.ops", "nn.layers", "nn.losses", "nn.optim", "autoencoder", "trainer",
    "latent_stats", "novelty", "metrics", "data", "serialization", "bundle",
    "cli", "plot",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "n")

    def __init__(self, name, start, parent, n=0):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.n = n


class Tracer:
    def __init__(self):
        self.spans = []
        self.bytes_written = 0
        self._stack = []
        self._layer_labels = {}
        self._layers = []  # keeps labelled layers alive so ids stay unique

    # -- recording ---------------------------------------------------------

    def _open(self, name, n=0):
        span = Span(name, perf_counter(), self._stack[-1] if self._stack else -1, n)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span.end = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def region(self, name):
        """A span opened by the benchmark itself, e.g. around a phase."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        if name == "serialization.write_arrays":
            @functools.wraps(fn)
            def counted(path, *args, **kwargs):
                traced(path, *args, **kwargs)
                tracer.bytes_written += os.path.getsize(path)
            return counted
        return traced

    def _wrap_layer(self, kind, method, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(layer, x, *args, **kwargs):
            label = tracer._layer_labels.get(id(layer))
            if method == "backward":
                phase = "bwd"
            else:
                train = kwargs.get("train", args[0] if args else False)
                phase = "fwd" if train else "infer"
            where = f"{label}.{kind}" if label else kind
            span = tracer._open(f"nn.layers.{where}.{phase}", len(x))
            try:
                return fn(layer, x, *args, **kwargs)
            finally:
                tracer._close(span)

        return traced

    def label_layers(self, model):
        """Names the model's layers by position; models built while the
        tracer is installed are labelled automatically."""
        for prefix, stack in (("enc", model.encoder_layers), ("dec", model.decoder_layers)):
            for i, layer in enumerate(stack):
                self._layer_labels[id(layer)] = f"{prefix}{i}"
                self._layers.append(layer)

    def _labelling_init(self, init):
        @functools.wraps(init)
        def labelled(model, *args, **kwargs):
            init(model, *args, **kwargs)
            self.label_layers(model)

        return labelled

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        patches = []  # (owner, attribute, original value)
        wrapped = {}  # original function -> wrapper, for re-exported names
        layer_base = importlib.import_module(f"{PACKAGE}.nn.layers").Layer

        def patch(owner, attr, value):
            patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        for short in MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("__") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)
                    patch(module, attr, wrapped[obj])
                elif inspect.isclass(obj):
                    self._patch_class(short, obj, layer_base, patch)

        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    patch(module, attr, wrapped[obj])
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def _patch_class(self, short, cls, layer_base, patch):
        for attr, member in list(vars(cls).items()):
            if attr == "__init__" and cls.__name__ == "Autoencoder":
                patch(cls, attr, self._labelling_init(member))
                continue
            if attr.startswith("__"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if issubclass(cls, layer_base) and attr in ("forward", "backward"):
                patch(cls, attr, self._wrap_layer(cls.__name__, attr, member))
            elif isinstance(member, classmethod):
                patch(cls, attr, classmethod(self._wrap(name, member.__func__)))
            elif isinstance(member, staticmethod):
                patch(cls, attr, staticmethod(self._wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                patch(cls, attr, self._wrap(name, member))

    # -- output ------------------------------------------------------------

    def write(self, path):
        """Dumps the spans as JSON lines: name, start, end, parent, batch."""
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps([s.name, s.start, s.end, s.parent, s.n]) + "\n")


class SpanIndex:
    """Durations, self times and region membership over a finished trace."""

    def __init__(self, spans):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        self.self_time = [s.end - s.start - c for s, c in zip(spans, child_time)]

    def within(self, region):
        """Indices of spans nested (at any depth) inside spans named ``region``."""
        inside = [False] * len(self.spans)
        for i, s in enumerate(self.spans):
            p = s.parent
            inside[i] = p >= 0 and (inside[p] or self.spans[p].name == region)
        return {i for i, flag in enumerate(inside) if flag}

    def select(self, name=None, prefix=None, among=None):
        idx = range(len(self.spans)) if among is None else sorted(among)
        return [
            i for i in idx
            if (name is None or self.spans[i].name == name)
            and (prefix is None or self.spans[i].name.startswith(prefix))
        ]

    def total(self, indices):
        return sum(self.spans[i].end - self.spans[i].start for i in indices)

    def self_total(self, indices):
        return sum(self.self_time[i] for i in indices)

    def durations(self, indices):
        return [self.spans[i].end - self.spans[i].start for i in indices]
