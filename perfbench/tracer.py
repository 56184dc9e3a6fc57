"""Spans recorded from outside the program, around calls into each layer.

Nothing under ``src/`` knows about this module.  :func:`install` swaps
the public functions and methods named in :data:`TARGETS` for timing
wrappers, and rebinds every module attribute that still points at an
original, because ``from x import f`` copies the name into the
importing module.  Methods are patched on the class that defines them.

Each wrapped call is a span.  A span's self time is its duration minus
the time of the spans opened inside it on the same thread, so the self
time of ``find_collisions`` is the tuple marshalling around its engine
children.  Per-point helpers such as ``as_intvec`` or ``slot_of`` are
never wrapped: wrapping them would cost more than they do, and their
cost already shows in their caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import Counter

#: (span name, module, attribute path).  A dotted attribute path is a
#: method, patched on the class that defines it.
TARGETS = (
    # repro.service.transport — the wire codec and framing.
    ("transport.encode_request", "repro.service.transport.wire",
     "encode_request"),
    ("transport.encode_bulk", "repro.service.transport.wire",
     "encode_bulk"),
    ("transport.write_frame", "repro.service.transport.wire",
     "write_frame"),
    ("transport.read_frame", "repro.service.transport.wire", "read_frame"),
    ("transport.decode_result", "repro.service.transport.wire",
     "decode_result"),
    ("transport.decode_request", "repro.service.transport.wire",
     "decode_request"),
    ("transport.encode_result", "repro.service.transport.wire",
     "encode_result"),
    ("transport.server_handle", "repro.service.transport.server",
     "ServiceSink.handle"),
    # repro.api — the Session facade.
    ("api.assign", "repro.api", "Session.assign"),
    ("api.verify", "repro.api", "Session.verify"),
    ("api.edit", "repro.api", "Session.edit"),
    # repro.core — point marshalling and the slab loop.
    ("core.find_collisions", "repro.core.schedule", "find_collisions"),
    ("core.stream", "repro.core.certify", "stream_box_collisions"),
    # repro.engine — slot lookup, box encoding, scan and MAC kernels.
    ("engine.slot_lookup", "repro.engine.slots", "CosetTable.lookup"),
    ("engine.encode", "repro.engine.encode", "BoxEncoder.__init__"),
    ("engine.keys_array", "repro.engine.encode", "BoxEncoder.keys_array"),
    ("engine.scan", "repro.engine.collisions", "scan_collisions"),
    ("engine.randmac", "repro.engine.randmac", "bernoulli_block"),
    ("engine.randmac", "repro.engine.randmac", "masked_bernoulli_block"),
    ("engine.randmac", "repro.engine.randmac", "uniform_block"),
    # repro.utils — window generation.
    ("utils.box_points", "repro.utils.vectors", "box_points"),
    ("utils.bounding_box", "repro.utils.vectors", "bounding_box"),
    # repro.net — the slotted simulator.  run() calls the per-slot body
    # directly, so the slot loop is the self time of run().
    ("net.run", "repro.net.simulator", "BroadcastSimulator.run"),
    ("net.decide", "repro.net.protocols", "MACProtocol.decision_block"),
    ("net.decide", "repro.net.protocols", "SlottedAloha.decision_block"),
    ("net.decide", "repro.net.protocols", "CSMALike.decision_block"),
)

#: ``box_points`` is a generator: the wrapper drains it inside the span,
#: so the span times the point generation, not the generator's creation.
_MATERIALIZE = frozenset({"utils.box_points"})


class Tracer:
    """Per-name span totals: calls, total seconds, self seconds.

    Spans nest per thread.  A span whose name is already open on the
    thread (a ``super()`` call into the base class's method) is not
    recorded again, so totals never count one interval twice.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        #: (parent span, child span) call counts.
        self.nested: Counter = Counter()
        #: Counts taken from return values (``VerificationReport.source``).
        self.outcomes: Counter = Counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, function, *, materialize: bool = False,
             exclude_io: bool = False):
        """A timing wrapper around ``function``, recording span ``name``.

        ``exclude_io`` is for the frame reader: its first argument, the
        stream, is passed through a proxy that times the blocking reads,
        and that time is left out of the span, so waiting for the peer
        counts as socket time, not as decode time.
        """
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            stack = tracer._stack()
            if any(frame[0] == name for frame in stack):
                return function(*args, **kwargs)
            stream = None
            if exclude_io:
                stream = _TimedStream(args[0])
                args = (stream,) + args[1:]
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
                if materialize:
                    result = iter(list(result))
            finally:
                elapsed = time.perf_counter() - start
                if stream is not None:
                    elapsed -= stream.wait
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                with tracer._lock:
                    tracer.calls[name] += 1
                    tracer.total[name] += elapsed
                    tracer.self_time[name] += elapsed - frame[1]
                    if parent is not None:
                        tracer.nested[(parent[0], name)] += 1
            source = getattr(result, "source", None)
            if name == "api.verify" and isinstance(source, str):
                with tracer._lock:
                    tracer.outcomes[f"verify_source.{source}"] += 1
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def snapshot(self) -> dict:
        """Cumulative totals as plain JSON-able data."""
        with self._lock:
            return {
                "calls": dict(self.calls),
                "total": dict(self.total),
                "self": dict(self.self_time),
                "nested": {f"{parent}>{child}": count for
                           (parent, child), count in self.nested.items()},
                "outcomes": dict(self.outcomes),
            }


class _TimedStream:
    """A reader proxy that adds up the time its reads block."""

    def __init__(self, raw) -> None:
        self._raw = raw
        self.wait = 0.0

    def readline(self, *args):
        start = time.perf_counter()
        try:
            return self._raw.readline(*args)
        finally:
            self.wait += time.perf_counter() - start

    def read(self, *args):
        start = time.perf_counter()
        try:
            return self._raw.read(*args)
        finally:
            self.wait += time.perf_counter() - start


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind it at each import site.

    Import sites are found by identity over the loaded ``repro``
    modules, so the whole package is imported first.
    """
    for module_name in sorted({module for _, module, _ in TARGETS}):
        importlib.import_module(module_name)
    importlib.import_module("repro")
    importlib.import_module("repro.service.transport.client")
    replaced = {}
    for name, module_name, path in TARGETS:
        owner = sys.modules[module_name]
        *class_path, attribute = path.split(".")
        for part in class_path:
            owner = getattr(owner, part)
        original = owner.__dict__[attribute] if class_path \
            else getattr(owner, attribute)
        if getattr(original, "__wrapped_by_perfbench__", False):
            continue
        wrapper = tracer.wrap(
            name, original, materialize=name in _MATERIALIZE,
            exclude_io=path == "read_frame")
        setattr(owner, attribute, wrapper)
        if not class_path:
            replaced[id(original)] = (original, wrapper)
    for module in list(sys.modules.values()):
        module_name = getattr(module, "__name__", "")
        if not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            entry = replaced.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attribute, entry[1])
