"""Layer wrappers and the in-memory span recorder of the traced run.

The benchmark never edits the program to trace it.  Instead :func:`install`
replaces each layer's public entry points (methods on the layer's classes,
module functions wherever a ``repro`` module imported them by name) with a
wrapper that records one span per call: name, layer, start, end, parent span
and request id.  The returned handle's ``uninstall`` puts the originals
back.

A span's parent is the innermost open span *on the same thread*, so a
layer's self time is its span's duration minus the durations of its direct
children.  Spans inherit the request id of their parent unless the wrapped
call's arguments identify a request (see ``Recorder.request_ids``).

The same wrapping machinery carries fault injection for the benchmark's own
self-checks: ``install(None, delays={"scanner.pipeline.scan_prefix": s})``
wraps only the delayed entry point and sleeps ``s`` seconds per call.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


def _rows(value: Any) -> int:
    return len(value) if value is not None else 0


def _prefix_rows(args: tuple, kwargs: dict) -> int:
    prefix_len = kwargs.get("prefix_len", args[2] if len(args) > 2 else 32)
    return 1 << (32 - prefix_len)


def _batch_rows(batches: Any) -> int:
    return sum(len(batch) for batch in batches)


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point.

    Attributes:
        key: ``<layer>.<function>`` -- the span name.
        layer: the layer the call belongs to (a ``repro`` module path).
        owner: ``module:attribute`` path of the class or module holding it.
        attr: attribute name of the wrapped callable.
        rows_in: counts the call's input rows from ``(args, kwargs)``, where
            ``args`` excludes ``self``.
        rows_out: counts the call's output rows from its return value.
        listify: index of a positional argument that may be a one-shot
            iterable; the wrapper materializes it so ``rows_in`` can count
            it without consuming the callee's input.
        request_arg: index of the positional argument whose identity names
            the request the call serves (looked up in
            ``Recorder.request_ids``).

    Argument indices count from the first argument after ``self``/``cls``
    for class attributes (``owner`` names a class) and from the first
    argument for module functions.
    """

    key: str
    layer: str
    owner: str
    attr: str
    rows_in: Optional[Callable[[tuple, dict], int]] = None
    rows_out: Optional[Callable[[Any], int]] = None
    listify: Optional[int] = None
    request_arg: Optional[int] = None

    @property
    def offset(self) -> int:
        """Positional slots taken by ``self``/``cls`` (0 for functions)."""
        return 1 if ":" in self.owner else 0


#: Every layer entry point the traced run wraps, in layer order.
ENTRIES: Tuple[Entry, ...] = (
    Entry("scanner.pipeline.scan_prefix", "scanner.pipeline",
          "repro.scanner.pipeline:ScanPipeline", "scan_prefix"),
    Entry("scanner.pipeline.scan_pair_batches", "scanner.pipeline",
          "repro.scanner.pipeline:ScanPipeline", "scan_pair_batches"),
    Entry("scanner.zmap.scan_prefix", "scanner.zmap",
          "repro.scanner.zmap:ZMapSimulator", "scan_prefix",
          rows_in=_prefix_rows, rows_out=_rows),
    Entry("scanner.zmap.scan_pair_batch_columns", "scanner.zmap",
          "repro.scanner.zmap:ZMapSimulator", "scan_pair_batch_columns",
          rows_in=lambda a, k: _batch_rows(a[0]), rows_out=lambda r: len(r[0]),
          listify=0),
    Entry("scanner.lzr.fingerprint_many", "scanner.lzr",
          "repro.scanner.lzr:LZRSimulator", "fingerprint_many",
          rows_in=lambda a, k: len(a[0]), rows_out=_rows, listify=0),
    Entry("scanner.lzr.fingerprint_batch_columns", "scanner.lzr",
          "repro.scanner.lzr:LZRSimulator", "fingerprint_batch_columns",
          rows_in=lambda a, k: len(a[0]), rows_out=_rows),
    Entry("scanner.zgrab.grab_many", "scanner.zgrab",
          "repro.scanner.zgrab:ZGrabSimulator", "grab_many",
          rows_in=lambda a, k: len(a[0]), rows_out=_rows, listify=0),
    Entry("scanner.zgrab.grab_batch_columns", "scanner.zgrab",
          "repro.scanner.zgrab:ZGrabSimulator", "grab_batch_columns",
          rows_in=lambda a, k: len(a[0]), rows_out=_rows),
    Entry("scanner.filtering.filter", "scanner.filtering",
          "repro.scanner.filtering:PseudoServiceFilter", "filter",
          rows_in=lambda a, k: len(a[0]), rows_out=_rows, listify=0),
    Entry("scanner.filtering.filter_batch", "scanner.filtering",
          "repro.scanner.filtering:PseudoServiceFilter", "filter_batch",
          rows_in=lambda a, k: len(a[0]), rows_out=_rows),
    Entry("core.features.extract_host_features_columns", "core.features",
          "repro.core.features", "extract_host_features_columns",
          rows_out=_rows),
    Entry("core.model.build_model_with_engine", "core.model",
          "repro.core.model", "build_model_with_engine",
          rows_out=lambda model: len(model.cooccurrence)),
    Entry("core.priors.build_priors_plan_with_engine", "core.priors",
          "repro.core.priors", "build_priors_plan_with_engine",
          rows_out=_rows),
    Entry("core.predictions.build_prediction_index_with_engine",
          "core.predictions", "repro.core.predictions",
          "build_prediction_index_with_engine", rows_out=_rows),
    Entry("core.predictions.predict", "core.predictions",
          "repro.core.predictions:PredictiveFeatureIndex", "predict",
          rows_in=lambda a, k: len(a[0]), rows_out=_rows, listify=0),
    Entry("core.gps.run", "core.gps", "repro.core.gps:GPS", "run"),
    Entry("engine.runtime.load_shards", "engine.runtime",
          "repro.engine.runtime:EngineRuntime", "load_shards"),
    Entry("engine.runtime.load_shards_from_snapshot", "engine.runtime",
          "repro.engine.runtime:EngineRuntime", "load_shards_from_snapshot"),
    Entry("engine.runtime.execute", "engine.runtime",
          "repro.engine.runtime:EngineRuntime", "execute"),
    Entry("engine.runtime.unload", "engine.runtime",
          "repro.engine.runtime:EngineRuntime", "unload"),
    Entry("engine.snapshot.open_snapshot", "engine.snapshot",
          "repro.engine.snapshot", "open_snapshot",
          rows_out=lambda snap: sum(column.nbytes
                                    for name in snap.sections()
                                    for column in snap.column_files(name))),
    Entry("engine.snapshot.from_snapshot", "engine.snapshot",
          "repro.serving.registry:PreparedModel", "from_snapshot",
          request_arg=2),
    Entry("serving.registry.build_prepared_model", "serving.registry",
          "repro.serving.registry", "build_prepared_model", request_arg=2),
    Entry("serving.registry.predict", "serving.registry",
          "repro.serving.registry:PreparedModel", "predict",
          request_arg=0),
)

ENTRY_KEYS = frozenset(entry.key for entry in ENTRIES)


@dataclass
class Span:
    """One recorded call."""

    key: str
    layer: str
    start: float
    end: float
    parent: int
    rid: Optional[int]
    thread: int
    rows_in: int = 0
    rows_out: int = 0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Recorder:
    """Collects spans in memory; :meth:`write` dumps them when the run ends.

    ``request_ids`` maps ``id(obj)`` of a request-identifying argument (a
    lookup's observation tuple, a swap's seed or snapshot path) to the
    request's number; the workload fills it before sending the request.
    ``default_rid`` labels root spans of sequential work (one GPS run).
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.request_ids: Dict[int, int] = {}
        self.default_rid: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, entry: Entry, func: Callable, args: tuple, kwargs: dict) -> Any:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        rid = None
        call_args = args[entry.offset:]
        if entry.request_arg is not None and len(call_args) > entry.request_arg:
            rid = self.request_ids.get(id(call_args[entry.request_arg]))
        if rid is None:
            rid = self.spans[parent].rid if parent >= 0 else self.default_rid
        span = Span(entry.key, entry.layer, 0.0, 0.0, parent, rid,
                    threading.get_ident())
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        span.start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent >= 0:
                self.spans[parent].child_s += span.duration
        if entry.rows_in is not None:
            span.rows_in = entry.rows_in(call_args, kwargs)
        if entry.rows_out is not None:
            span.rows_out = entry.rows_out(result)
        return result

    def write(self, path: str) -> None:
        """Write every span as JSON (one object per span, parent by index)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([{"name": s.key, "layer": s.layer, "start": s.start,
                        "end": s.end, "parent": s.parent, "rid": s.rid,
                        "thread": s.thread, "rows_in": s.rows_in,
                        "rows_out": s.rows_out} for s in self.spans], handle)


def _resolve(owner: str) -> Any:
    module_name, _, attr = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, attr) if attr else module


def _make_wrapper(entry: Entry, func: Callable, recorder: Optional[Recorder],
                  delay: float) -> Callable:
    target = func
    if delay:
        # The delay sleeps inside the span, so the trace charges it to the
        # delayed layer.
        def target(*args, **kwargs):
            time.sleep(delay)
            return func(*args, **kwargs)

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        index = None if entry.listify is None else entry.listify + entry.offset
        if index is not None and len(args) > index:
            args = args[:index] + (list(args[index]),) + args[index + 1:]
        if recorder is None:
            return target(*args, **kwargs)
        return recorder.call(entry, target, args, kwargs)
    return wrapper


class Installed:
    """Handle of installed wrappers; :meth:`uninstall` restores originals."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def patch(self, target: Any, attr: str, value: Any) -> None:
        self._undo.append((target, attr, target.__dict__[attr]
                           if isinstance(target, type) else getattr(target, attr)))
        setattr(target, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)


def wrap_callable(installed: Installed, owner: Any, attr: str,
                  make: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.attr`` by ``make(original)``.

    Class attributes keep their ``classmethod`` / ``staticmethod`` kind.  A
    module function is also replaced in every loaded ``repro`` module that
    imported it by name, so callers holding the name see the wrapper too.
    """
    if isinstance(owner, type):
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            installed.patch(owner, attr, type(raw)(make(raw.__func__)))
        else:
            installed.patch(owner, attr, make(raw))
        return
    original = getattr(owner, attr)
    wrapped = make(original)
    for name, module in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) \
                and getattr(module, attr, None) is original:
            installed.patch(module, attr, wrapped)


def install(recorder: Optional[Recorder],
            delays: Optional[Dict[str, float]] = None) -> Installed:
    """Wrap the layer entry points.

    With a ``recorder`` every entry in :data:`ENTRIES` records spans; with
    ``recorder=None`` only the entries named in ``delays`` are wrapped, and
    they only sleep.  ``delays`` maps an entry key to seconds slept per call.
    """
    delays = dict(delays or {})
    unknown = set(delays) - ENTRY_KEYS
    if unknown:
        raise ValueError(f"unknown layer entries: {sorted(unknown)}")
    installed = Installed()
    for entry in ENTRIES:
        delay = delays.get(entry.key, 0.0)
        if recorder is None and not delay:
            continue
        wrap_callable(installed, _resolve(entry.owner), entry.attr,
                      lambda func, entry=entry, delay=delay:
                      _make_wrapper(entry, func, recorder, delay))
    return installed


def layer_totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span key: calls, total duration and rows in and out."""
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = totals.setdefault(span.key, {"calls": 0, "total_s": 0.0,
                                           "rows_in": 0, "rows_out": 0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["rows_in"] += span.rows_in
        row["rows_out"] += span.rows_out
    return totals
