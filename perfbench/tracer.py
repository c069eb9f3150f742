"""Outside-in tracing of the conjparse library.

The tracer wraps the public functions of each library module, plus the
public methods of the classes those modules define, from outside the
library.  A function is wrapped once and the same wrapper is bound under
every name that refers to it: in the defining module and in every other
``conjparse`` module that imported it by name (``from .parser import
score_config`` binds ``training.score_config``).  Without that, calls
through the imported name would silently escape their span.

Each wrapper records a span: its call count, its duration and its self
time (duration minus the time covered by wrapped callees).  A few tiny,
very hot functions are only counted, so their cost stays in the caller's
self time instead of being dominated by the wrapper's own overhead.

Nothing is wrapped until ``install`` is called, and ``uninstall`` restores
every original binding.  Inside ``pause``, the wrappers pass calls straight
through, so the benchmark's own checking work stays out of the trace.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# The layers, as conjparse module names.  ``cli`` and ``corpus_stats`` are
# left out on purpose: the benchmark calls the library directly, so ``cli``
# does no work, and ``corpus_stats`` is not on any measured path.
LAYERS = ("treebank", "transitions", "conj_features", "resources", "model",
          "network", "kernels", "parser", "training", "evaluation")

# Spans that are counted, not timed.
COUNT_ONLY = frozenset({
    "kernels.cell_forward",
    "kernels.cell_backward",
    "treebank.is_projective",
    "resources.EmbeddingTable.lookup",
    "resources.LemmaLexicon.lemma_of",
    "resources.pos_class",
    "evaluation.is_punctuation",
    "model.Model.feature_dim",
    "model.Vocabulary.word_id",
    "model.Vocabulary.pos_id",
    "model.Vocabulary.count",
    "transitions.TransitionCodec.encode",
    "transitions.TransitionCodec.decode",
    "transitions.TransitionCodec.right_index",
})

Hook = Callable[["Tracer", tuple, object], None]


class Span:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


def _layer_of(module_name: str) -> Optional[str]:
    parts = module_name.split(".")
    if parts[0] != "conjparse" or len(parts) < 2 or parts[1] not in LAYERS:
        return None
    return parts[1]


def _public_callables(layer: str):
    """(span name, owner, attribute, raw attribute) for one layer.

    ``owner`` is None for module-level functions; for methods it is the
    class, and the raw attribute may be a classmethod or staticmethod.
    Instance methods of dataclasses are skipped: those classes are records
    (tokens, configurations, reports), and their accessors are cheap enough
    that a wrapper would cost more than the call.  Their time stays in the
    caller's self time.
    """
    module = importlib.import_module(f"conjparse.{layer}")
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_"):
            continue
        # Builtins too: a compiled kernel backend binds its cell functions here.
        if ((inspect.isfunction(obj) or inspect.isbuiltin(obj))
                and _layer_of(obj.__module__ or "") == layer):
            yield f"{layer}.{name}", None, name, obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, raw in sorted(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                bound = isinstance(raw, (classmethod, staticmethod))
                if not bound and dataclasses.is_dataclass(obj):
                    continue
                func = raw.__func__ if bound else raw
                if inspect.isfunction(func):
                    yield f"{layer}.{obj.__name__}.{attr}", obj, attr, raw


class Tracer:
    """Span statistics for every wrapped library function."""

    def __init__(self, hooks: Optional[Dict[str, Hook]] = None):
        self.spans: Dict[str, Span] = {}
        self.hooks = dict(hooks or {})
        # One frame per open timed span: [name, args, child seconds].
        self.stack: List[list] = []
        self.top_level_s = 0.0
        # While paused, wrappers record nothing; paused_s is the time spent so.
        self.paused = False
        self.paused_s = 0.0
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------

    def _timed(self, name: str, func):
        span = self.spans.setdefault(name, Span())
        stack = self.stack
        hook = self.hooks.get(name)

        def wrapper(*args, **kwargs):
            if self.paused:
                return func(*args, **kwargs)
            frame = [name, args, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                span.calls += 1
                span.self_s += elapsed - frame[2]
                if stack:
                    stack[-1][2] += elapsed
                else:
                    self.top_level_s += elapsed
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _counted(self, name: str, func):
        span = self.spans.setdefault(name, Span())

        def wrapper(*args, **kwargs):
            if not self.paused:
                span.calls += 1
            return func(*args, **kwargs)

        return wrapper

    def _wrap(self, name: str, func):
        wrapper = (self._counted if name in COUNT_ONLY else self._timed)(name, func)
        wrapper.__wrapped__ = func
        wrapper.__module__ = func.__module__
        wrapper.__name__ = getattr(func, "__name__", name)
        wrapper.__qualname__ = getattr(func, "__qualname__", name)
        wrapper.__doc__ = func.__doc__
        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        namespaces = [
            module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "conjparse" or name.startswith("conjparse."))
        ]
        for layer in LAYERS:
            for name, owner, attr, raw in list(_public_callables(layer)):
                if owner is not None:
                    if isinstance(raw, (classmethod, staticmethod)):
                        wrapped = type(raw)(self._wrap(name, raw.__func__))
                    else:
                        wrapped = self._wrap(name, raw)
                    self._restore.append((owner, attr, raw))
                    setattr(owner, attr, wrapped)
                    continue
                wrapper = self._wrap(name, raw)
                for module in namespaces:
                    for bound_name, value in list(vars(module).items()):
                        if value is raw:
                            self._restore.append((module, bound_name, raw))
                            setattr(module, bound_name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextmanager
    def pause(self):
        """Leave the calls made inside out of the trace.  Use it only
        between top-level calls: its time is taken out of no open span."""
        if self.stack:
            raise RuntimeError("pause inside an open span")
        self.paused = True
        start = perf_counter()
        try:
            yield
        finally:
            self.paused_s += perf_counter() - start
            self.paused = False

    # ------------------------------------------------------------------

    def calls(self, name: str) -> int:
        span = self.spans.get(name)
        return span.calls if span is not None else 0

    def self_s(self, name: str) -> float:
        span = self.spans.get(name)
        return span.self_s if span is not None else 0.0

    def parent_args(self, name: str) -> Optional[tuple]:
        """Arguments of the innermost open span called ``name``, if any."""
        for frame in reversed(self.stack):
            if frame[0] == name:
                return frame[1]
        return None


def installed_wrappers() -> List[str]:
    """Names of library callables currently bound to a tracer wrapper."""
    found = []
    for layer in LAYERS:
        for name, owner, attr, raw in _public_callables(layer):
            func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if hasattr(func, "__wrapped__"):
                found.append(name)
    return found
