"""Outside-in layer tracing for the traced benchmark pass.

The program is never edited to be measured.  During the traced pass a
:class:`Tracer` replaces chosen public entry points (module functions and
class methods of the ``repro`` package) with timing wrappers, and puts
every original back when the pass ends.  Each wrapped call records one
span: its name, the name of the wrapped call that caused it on the same
thread, start and end, its self time (duration minus the time of wrapped
calls nested inside it) and an optional work count such as rows.

Spans stay in memory; :meth:`Tracer.durations` and friends summarize them
into the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple


@dataclass(frozen=True)
class Span:
    name: str
    parent: Optional[str]
    start: float
    end: float
    self_seconds: float
    count: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _Frame:
    __slots__ = ("name", "child_seconds")

    def __init__(self, name: str):
        self.name = name
        self.child_seconds = 0.0


class Tracer:
    """Wraps entry points for one traced pass; use as a context manager.

    A call nested inside a wrapped call of the *same* name (recursion, or a
    method delegating to an overload) is passed through unrecorded, so the
    per-name totals never count the same interval twice.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        # (owner, attribute, value in owner's own namespace or _ABSENT,
        #  the original object the attribute resolved to)
        self._patches: List[Tuple[object, str, object, object]] = []

    # -- patching -------------------------------------------------------
    def wrap_function(
        self, module, attr: str, name: str, count: Optional[Callable] = None
    ) -> None:
        """Wrap a module-level function everywhere ``repro`` bound it.

        ``from x import f`` copies the binding, so every loaded ``repro``
        module whose attribute *is* the original gets the wrapper too.
        """
        original = getattr(module, attr)
        wrapper = self._make_wrapper(original, name, count)
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original, original))
                    setattr(mod, key, wrapper)

    def wrap_method(
        self, cls: type, attr: str, name: str, count: Optional[Callable] = None
    ) -> None:
        """Wrap a method on ``cls`` (inherited methods are shadowed, then
        un-shadowed on restore)."""
        own = cls.__dict__.get(attr, _ABSENT)
        original = getattr(cls, attr)
        self._patches.append((cls, attr, own, original))
        setattr(cls, attr, self._make_wrapper(original, name, count))

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, own, _ = self._patches.pop()
            if own is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def wrapped_entry_points(self) -> List[Tuple[object, str, object, object]]:
        """The current patch list (for :func:`all_restored`)."""
        return list(self._patches)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _make_wrapper(self, original, name: str, count: Optional[Callable]):
        local = self._local
        spans = self.spans

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if any(frame.name == name for frame in stack):
                return original(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = _Frame(name)
            stack.append(frame)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                seconds = end - start
                if parent is not None:
                    parent.child_seconds += seconds
                spans.append(
                    Span(
                        name,
                        None if parent is None else parent.name,
                        start,
                        end,
                        seconds - frame.child_seconds,
                        0 if count is None else int(count(args, kwargs)),
                    )
                )

        return wrapper

    # -- summaries ------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def total_seconds(self, *names: str) -> float:
        """Wall time in ``names`` spans, not counting one nested in another."""
        return sum(
            span.seconds
            for span in self.spans
            if span.name in names and span.parent not in names
        )

    def durations(self, name: str) -> List[float]:
        return [span.seconds for span in self.named(name)]

    def self_times(self, name: str) -> List[float]:
        return [span.self_seconds for span in self.named(name)]

    def total_count(self, name: str) -> int:
        return sum(span.count for span in self.named(name))

    def child_seconds(self, parent: str, *names: str) -> float:
        """Time of ``names`` spans called directly from ``parent`` spans."""
        return sum(
            span.seconds
            for span in self.spans
            if span.parent == parent and span.name in names
        )


_ABSENT = object()


def all_restored(patches) -> bool:
    """True when every patched attribute is its original object again."""
    for owner, attr, own, original in patches:
        if own is _ABSENT:
            if attr in vars(owner) or getattr(owner, attr) is not original:
                return False
        elif vars(owner).get(attr) is not own:
            return False
    return True
