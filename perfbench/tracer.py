"""In-memory span recorder that wraps speclab's public functions.

:meth:`SpanRecorder.install` replaces each traced function at every speclab
module attribute that holds it (``next_distribution`` is imported under
``speclab.models``, ``.drafting``, ``.verification``, ``.training`` and the
package itself), plus two ``DecodeTrace`` methods, and :meth:`uninstall`
puts the originals back. Each call becomes a span with its name, start, end,
parent span and the benchmark operation (call id) that caused it. Spans nest
strictly because the benchmark is single threaded, so a span's self time is
its duration minus its children's durations, and the self times of all spans
sum to the root span's duration. Lookups made inside ``decode_loop`` are
also totalled on their own, so that decoding's share of the lookups shows
apart from training's.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from array import array
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

LOOKUP = "models.lookup"
DECODE_LOOP = "verification.decode_loop"


def _ctx_len(args, kwargs, result) -> float:
    return len(kwargs["context"] if "context" in kwargs else args[1])


def _saved_bytes(args, kwargs, result) -> float:
    return os.path.getsize(kwargs["path"] if "path" in kwargs else args[1])


def _table_rows(args, kwargs, result) -> float:
    return len(result.table)


def _accepted(args, kwargs, result) -> float:
    return result.accepted_len


def _drafted(args, kwargs, result) -> float:
    proposal = kwargs["proposal"] if "proposal" in kwargs else args[2]
    return len(proposal.tokens)


def _count(args, kwargs, result) -> float:
    return len(result)


#: (span name, module, attribute, {quantity: measure(args, kwargs, result)}).
#: A module or attribute that does not exist is skipped, so a function a
#: later change removes reports zero calls.
FUNCTIONS: tuple[tuple[str, str, str, dict[str, Callable]], ...] = (
    (LOOKUP, "speclab.models", "next_distribution", {"ctx_len": _ctx_len}),
    ("models.sample", "speclab.models", "sample_token", {}),
    ("models.gen", "speclab.models", "make_synthetic_target", {}),
    ("models.save", "speclab.models", "save_model", {"bytes": _saved_bytes}),
    ("models.load", "speclab.models", "load_model", {}),
    ("drafting.propose", "speclab.drafting", "propose", {}),
    ("drafting.feature", "speclab.drafting", "compute_feature", {}),
    ("verification.verify", "speclab.verification", "verify_stochastic",
     {"accepted": _accepted, "drafted": _drafted}),
    ("verification.verify", "speclab.verification", "verify_greedy",
     {"accepted": _accepted, "drafted": _drafted}),
    (DECODE_LOOP, "speclab.verification", "decode_loop", {}),
    ("training.corpus", "speclab.training", "sample_corpus", {}),
    ("training.windows", "speclab.training", "build_training_windows", {"count": _count}),
    ("training.solve", "speclab.training", "train_tabular_drafter", {"contexts": _table_rows}),
    ("bench.run", "speclab.bench", "run_bench", {}),
)

#: (span name, module, class, method) for methods looked up on the class.
METHODS: tuple[tuple[str, str, str, str], ...] = (
    ("verification.record", "speclab.verification", "DecodeTrace", "record"),
    ("bench.combine", "speclab.verification", "DecodeTrace", "combine"),
)


@dataclass
class SpanStats:
    """Totals over every span of one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: Lookup spans nested anywhere below spans of this name.
    lookups_below: int = 0
    quantities: dict[str, float] = field(default_factory=dict)


class SpanRecorder:
    """Records spans in flat arrays and keeps per-name totals as they close."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.call_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stats: dict[str, SpanStats] = {}
        #: The lookup spans that ran inside a ``decode_loop`` span. They are
        #: in ``stats[LOOKUP]`` too, so they are left out of the self-time sum.
        self.decode_lookup = SpanStats()
        self._decode_depth = 0
        #: Benchmark operation the next spans belong to; set by the caller.
        self.current_call = -1
        # Open spans: [span index, start, children's duration, lookups below].
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = SpanStats()
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.call_id.append(self.current_call)
        self.end.append(0.0)
        now = time.perf_counter()
        self.start.append(now)
        self._stack.append([idx, now, 0.0, 0])
        if name == DECODE_LOOP:
            self._decode_depth += 1

    def _close(self, name: str) -> None:
        now = time.perf_counter()
        idx, start, children_s, lookups_below = self._stack.pop()
        self.end[idx] = now
        dur = now - start
        if name == DECODE_LOOP:
            self._decode_depth -= 1
        targets = [self.stats[name]]
        if name == LOOKUP and self._decode_depth:
            targets.append(self.decode_lookup)
        for st in targets:
            st.calls += 1
            st.total_s += dur
            st.self_s += dur - children_s
            st.lookups_below += lookups_below
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            parent[3] += lookups_below + (name == LOOKUP)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator["SpanRecorder"]:
        """A span the benchmark opens itself (the root)."""
        self._open(name)
        try:
            yield self
        finally:
            self._close(name)

    @contextlib.contextmanager
    def tracing(self) -> Iterator["SpanRecorder"]:
        """Install the wrappers and record everything inside one root span."""
        self.install()
        try:
            with self.span("root"):
                yield self
        finally:
            self.uninstall()

    def add(self, name: str, quantity: str, value: float) -> None:
        targets = [self.stats[name].quantities]
        if name == LOOKUP and self._decode_depth:
            targets.append(self.decode_lookup.quantities)
        for q in targets:
            q[quantity] = q.get(quantity, 0.0) + value

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def self_time_sum(self) -> float:
        return sum(st.self_s for st in self.stats.values())

    def save(self, path: str) -> None:
        """Write every span to ``path`` as a NumPy ``.npz`` archive."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            call_id=np.frombuffer(self.call_id, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    # -- patching ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, measures: dict[str, Callable]) -> Callable:
        open_, close, add = self._open, self._close, self.add

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(name)
            for quantity, measure in measures.items():
                add(name, quantity, measure(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a speclab module holds it."""
        if self._patched:
            raise RuntimeError("recorder is already installed")
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "speclab" or n.startswith("speclab."))
        ]
        for name, module_name, attr, measures in FUNCTIONS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            traced = self._wrap(name, original, measures)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, value))
                        setattr(module, key, traced)
        for name, module_name, cls_name, method in METHODS:
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            original = vars(cls).get(method) if cls is not None else None
            if original is None:
                continue
            if isinstance(original, classmethod):
                traced = classmethod(self._wrap(name, original.__func__, {}))
            else:
                traced = self._wrap(name, original, {})
            self._patched.append((cls, method, original))
            setattr(cls, method, traced)

    def uninstall(self) -> None:
        """Restore every original function and method."""
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

