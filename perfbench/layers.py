"""Per-layer tracing for the benchmark's traced run.

The traced run wraps the public entry points of each layer of the
program (``repro.dnslib``, ``repro.net``, ``repro.server``,
``repro.zone``, ``repro.core``, ``repro.obs``, ``repro.sim``,
``repro.traces``) from here, outside the program: :meth:`Tracer.install`
patches them, :meth:`Tracer.uninstall` puts every original back.  Each
call into a wrapped entry point records one span (name, start, end,
parent) in flat in-memory arrays; the spans are written out when the
run ends and a layer's self time is computed from them (:func:`self_times`).

An entry point that no longer exists in the program is reported as
absent instead of failing the run, so deleting, say, a replay engine
leaves its metrics at zero and names it under ``absent``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: (span name, module, attribute path) — one row per wrapped entry point.
#: Several rows may share a span name (``traces.generate``).
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("dnslib.decode", "repro.dnslib.message", "Message.from_wire"),
    ("dnslib.encode", "repro.dnslib.message", "Message.to_wire"),
    ("net.dispatch", "repro.net.simulator", "Simulator.step"),
    ("net.timer", "repro.net.simulator", "Simulator.schedule_at"),
    ("net.timer.cancel", "repro.net.simulator", "EventHandle.cancel"),
    ("net.send", "repro.net.network", "Network.send"),
    ("server.auth", "repro.server.authoritative",
     "AuthoritativeServer.handle_query"),
    ("server.resolver", "repro.server.resolver", "RecursiveResolver.resolve"),
    ("server.stub", "repro.server.stub", "StubResolver.lookup"),
    ("zone.write", "repro.zone.zone", "Zone.replace_address"),
    ("core.listening", "repro.core.listening", "ListeningModule.on_query"),
    ("core.lease.grant", "repro.core.lease", "LeaseTable.grant"),
    ("core.lease.holders", "repro.core.lease", "LeaseTable.holders"),
    ("core.notify", "repro.core.notification", "NotificationModule.on_change"),
    ("obs.trace", "repro.obs.trace", "TraceBus.emit"),
    ("obs.load", "repro.obs.load", "LoadLedger.record"),
    ("obs.audit", "repro.obs.audit", "audit_observability"),
    ("sim.replay", "repro.sim.driver", "figure5_curves"),
    ("sim.train", "repro.sim.driver", "train_pair_rates"),
    ("sim.reference.replay", "repro.sim.driver", "simulate_lease_trace"),
    ("sim.fast.index", "repro.sim.fastreplay", "PairIndex.__init__"),
    ("sim.fast.replay", "repro.sim.fastreplay", "fast_lease_replay"),
    ("sim.fast.sweep", "repro.sim.fastreplay", "fast_dynamic_sweep"),
    ("sim.fast.polling", "repro.sim.fastreplay", "fast_polling"),
    ("sim.columnar.load", "repro.sim.columnar", "ColumnarTrace.from_events"),
    ("sim.columnar.replay", "repro.sim.columnar", "columnar_lease_replay"),
    ("sim.columnar.sweep", "repro.sim.columnar", "columnar_dynamic_sweep"),
    ("sim.columnar.polling", "repro.sim.columnar", "columnar_polling"),
    ("traces.generate", "repro.traces.domains", "generate_population"),
    ("traces.generate", "repro.traces.workload", "generate_queries"),
    ("traces.generate", "repro.traces.workload", "generate_requests"),
)

#: Attribute set on every wrapper; the removal test looks for it.
WRAPPED_MARK = "__perfbench_wrapped__"


def self_times(names: np.ndarray, starts: np.ndarray, ends: np.ndarray,
               parents: np.ndarray, count: int) -> np.ndarray:
    """Self time per span name: duration minus what child spans cover.

    Spans come from one thread, so the children of a span are disjoint
    intervals inside it and the part they cover is the sum of their
    durations.  ``parents`` holds the index of each span's parent, or
    -1 for a root span.  Returns an array of ``count`` totals indexed by
    name id.
    """
    durations = ends - starts
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent], weights=durations[has_parent],
                          minlength=len(durations))
    return np.bincount(names, weights=durations - covered, minlength=count)


class Tracer:
    """Span recorder plus the patch/unpatch of the layer entry points.

    ``clock`` is the wall clock spans are stamped with; tests pass a
    fake one.
    """

    def __init__(self, entry_points: Sequence[Tuple[str, str, str]] = ENTRY_POINTS,
                 clock: Callable[[], float] = time.perf_counter):
        self.entry_points = tuple(entry_points)
        self.clock = clock
        self.span_names: List[str] = sorted({row[0] for row in self.entry_points})
        self._name_ids = {name: i for i, name in enumerate(self.span_names)}
        #: Entry points not found in the program, as ``module:attribute``.
        self.absent: List[str] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.reset()

    # -- recording -----------------------------------------------------------

    def reset(self) -> None:
        """Drop every recorded span and sample."""
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack: List[int] = []
        #: ``Simulator.pending`` sampled before every dispatched event.
        self.queue_depths = array("q")
        self.encoded_bytes = 0
        self.steady_from = 0

    def mark_steady(self) -> None:
        """Spans recorded from here on belong to the steady phase."""
        self.steady_from = len(self.names)

    def _open(self, name_id: int) -> int:
        index = len(self.names)
        self.names.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = self.clock()
        self._stack.pop()

    def _wrap(self, fn: Callable, span: str) -> Callable:
        name_id = self._name_ids[span]
        tracer = self

        def traced_iter(inner):
            while True:
                index = tracer._open(name_id)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._close(index)
                yield item

        if span == "net.dispatch":
            def wrapper(*args, **kwargs):
                tracer.queue_depths.append(args[0].pending)
                index = tracer._open(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(index)
        elif span == "dnslib.encode":
            def wrapper(*args, **kwargs):
                index = tracer._open(name_id)
                try:
                    wire = fn(*args, **kwargs)
                finally:
                    tracer._close(index)
                tracer.encoded_bytes += len(wire)
                return wire
        else:
            def wrapper(*args, **kwargs):
                index = tracer._open(name_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(index)
                # A generator does its work as it is consumed: time
                # each resumption as its own span.
                if inspect.isgenerator(result):
                    return traced_iter(result)
                return result

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point that exists; note the ones that do not."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for span, module_name, path in self.entry_points:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}:{path}")
                continue
            owner: object = module
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            raw = (vars(owner).get(attr) if isinstance(owner, type)
                   else getattr(owner, attr, None)) if owner is not None else None
            if raw is None:
                self.absent.append(f"{module_name}:{path}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: object = type(raw)(self._wrap(raw.__func__, span))
            else:
                wrapped = self._wrap(raw, span)
            self._patch(owner, attr, raw, wrapped)
            if not isinstance(owner, type):
                # Modules that imported the function by name call their
                # own binding: patch those bindings too.
                for other in list(sys.modules.values()):
                    if (other is not owner
                            and getattr(other, "__name__", "").startswith("repro")
                            and vars(other).get(attr) is raw):
                        self._patch(other, attr, raw, wrapped)

    def _patch(self, owner: object, attr: str, raw: object,
               wrapped: object) -> None:
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        """The recorded spans as NumPy columns."""
        return {
            "name": np.frombuffer(self.names, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
        }

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``self_s`` and steady-phase ``steady_self_s``."""
        if self._stack:
            raise RuntimeError("summary taken with spans still open")
        cols = self.arrays()
        count = len(self.span_names)
        selfs = self_times(cols["name"], cols["start"], cols["end"],
                           cols["parent"], count)
        steady = self_times(cols["name"][self.steady_from:],
                            cols["start"][self.steady_from:],
                            cols["end"][self.steady_from:],
                            _shift(cols["parent"][self.steady_from:],
                                   self.steady_from), count)
        calls = np.bincount(cols["name"], minlength=count)
        return {name: {"calls": int(calls[i]), "self_s": float(selfs[i]),
                       "steady_self_s": float(steady[i])}
                for i, name in enumerate(self.span_names)}

    def save(self, path) -> None:
        """Write the spans out (``.npz``: name ids, starts, ends, parents)."""
        np.savez(path, names=np.array(self.span_names), **self.arrays())


def _shift(parents: np.ndarray, offset: int) -> np.ndarray:
    """Re-index a tail slice's parents; parents before the slice become roots."""
    shifted = parents - offset
    shifted[shifted < 0] = -1
    return shifted
