"""Timing wrappers for the benchmark's traced pass.

A traced pass installs a wrapper on every seam in :data:`SEAMS` — methods
on their classes, functions at the module where the caller looks them
up — and records one span per call: layer name, start, end, self time,
parent span id and op id.  Spans sit on a thread-local stack while open
and in per-thread column arrays once closed; nothing is written until the
pass ends.  Nothing is installed during an untraced pass, so the
end-to-end numbers never pay for tracing.

A layer's *self time* is its span's duration minus the time its child
spans cover.  Sample and draw seams also record the columns they touch:
``cols`` holds the sketch columns sampled (sample seams) or the support
columns drawn (draw seams), and ``bytes`` the ``16·s·n`` bytes of row
indices and signs a sampled sketch computes.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: ``(layer, module, owner, attribute)`` of every timed seam.  ``owner`` is
#: a class name, or ``None`` for a function bound in ``module``.
SEAMS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("sketch.sample_trial_batch", "repro.sketch.countsketch", "CountSketch",
     "sample_trial_batch"),
    ("sketch.sample_trial_batch", "repro.sketch.osnap", "OSNAP",
     "sample_trial_batch"),
    ("sketch.sample", "repro.sketch.countsketch", "CountSketch", "sample"),
    ("sketch.sample", "repro.sketch.osnap", "OSNAP", "sample"),
    ("hardinstances.sample_support", "repro.hardinstances.dbeta", "DBeta",
     "sample_support"),
    ("hardinstances.sample_draw", "repro.hardinstances.dbeta", "DBeta",
     "sample_draw"),
    ("sketch.batched.sketched_bases", "repro.sketch.batched",
     "BatchedColumnScatter", "sketched_bases"),
    ("sketch.basis_image", "repro.sketch.base", "Sketch", "basis_image"),
    ("linalg.distortions_of_products", "repro.sketch.batched", None,
     "distortions_of_products"),
    ("linalg.distortion_of_product", "repro.core.tester", None,
     "distortion_of_product"),
    ("utils.parallel.dispatch", "repro.utils.parallel", "TrialExecutor",
     "run_chunked"),
    ("utils.parallel.dispatch", "repro.utils.parallel", "TrialExecutor",
     "run_seeded"),
    ("utils.rng.spawn_seeds", "repro.core.tester", None, "spawn_seeds"),
    ("core.tester", "repro.core.tester", None, "failure_estimate"),
    ("core.tester", "repro.core.tester", None, "distortion_samples"),
    ("core.tester", "repro.core.tester", None, "minimal_m"),
    # The server calls the estimators through the names it imported.
    ("core.tester", "repro.serve.service", None, "failure_estimate"),
    ("core.tester", "repro.serve.service", None, "distortion_samples"),
    ("core.tester", "repro.serve.service", None, "minimal_m"),
    ("cache.load", "repro.cache.probes", "ProbeCache", "__init__"),
    ("cache.get", "repro.cache.probes", "ProbeCache", "get"),
    ("cache.peek", "repro.cache.probes", "ProbeCache", "peek"),
    ("cache.put", "repro.cache.probes", "ProbeCache", "put"),
    ("cache.merge_stores", "repro.shard", None, "merge_stores"),
)

#: Layer names in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(seam[0] for seam in SEAMS))

#: Layers whose ``cols`` are sampled sketch columns / drawn support columns.
SAMPLE_LAYERS = ("sketch.sample_trial_batch", "sketch.sample")
DRAW_LAYERS = ("hardinstances.sample_support", "hardinstances.sample_draw")

FIELDS = ("id", "layer", "start", "end", "self", "parent", "op", "cols",
          "bytes")


def _sketch_work(family: Any, sketches: int) -> Tuple[float, float]:
    """Columns sampled and ``16·s·n`` bytes computed for ``sketches``
    draws from a column-sparse family."""
    s = getattr(family, "s", 1)
    return (float(sketches * family.n),
            float(16 * s * family.n * sketches))


#: Work counters per layer, computed from the wrapped call's arguments.
_WORK: Dict[str, Callable[..., Tuple[float, float]]] = {
    "sketch.sample_trial_batch":
        lambda family, seeds, *a, **k: _sketch_work(family, len(seeds)),
    "sketch.sample": lambda family, *a, **k: _sketch_work(family, 1),
    "hardinstances.sample_support":
        lambda instance, *a, **k: (float(instance.reps * instance.d), 0.0),
    "hardinstances.sample_draw":
        lambda instance, *a, **k: (float(instance.reps * instance.d), 0.0),
}


class Tracer:
    """Records spans from the wrappers it installs.

    ``set_op`` tags the calling thread's following spans with an op id;
    without one, a root span's id tags its subtree.
    """

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers: List[Dict[str, array]] = []
        self._installed: List[Tuple[Any, str, Any]] = []
        self._layer_index = {layer: i for i, layer in enumerate(LAYERS)}

    def _thread(self) -> Any:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.op = None
            local.columns = {
                name: array("d" if name in ("start", "end", "self", "cols",
                                            "bytes") else "q")
                for name in FIELDS
            }
            with self._lock:
                self._buffers.append(local.columns)
        return local

    def set_op(self, op: Optional[int]) -> None:
        self._thread().op = op

    def _wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        index = self._layer_index[layer]
        work = _WORK.get(layer)
        ids = self._ids
        clock = time.monotonic

        def traced(*args: Any, **kwargs: Any) -> Any:
            local = self._thread()
            stack = local.stack
            span_id = next(ids)
            if stack:
                parent, op = stack[-1][0], stack[-1][3]
            else:
                parent, op = 0, local.op if local.op is not None else span_id
            # [id, start, time covered by child spans, op id]
            frame = [span_id, clock(), 0.0, op]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                cols, nbytes = work(*args, **kwargs) if work else (0.0, 0.0)
                columns = local.columns
                for name, value in zip(
                    FIELDS,
                    (span_id, index, frame[1], end, duration - frame[2],
                     parent, op, cols, nbytes),
                ):
                    columns[name].append(value)

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Wrap every seam in :data:`SEAMS` (imports their modules)."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        for layer, module_name, owner_name, attribute in SEAMS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None \
                else getattr(module, owner_name)
            original = owner.__dict__[attribute] if owner_name is not None \
                else getattr(owner, attribute)
            setattr(owner, attribute, self._wrap(layer, original))
            self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Restore every wrapped seam."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def spans(self) -> Dict[str, List[float]]:
        """All closed spans as columns (thread buffers concatenated)."""
        with self._lock:
            buffers = list(self._buffers)
        return {
            name: [value for columns in buffers for value in columns[name]]
            for name in FIELDS
        }


def write_trace(path: Any, spans: Dict[str, List[float]],
                window: Sequence[float]) -> None:
    """Write spans as columns, with the layer names and the timed window
    (``time.monotonic`` seconds; empty when not yet known)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"layers": list(LAYERS), "window": list(window),
                   "fields": list(FIELDS), "spans": spans}, handle)


def read_trace(path: Any) -> Dict[str, List[float]]:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload["layers"] != list(LAYERS):
        raise ValueError(f"{path}: trace was written for other layers")
    return payload["spans"]


def layer_totals(spans: Dict[str, List[float]],
                 window: Sequence[float]) -> Dict[str, Dict[str, float]]:
    """Per-layer ``calls``, ``self_s``, ``cols`` and ``bytes`` over the
    spans that start and end inside ``window``."""
    totals = {layer: {"calls": 0, "self_s": 0.0, "cols": 0.0, "bytes": 0.0}
              for layer in LAYERS}
    lo, hi = window
    for index, start, end, self_s, cols, nbytes in zip(
        spans["layer"], spans["start"], spans["end"], spans["self"],
        spans["cols"], spans["bytes"],
    ):
        if start < lo or end > hi:
            continue
        entry = totals[LAYERS[int(index)]]
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["cols"] += cols
        entry["bytes"] += nbytes
    return totals
