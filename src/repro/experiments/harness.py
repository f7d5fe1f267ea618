"""Experiment harness.

Every experiment (E1–E14 of DESIGN.md) is a subclass of
:class:`Experiment` producing an :class:`ExperimentResult` — one or more
plain-text tables plus a dictionary of scalar metrics that the benchmarks
and EXPERIMENTS.md assertions key off.

Experiments accept a ``scale`` knob: ``scale = 1.0`` regenerates the
EXPERIMENTS.md numbers; smaller values shrink trial counts and grids for
fast benchmark runs while preserving the qualitative shape.
"""

from __future__ import annotations

import abc
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..observe.counters import NON_RESULT_COUNTER_PREFIXES, counters
from ..observe.ledger import emit_event
from ..utils.appendfile import replace_file
from ..utils.parallel import ShardSpec, normalize_shard
from ..utils.rng import RngLike, as_generator
from ..utils.serialization import json_default, to_builtin
from ..utils.tables import TextTable

__all__ = [
    "ExperimentResult",
    "Experiment",
    "NON_RESULT_COUNTER_PREFIXES",
    "scaled_int",
]


def scaled_int(base: int, scale: float, minimum: int = 1) -> int:
    """``base`` trials/points scaled by ``scale``, clamped below."""
    if base < minimum:
        raise ValueError(f"base ({base}) below minimum ({minimum})")
    return max(minimum, int(round(base * scale)))


@dataclass
class ExperimentResult:
    """Rendered output of one experiment run.

    Attributes
    ----------
    experiment_id / title:
        Identity of the experiment.
    tables:
        The result tables (the reproduction's "figures").
    metrics:
        Scalar metrics for automated shape assertions, e.g. fitted scaling
        exponents.
    notes:
        Free-form commentary lines (substitutions, caveats).
    elapsed_seconds:
        Wall-clock runtime.  Shown by :meth:`render` but deliberately
        **excluded** from :meth:`to_dict`: JSON artifacts must be
        byte-identical across re-runs of the same seed (checkpoint/resume
        and the CI cache smoke diff them), and wall-clock never is.
    """

    experiment_id: str
    title: str
    tables: List[TextTable] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def render(self) -> str:
        """Full plain-text report."""
        parts = [f"== {self.experiment_id}: {self.title} =="]
        parts.extend(table.render() for table in self.tables)
        if self.metrics:
            parts.append("metrics:")
            parts.extend(
                f"  {key} = {value:.6g}"
                for key, value in sorted(self.metrics.items())
            )
        parts.extend(f"note: {note}" for note in self.notes)
        parts.append(f"(completed in {self.elapsed_seconds:.1f}s)")
        return "\n".join(parts)

    def to_dict(self) -> dict:
        """JSON-serializable form (tables as header + string rows).

        Metrics and table rows are coerced through
        :func:`repro.utils.serialization.to_builtin`: numpy scalars
        (``np.int64`` counts, ``np.float32`` metrics) would otherwise make
        ``json.dumps`` raise ``TypeError`` and crash ``--json-dir`` saves
        after a completed run.

        ``elapsed_seconds`` is intentionally absent — see the class
        docstring.  :meth:`from_dict` still accepts legacy payloads that
        carry it.
        """
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "tables": [
                {
                    "title": table.title,
                    "columns": [to_builtin(c) for c in table.columns],
                    "rows": [to_builtin(list(row)) for row in table.rows],
                }
                for table in self.tables
            ],
            "metrics": to_builtin(dict(self.metrics)),
            "notes": [to_builtin(note) for note in self.notes],
        }

    def save_json(self, path: Union[str, Path]) -> Path:
        """Write the result as JSON, replacing ``path`` whole (see
        :func:`~repro.utils.appendfile.replace_file`); returns the path
        written."""
        return replace_file(path, json.dumps(
            self.to_dict(), indent=2, allow_nan=False, default=json_default,
        ).encode("utf-8"))

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output.

        Table rows are validated against the column count on load: a row
        of the wrong arity used to be assigned silently and only blow up
        (or, worse, render shifted columns) much later, far from the
        corrupt JSON that caused it.
        """
        result = cls(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            metrics=dict(payload.get("metrics", {})),
            notes=list(payload.get("notes", [])),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
        )
        for spec in payload.get("tables", []):
            table = TextTable(title=spec["title"], columns=spec["columns"])
            width = len(table.columns)
            rows = []
            for index, row in enumerate(spec["rows"]):
                row = list(row)
                if len(row) != width:
                    raise ValueError(
                        f"table {table.title!r} of experiment "
                        f"{result.experiment_id!r}: row {index} has "
                        f"{len(row)} cells, expected {width} "
                        f"(columns: {list(table.columns)})"
                    )
                rows.append(row)
            table.rows = rows
            result.tables.append(table)
        return result

    @classmethod
    def load_json(cls, path: Union[str, Path]) -> "ExperimentResult":
        """Read a result previously written by :meth:`save_json`."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    def __str__(self) -> str:
        return self.render()


class Experiment(abc.ABC):
    """Base class for DESIGN.md experiments.

    Subclasses define class attributes ``experiment_id``, ``title`` and
    ``paper_claim``, and implement :meth:`_run`.
    """

    experiment_id: str = "E?"
    title: str = ""
    paper_claim: str = ""

    #: Worker processes for Monte-Carlo trial loops; set by :meth:`run`.
    _workers: int = 1
    #: Probe cache for ``failure_estimate``/``minimal_m``; set by :meth:`run`.
    _cache = None
    #: This run's shard identity (or ``None``); set by :meth:`run`.
    _shard: Optional[ShardSpec] = None

    @property
    def workers(self) -> int:
        """Worker processes available to this run's trial loops.

        Experiment implementations pass this to ``failure_estimate`` /
        ``distortion_samples`` / ``minimal_m``; results are bit-identical
        across ``workers`` settings at a fixed seed (trial ``t``'s streams
        are a pure function of ``t`` — see :mod:`repro.utils.parallel`).
        """
        return self._workers

    @property
    def cache(self):
        """Probe cache for this run's Monte-Carlo helpers (or ``None``).

        Experiment implementations pass this as the ``cache=`` argument of
        ``failure_estimate`` / ``distortion_samples`` / ``minimal_m``;
        results stay bit-identical with the cache on, off, cold, or warm
        (see :mod:`repro.cache`).
        """
        return self._cache

    @property
    def shard(self) -> Optional[ShardSpec]:
        """This run's shard identity in an N-way fan-out (or ``None``).

        Experiment implementations forward this as the ``shard=`` argument
        of ``failure_estimate`` / ``distortion_samples`` / ``minimal_m``;
        with it set, those calls execute only this shard's trial slices
        and exchange partial results through the probe cache (see
        :mod:`repro.shard`).  ``None`` — the default — is plain serial
        execution.
        """
        return self._shard

    def run(self, scale: float = 1.0, rng: RngLike = None,
            workers: int = 1, cache=None, shard=None) -> ExperimentResult:
        """Run the experiment; ``scale`` shrinks or grows the workload.

        ``workers`` parallelizes the experiment's Monte-Carlo trial loops
        over a process pool (``None``/``0`` = all CPUs) without changing
        any result at a fixed seed.  ``cache`` (a
        :class:`repro.cache.ProbeCache`) lets those loops reuse probe
        results across runs, likewise without changing any result.

        Operation counts accrued during the run (sketch samples, kernel
        applies, trials — see :mod:`repro.observe.counters`) are attached
        to the result as ``count_*`` metrics; they are identical for
        serial and parallel runs of the same seed, and for cached and
        uncached runs — cache bookkeeping counters
        (:data:`NON_RESULT_COUNTER_PREFIXES`) are dropped.  With a run
        ledger installed, ``experiment_start``/``counters``/
        ``experiment_end`` events bracket the run; the ``counters`` event
        carries exactly the counters behind the ``count_*`` metrics, so
        it too is the same for every cache state (the ledger's
        ``cache_hit``/``cache_miss`` events count the lookups).
        """
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        shard = normalize_shard(shard)
        if shard is not None and cache is None:
            raise ValueError(
                "shard= requires cache=: shard passes exchange probe "
                "partials through the probe cache (see repro.shard)"
            )
        self._workers = workers
        self._cache = cache
        self._shard = shard
        emit_event(
            "experiment_start", experiment=self.experiment_id,
            title=self.title, scale=scale, workers=workers,
        )
        before = counters().snapshot()
        started = time.perf_counter()
        try:
            result = self._run(scale, as_generator(rng))
        finally:
            self._cache = None
            self._shard = None
        result.elapsed_seconds = time.perf_counter() - started
        delta = {
            name: count for name, count in counters().diff(before).items()
            if not name.startswith(NON_RESULT_COUNTER_PREFIXES)
        }
        for name in sorted(delta):
            result.metrics.setdefault(f"count_{name}", delta[name])
        emit_event("counters", experiment=self.experiment_id, **delta)
        emit_event(
            "experiment_end", experiment=self.experiment_id,
            elapsed=result.elapsed_seconds,
            metrics=to_builtin(dict(result.metrics)),
        )
        return result

    @abc.abstractmethod
    def _run(self, scale: float, rng) -> ExperimentResult:
        """Implementation hook; receives a normalized generator."""

    def _result(self) -> ExperimentResult:
        """Fresh result shell carrying this experiment's identity."""
        return ExperimentResult(
            experiment_id=self.experiment_id, title=self.title
        )
