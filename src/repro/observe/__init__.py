"""Observability layer: run ledger and operation counters.

Long ``minimal_m`` searches and full-scale experiment runs are expensive
to re-measure, so this package turns them into inspectable artifacts:

* :class:`RunLedger` appends structured JSON-lines events (experiment
  start/end, every ``minimal_m`` probe, RNG spawns, trial-batch
  dispatch/completion with each batch's elapsed time, counter
  aggregates) to a file; install one with ``with RunLedger(path): ...``
  or the CLI's ``--ledger PATH``;
* :class:`Counters` aggregates operation counts (sketch samples, kernel
  applies, trials) that surface as ``count_*`` metrics on
  ``ExperimentResult``;
* ``python -m repro.observe summarize LEDGER`` renders a ledger back
  into per-probe tables and trial-batch totals (see
  :mod:`repro.observe.summarize`).

Everything is a no-op-by-default: with no ledger installed, the
instrumented hot paths pay one context-variable read, and emission never
consumes randomness — serial, parallel, cold, warm and merged-shard runs
of one seed produce bit-identical results and identical deterministic
event views (:func:`deterministic_view`).
"""

from .counters import Counters, add_count, counters, use_counters
from .ledger import (
    EXECUTION_KINDS,
    TIMING_FIELDS,
    RunLedger,
    current_ledger,
    deterministic_view,
    emit_event,
    read_event_segments,
    read_events,
    use_ledger,
)

__all__ = [
    "EXECUTION_KINDS",
    "TIMING_FIELDS",
    "Counters",
    "RunLedger",
    "add_count",
    "counters",
    "current_ledger",
    "deterministic_view",
    "emit_event",
    "read_event_segments",
    "read_events",
    "use_counters",
    "use_ledger",
]
