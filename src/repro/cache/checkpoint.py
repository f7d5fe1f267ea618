"""Experiment-level checkpoint/resume on top of ``save_json``/``load_json``.

A checkpoint is the byte-exact ``ExperimentResult.save_json`` payload of a
*completed* experiment, in a file named by the experiment and by the run
configuration it is valid for:
``<id>-<16 hex of the content key of {seed, scale, engine}>.json``, where
``engine`` is the trial engine's version
(:data:`repro.core.tester.ENGINE_VERSION`, passed in by the CLI so this
package never imports the engine).  ``--workers`` changes no value, so it
is not part of it.  On ``--resume`` the CLI skips any experiment with a
checkpoint for its configuration and copies the stored bytes straight
into ``--json-dir``, so a killed-midway run restarted with ``--resume``
produces JSON artifacts bit-identical to an uninterrupted run (result
JSON deliberately excludes wall-clock — see
:meth:`repro.experiments.harness.ExperimentResult.to_dict`).

Each configuration has a file of its own, written with one atomic replace
(:func:`repro.utils.appendfile.replace_file`), so a crash mid-save can
never leave a checkpoint that parses but lies, and two runs saving one
experiment at once — shard passes finishing it, or CLI runs at different
seeds on one ``--cache-dir`` — never leave one configuration's result
where another's is looked up.  A missing file, unreadable JSON or JSON of
the wrong shape makes :meth:`ExperimentCheckpoint.load` return ``None``
and the experiment simply re-runs; a stale checkpoint is never an error.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from ..observe.counters import add_count
from ..observe.ledger import emit_event
from .keys import cache_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..experiments.harness import ExperimentResult

__all__ = ["ExperimentCheckpoint"]


class ExperimentCheckpoint:
    """Store of completed-experiment results keyed by experiment id and
    run configuration."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self._directory = Path(directory)

    @property
    def directory(self) -> Path:
        return self._directory

    def path_for(self, experiment_id: str, *, seed: Optional[int],
                 scale: float, engine: Optional[int] = None) -> Path:
        """Result-JSON path of one experiment's checkpoint under one run
        configuration."""
        config = {"seed": seed, "scale": float(scale), "engine": engine}
        digest = cache_key("checkpoint", config)[:16]
        return self._directory / f"{experiment_id}-{digest}.json"

    def save(self, result: "ExperimentResult", *, seed: Optional[int],
             scale: float, engine: Optional[int] = None) -> Path:
        """Checkpoint a completed result for the given run configuration."""
        self._directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(result.experiment_id, seed=seed, scale=scale,
                             engine=engine)
        # --resume copies these bytes into --json-dir.
        result.save_json(path)
        add_count("checkpoint_save")
        emit_event("checkpoint_save", experiment=result.experiment_id,
                   seed=seed, scale=scale, engine=engine)
        return path

    def load(self, experiment_id: str, *, seed: Optional[int],
             scale: float,
             engine: Optional[int] = None) -> Optional["ExperimentResult"]:
        """Completed result for this exact (seed, scale, engine), else
        ``None``."""
        from ..experiments.harness import ExperimentResult

        path = self.path_for(experiment_id, seed=seed, scale=scale,
                             engine=engine)
        # Valid JSON of the wrong shape (a number where the tables go) is
        # as stale as unreadable JSON.
        try:
            result = ExperimentResult.from_dict(
                json.loads(path.read_text(encoding="utf-8")))
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None
        if result.experiment_id != experiment_id:
            return None
        return result

    def raw_bytes(self, experiment_id: str, *, seed: Optional[int],
                  scale: float, engine: Optional[int] = None) -> bytes:
        """The checkpoint's exact on-disk JSON bytes (for ``--json-dir``)."""
        return self.path_for(experiment_id, seed=seed, scale=scale,
                             engine=engine).read_bytes()

    def __repr__(self) -> str:
        return f"ExperimentCheckpoint({self._directory})"
