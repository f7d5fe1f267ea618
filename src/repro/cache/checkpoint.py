"""Experiment-level checkpoint/resume on top of ``save_json``/``load_json``.

A checkpoint is the byte-exact ``ExperimentResult.save_json`` payload of a
*completed* experiment plus a small ``.meta.json`` sidecar recording the
run configuration it is valid for: seed, scale and the trial engine's
version (:data:`repro.core.tester.ENGINE_VERSION`, passed in by the CLI
so this package never imports the engine).  ``--workers`` changes no
value, so it is not part of it.  On ``--resume`` the CLI skips any
experiment with a matching checkpoint and copies the stored bytes
straight into ``--json-dir``, so a killed-midway run restarted with
``--resume`` produces JSON artifacts bit-identical to an uninterrupted
run (result JSON deliberately excludes wall-clock — see
:meth:`repro.experiments.harness.ExperimentResult.to_dict`).

Both files are written atomically, each through a temporary of its own
(:func:`repro.utils.appendfile.replace_file`), so a crash mid-save can
never leave a checkpoint that parses but lies, and shard passes that
finish one experiment and save its checkpoint at once cannot collide.
Any mismatch — different seed, scale or engine, unreadable JSON, JSON of
the wrong shape, missing sidecar — makes :meth:`ExperimentCheckpoint.load`
return ``None`` and the experiment simply re-runs; a stale checkpoint is
never an error.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

from ..observe.counters import add_count
from ..observe.ledger import emit_event
from ..utils.appendfile import replace_file
from ..utils.serialization import json_default

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..experiments.harness import ExperimentResult

__all__ = ["ExperimentCheckpoint"]


class ExperimentCheckpoint:
    """Store of completed-experiment results keyed by experiment id."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self._directory = Path(directory)

    @property
    def directory(self) -> Path:
        return self._directory

    def path_for(self, experiment_id: str) -> Path:
        """Result-JSON path for one experiment's checkpoint."""
        return self._directory / f"{experiment_id}.json"

    def _meta_path(self, experiment_id: str) -> Path:
        return self._directory / f"{experiment_id}.meta.json"

    def save(self, result: "ExperimentResult", *, seed: Optional[int],
             scale: float, engine: Optional[int] = None) -> Path:
        """Checkpoint a completed result for the given run configuration."""
        self._directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(result.experiment_id)
        # --resume copies these bytes into --json-dir.
        result.save_json(path)
        meta: Dict[str, Any] = {
            "experiment_id": result.experiment_id,
            **self._config(seed, scale, engine),
        }
        replace_file(
            self._meta_path(result.experiment_id),
            json.dumps(meta, indent=2, sort_keys=True, allow_nan=False,
                       default=json_default).encode("utf-8"),
        )
        add_count("checkpoint_save")
        emit_event("checkpoint_save", experiment=result.experiment_id,
                   seed=seed, scale=scale, engine=engine)
        return path

    @staticmethod
    def _config(seed: Optional[int], scale: float,
                engine: Optional[int]) -> Dict[str, Any]:
        """The sidecar fields a checkpoint must match to be replayed."""
        return {"seed": seed, "scale": scale, "engine": engine}

    def load(self, experiment_id: str, *, seed: Optional[int],
             scale: float,
             engine: Optional[int] = None) -> Optional["ExperimentResult"]:
        """Completed result for this exact (seed, scale, engine), else
        ``None``."""
        from ..experiments.harness import ExperimentResult

        path = self.path_for(experiment_id)
        meta_path = self._meta_path(experiment_id)
        if not path.exists() or not meta_path.exists():
            return None
        config = self._config(seed, scale, engine)
        # Valid JSON of the wrong shape (a list sidecar, a number where
        # the tables go) is as stale as unreadable JSON.
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            if any(meta.get(name) != value
                   for name, value in config.items()):
                return None
            result = ExperimentResult.from_dict(
                json.loads(path.read_text(encoding="utf-8")))
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None
        if result.experiment_id != experiment_id:
            return None
        return result

    def raw_bytes(self, experiment_id: str) -> bytes:
        """The checkpoint's exact on-disk JSON bytes (for ``--json-dir``)."""
        return self.path_for(experiment_id).read_bytes()

    def __repr__(self) -> str:
        return f"ExperimentCheckpoint({self._directory})"
