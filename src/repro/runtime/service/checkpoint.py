"""Checkpoint manifests: resume a sharded run at the first unfinished shard.

A sharded execution's natural checkpoint unit is the per-shard spill file —
framed, fingerprint-validated, self-describing (see
:mod:`repro.runtime.sharded`).  :class:`ShardCheckpoint` manages a directory
holding those spills plus a small ``checkpoint.json`` manifest:

.. code-block:: json

    {
      "kind": "repro_shard_checkpoint",
      "plan_fingerprint": "1f6a…",
      "shards": 8,
      "chunk_size": 1000,
      "records": 40000,
      "completed": { "0": { "shard": 0, "chunks": 5, "records": 5000,
                            "batches": 12, "per_table_rows": { "…": 123 } } }
    }

The manifest records the run *parameters* (so a resume against a different
plan, shard count, chunk size or document silently producing garbage is
impossible — it raises instead) and, incrementally, the end manifest of each
completed shard.  Completion truth, however, is the spill file itself: at
:meth:`ShardCheckpoint.begin` every present spill is fully replayed through
the validated framing (:func:`~repro.runtime.sharded.validate_spill`), so a
shard counts as done even if the driver was killed between writing the spill
and updating ``checkpoint.json`` — and a partially-written spill from a
killed worker fails validation and is re-executed.

Both the daemon's job runner and the one-shot CLI (``repro run --resume``)
use this class; :func:`~repro.runtime.sharded.shard_execute` only sees its
``directory`` / ``begin`` / ``mark_complete`` / ``finish`` surface.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

from ..durable import write_durably
from ..sharded import ShardError, _spill_path, validate_spill

CHECKPOINT_MANIFEST_NAME = "checkpoint.json"

_CHECKPOINT_KIND = "repro_shard_checkpoint"

#: The run parameters a resume must reproduce exactly.
_PARAM_KEYS = ("plan_fingerprint", "shards", "chunk_size", "records")


class ShardCheckpoint:
    """A directory of shard spills plus the manifest that makes them resumable.

    One instance belongs to one job (one ``shard_execute`` call at a time);
    the directory is created lazily at :meth:`begin`.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self._state: Optional[Dict[str, object]] = None

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, CHECKPOINT_MANIFEST_NAME)

    # -------------------------------------------------------------- queries
    def load(self) -> Optional[Dict[str, object]]:
        """The stored manifest, or ``None`` when absent or unreadable.

        A corrupt manifest is treated as "no checkpoint" (the spills it
        described are unusable without its parameters), never as an error.
        """
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict) or payload.get("kind") != _CHECKPOINT_KIND:
            return None
        return payload

    def completed_indices(self) -> Dict[int, Dict[str, object]]:
        """Completed shards recorded so far (manifest only, no revalidation)."""
        stored = self._state if self._state is not None else self.load()
        if stored is None:
            return {}
        completed = stored.get("completed") or {}
        return {int(index): manifest for index, manifest in completed.items()}  # type: ignore[union-attr]

    # ------------------------------------------------------------ lifecycle
    def begin(
        self,
        *,
        plan_fingerprint: str,
        shards: int,
        chunk_size: int,
        records: int,
        resume: bool,
    ) -> Dict[int, Dict[str, object]]:
        """Open the checkpoint for one run; returns the completed shards.

        Fresh runs (``resume=False``, or no usable manifest) clear any
        leftover spills and start an empty manifest.  Resumed runs validate
        the stored parameters against this run's (mismatch raises
        :class:`~repro.runtime.sharded.ShardError` — resuming under changed
        parameters would interleave incompatible spills), then replay every
        present spill end to end: the valid ones are returned as
        ``{shard_index: end_manifest}`` and skipped by the map stage, the
        invalid ones (truncated by a killed worker) are deleted and re-run.
        """
        os.makedirs(self.directory, exist_ok=True)
        params: Dict[str, object] = {
            "plan_fingerprint": plan_fingerprint,
            "shards": shards,
            "chunk_size": chunk_size,
            "records": records,
        }
        stored = self.load() if resume else None
        if resume and stored is not None:
            mismatched = [
                key for key in _PARAM_KEYS if stored.get(key) != params[key]
            ]
            if mismatched:
                raise ShardError(
                    f"checkpoint {self.manifest_path} was written by a run with "
                    f"different {', '.join(mismatched)} "
                    f"(stored {[stored.get(k) for k in mismatched]}, this run "
                    f"{[params[k] for k in mismatched]}); re-run without "
                    f"--resume to start fresh"
                )
        if stored is None:
            self._clear_spills()
            self._state = {"kind": _CHECKPOINT_KIND, **params, "completed": {}}
            self._write()
            return {}
        completed: Dict[int, Dict[str, object]] = {}
        for index in range(shards):
            path = _spill_path(self.directory, index)
            if not os.path.exists(path):
                continue
            try:
                completed[index] = validate_spill(
                    path, plan_fingerprint=plan_fingerprint, shard_index=index
                )
            except ShardError:
                # A worker died mid-write: the spill is partial. Remove it so
                # the map stage re-executes the shard from scratch.
                try:
                    os.remove(path)
                except OSError:
                    pass
        self._state = {
            "kind": _CHECKPOINT_KIND,
            **params,
            "completed": {str(i): m for i, m in sorted(completed.items())},
        }
        self._write()
        return completed

    def mark_complete(self, index: int, manifest: Dict[str, object]) -> None:
        """Record one shard's end manifest; atomically rewrites the file."""
        assert self._state is not None, "begin() was not called"
        self._state["completed"][str(index)] = manifest  # type: ignore[index]
        self._write()

    def finish(self) -> None:
        """The run completed: drop the spills and the manifest.

        The directory itself is left in place (it is caller-owned — the
        service keeps one per job).
        """
        self._clear_spills()
        try:
            os.remove(self.manifest_path)
        except OSError:
            pass
        self._state = None

    # ------------------------------------------------------------ internals
    def _clear_spills(self) -> None:
        if not os.path.isdir(self.directory):
            return
        for name in os.listdir(self.directory):
            if name.startswith("shard-") and name.endswith(".spill"):
                try:
                    os.remove(os.path.join(self.directory, name))
                except OSError:
                    pass

    def _write(self) -> None:
        text = json.dumps(self._state, indent=2, sort_keys=True) + "\n"
        write_durably(self.manifest_path, lambda handle: handle.write(text))
