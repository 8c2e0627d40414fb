"""Checkpoint manifests: resume a sharded run at the first unfinished shard.

A sharded execution's natural checkpoint unit is the per-shard spill file —
CRC-framed, fingerprint-validated, self-describing (see
:mod:`repro.runtime.sharded`).  :class:`ShardCheckpoint` manages a directory
holding those spills plus a small ``checkpoint.json`` manifest of the run
parameters:

.. code-block:: json

    {
      "kind": "repro_shard_checkpoint",
      "plan_fingerprint": "1f6a…",
      "shards": 8,
      "chunk_size": 1000,
      "records": 40000
    }

The parameters make a resume against a different plan, shard count, chunk
size or document raise instead of silently producing garbage.  Which shards
are done is not recorded anywhere but in the spills themselves: at
:meth:`ShardCheckpoint.begin` every present spill is fully replayed through
the spill validator (:func:`~repro.runtime.sharded.validate_spill`), so a
shard counts as done whenever its spill is whole, however the run died — and
a spill cut short or corrupted is deleted and its shard re-executed.  The
manifest is written once, when a fresh run begins.

Both the daemon's job runner and the one-shot CLI (``repro run --resume``)
use this class; :func:`~repro.runtime.sharded.shard_execute` only sees its
``directory`` / ``begin`` / ``finish`` surface.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

from ..durable import write_durably
from ..sharded import ShardError, _spill_path, validate_spill

CHECKPOINT_MANIFEST_NAME = "checkpoint.json"

_CHECKPOINT_KIND = "repro_shard_checkpoint"


class ShardCheckpoint:
    """A directory of shard spills plus the manifest that makes them resumable.

    One instance belongs to one job (one ``shard_execute`` call at a time);
    the directory is created lazily at :meth:`begin`.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory

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
        leftover spills and write the manifest.  Resumed runs validate the
        stored parameters against this run's (mismatch raises
        :class:`~repro.runtime.sharded.ShardError` — resuming under changed
        parameters would interleave incompatible spills), then replay every
        present spill end to end: the valid ones are returned as
        ``{shard_index: end_manifest}`` and skipped by the map stage, the
        invalid ones (truncated by a killed worker, corrupted, or of an
        older spill format) are deleted and re-run.
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
            mismatched = [key for key in params if stored.get(key) != params[key]]
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
            text = json.dumps({"kind": _CHECKPOINT_KIND, **params}, indent=2, sort_keys=True)
            write_durably(self.manifest_path, lambda handle: handle.write(text + "\n"))
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
                # A partial, corrupt or old-format spill: remove it so the
                # map stage re-executes the shard from scratch.
                try:
                    os.remove(path)
                except OSError:
                    pass
        return completed

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
