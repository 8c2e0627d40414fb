"""One durable write for the runtime's small records.

Job records, checkpoint manifests, shard result sidecars, context-store
entries and plan-cache entries are all replaced whole.  A reader must see
either the old file or the new one, also after a crash: a record that is
empty or half written would be skipped by its loader, and the job it holds
forgotten or the resume it guards started over.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, TextIO


def write_durably(path: str, write: Callable[[TextIO], object]) -> None:
    """Replace ``path`` with the text ``write`` writes to the handle it is given.

    The text goes to a temporary file next to ``path``, unique per process
    and thread, which is flushed and ``fsync``-ed before ``os.replace``
    moves it into place.  If anything raises — ``write`` included — the
    temporary file is removed and ``path`` keeps its old content.
    """
    temporary = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
    except BaseException:
        try:
            os.remove(temporary)
        except OSError:
            pass
        raise
