"""Entry point of the benchmark: ``python3 benchmarks/harness/run.py --help``.

Puts ``benchmarks/`` (for the ``harness`` package) and ``src/`` (for the
program under test) on the import path, so the command needs no
``PYTHONPATH`` and works from a plain checkout.
"""

import os
import sys

_BENCHMARKS = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(os.path.dirname(_BENCHMARKS), "src"), _BENCHMARKS):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from harness.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
