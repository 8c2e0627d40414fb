#!/usr/bin/env python
"""Drift audit: one line per learned program, to diff across commits.

Learns every Table 1 task under ``DEFAULT_CONFIG`` with ``jobs=1`` and
prints one tab-separated line per task: the task name, the program's
θ-cost and the sha256 of its ``pretty_program`` text (``unsolved`` when no
program is found).  Then it learns the four Table 2 plans and prints the
``content_fingerprint()`` of each.  The plans are learned from the same
specs the pinned plan fingerprints in the test suite use.

A change that is meant to keep every learned program byte-identical keeps
the listing identical; a change that moves programs on purpose updates the
committed listing, and the diff names the programs that moved.

Usage::

    python tools/drift_audit.py                    # print the listing
    python tools/drift_audit.py > tools/drift_audit.txt   # re-baseline
    python tools/drift_audit.py --check tools/drift_audit.txt

``--check FILE`` prints a unified diff against ``FILE`` and exits 1 on any
difference.  It takes about half a minute on two cores.
"""

import argparse
import difflib
import hashlib
import os
import sys
from typing import List

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.benchmarks_suite import load_suite  # noqa: E402
from repro.datasets import dblp, imdb, mondial, yelp  # noqa: E402
from repro.dsl.cost import program_cost  # noqa: E402
from repro.dsl.pretty import pretty_program  # noqa: E402
from repro.runtime.plan import MigrationPlan  # noqa: E402
from repro.synthesis import (  # noqa: E402
    DEFAULT_CONFIG,
    ExamplePair,
    SynthesisTask,
    Synthesizer,
)

#: The Table 2 specs, as the plan pins in ``tests/test_streaming_executor.py``
#: learn them.
TABLE2_SPECS = (
    ("dblp", lambda: dblp.dataset(scale=3).migration_spec()),
    ("imdb", lambda: imdb.dataset().migration_spec()),
    ("mondial", lambda: mondial.dataset().migration_spec()),
    ("yelp", lambda: yelp.dataset().migration_spec()),
)


def table1_lines() -> List[str]:
    lines = []
    for task in load_suite():
        result = Synthesizer(DEFAULT_CONFIG, jobs=1).synthesize(
            SynthesisTask(
                examples=[ExamplePair(task.tree, [tuple(r) for r in task.rows])],
                name=task.name,
            )
        )
        if not result.success or result.program is None:
            lines.append(f"{task.name}\tunsolved")
            continue
        theta = program_cost(result.program)[:3]  # the fourth part is the text
        digest = hashlib.sha256(pretty_program(result.program).encode("utf-8"))
        lines.append(f"{task.name}\t{theta}\t{digest.hexdigest()}")
    return lines


def table2_lines() -> List[str]:
    return [
        f"plan:{name}\t{MigrationPlan.learn(spec()).content_fingerprint()}"
        for name, spec in TABLE2_SPECS
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        metavar="FILE",
        help="diff the listing against FILE and exit 1 on any difference",
    )
    args = parser.parse_args(argv)
    lines = table1_lines() + table2_lines()
    if args.check is None:
        print("\n".join(lines))
        return 0
    with open(args.check, "r", encoding="utf-8") as handle:
        expected = handle.read().splitlines()
    diff = list(
        difflib.unified_diff(expected, lines, args.check, "learned", lineterm="")
    )
    if diff:
        print("\n".join(diff))
        moved = sum(1 for line in diff if line.startswith("+") and not line.startswith("+++"))
        print(f"drift: {moved} of {len(lines)} lines differ", file=sys.stderr)
        return 1
    print(f"no drift: {len(lines)} lines identical to {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
