#!/usr/bin/env python
"""Count the lines of Python source: physical lines and code-only lines.

Code-only lines leave out blank lines, comment lines and docstrings (any
string literal that is a whole statement on its own).  A line that holds
code and a trailing comment counts as code.  The two numbers make a
change's "lines before and after" one command: run it on both commits.

Usage::

    python tools/loc.py            # src/
    python tools/loc.py src tests  # one line per directory or file
"""

import argparse
import io
import os
import sys
import tokenize
from typing import Iterator, Tuple

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

#: Tokens that are never code on their own.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def count_file(path: str) -> Tuple[int, int]:
    """``(physical lines, code-only lines)`` of one Python file."""
    with open(path, "rb") as handle:
        source = handle.read()
    physical = len(source.splitlines())
    code = set()
    statement = []
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                for part in statement:
                    code.update(range(part.start[0], part.end[0] + 1))
            statement = []
        elif token.type not in _LAYOUT:
            statement.append(token)
    return physical, len(code)


def python_files(path: str) -> Iterator[str]:
    if os.path.isfile(path):
        yield path
        return
    for directory, subdirectories, names in os.walk(path):
        subdirectories.sort()
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(directory, name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="directories or files (default: src)"
    )
    args = parser.parse_args(argv)
    for path in args.paths:
        full = path if os.path.isabs(path) else os.path.join(REPO_ROOT, path)
        if not os.path.exists(full):
            print(f"error: no such file or directory: {path}", file=sys.stderr)
            return 1
        files = list(python_files(full))
        physical = code = 0
        for name in files:
            file_physical, file_code = count_file(name)
            physical += file_physical
            code += file_code
        print(f"{path}: {physical} physical lines, {code} code-only lines, {len(files)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
