#!/usr/bin/env python
"""Documentation checks: dead links, required anchors, named paths, --help snapshots, run options.

Five guards keep the docs/ site honest (CI job ``docs-check``):

1. **Dead links** — every relative markdown link in ``docs/*.md`` and
   ``README.md`` must resolve to an existing file, and every ``#anchor``
   must match a heading of the target page (GitHub slug rules).
2. **Required anchors** — load-bearing section anchors (listed in
   ``REQUIRED_ANCHORS``) must keep existing even if no in-repo page links
   to them at the moment: external docs, CLI ``--help`` text and commit
   messages reference them, so renaming a heading silently strands readers.
   The backends/operations chapter is the first page pinned this way.
3. **Named paths** — every repository path to a ``.py`` or ``.json`` file
   that ``README.md`` or a ``docs/*.md`` page names, in prose or in a code
   block, must exist.  A path is a repository path when its first component
   is a directory at the repository root (``benchmarks/harness/run.py``) or
   a package of ``src/repro`` (``runtime/run.py``), so a page can never tell
   a reader to run or read a file that is gone.
4. **Help snapshots** — the ``--help`` output of ``python -m repro`` and
   each subcommand is snapshotted under ``docs/help/``; the check re-runs
   the CLI and diffs, so the CLI reference can never drift from the code.
5. **Run options** — both front-ends resolve a run through one option table
   (``repro.runtime.run.RUN_OPTIONS``); every key in it must be documented
   in ``docs/cli.md`` (as its flag, and as a spec key when it is one) and in
   ``docs/service.md`` (as a job param), so neither page can drift from the
   one implementation.

Usage::

    PYTHONPATH=src python tools/check_docs.py           # check (exit 1 on drift)
    PYTHONPATH=src python tools/check_docs.py --regen   # rewrite the snapshots

Snapshots are rendered with ``COLUMNS=80``; regenerate with the Python
version the CI job pins (argparse wrapping can vary across versions).
"""

import argparse
import os
import re
import subprocess
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
DOCS_DIR = os.path.join(REPO_ROOT, "docs")
HELP_DIR = os.path.join(DOCS_DIR, "help")

HELP_SNAPSHOTS = {
    "repro.txt": ["--help"],
    "repro-learn.txt": ["learn", "--help"],
    "repro-run.txt": ["run", "--help"],
    "repro-migrate.txt": ["migrate", "--help"],
    "repro-verify.txt": ["verify", "--help"],
    "repro-serve.txt": ["serve", "--help"],
    "repro-worker.txt": ["worker", "--help"],
}

#: Section anchors that must exist on a page, link or no link.  Keys are
#: repo-relative markdown paths; values are GitHub anchor slugs.
REQUIRED_ANCHORS = {
    "docs/backends.md": [
        "the-backend-protocol",
        "the-shipped-backends",
        "the-duckdb-analytics-backend",
        "streamed-record-batches-and-dictionary-encoding",
        "index-ddl-and-the-index-presence-check",
        "shardreduce-dataflow",
        "cross-shard-key-reconciliation",
        "choosing-a-backend",
    ],
    "docs/service.md": [
        "the-http-api",
        "job-lifecycle",
        "checkpoints-and-resume",
        "dry-runs",
        "verification",
    ],
    "docs/robustness.md": [
        "retry-policy",
        "error-classification",
        "timeout-semantics",
        "fault-injection-spec-grammar",
        "degradation-contract",
    ],
    "docs/distributed.md": [
        "wire-protocol",
        "handshake-and-fingerprint-rules",
        "retry-and-redispatch",
        "shard-count-auto-tuning",
        "the-xml-byte-offset-record-index",
        "fault-injection",
        "security-model",
    ],
}

LINK_RE = re.compile(r"(?<!!)\[[^\]]+\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
CODE_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
NAMED_PATH_RE = re.compile(r"(?<![\w./-])(\w[\w.-]*(?:/[\w.-]+)+\.(?:py|json))\b")
PACKAGE_DIR = os.path.join(REPO_ROOT, "src", "repro")


def github_slug(heading):
    """GitHub's anchor slug: lowercase, spaces to dashes, drop punctuation."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*_]", "", slug)
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def markdown_files():
    files = [os.path.join(REPO_ROOT, "README.md")]
    for name in sorted(os.listdir(DOCS_DIR)):
        if name.endswith(".md"):
            files.append(os.path.join(DOCS_DIR, name))
    return files


def check_links():
    errors = []
    anchors = {}

    def anchors_of(path):
        if path not in anchors:
            with open(path, "r", encoding="utf-8") as handle:
                text = CODE_FENCE_RE.sub("", handle.read())
            anchors[path] = {github_slug(h) for h in HEADING_RE.findall(text)}
        return anchors[path]

    for path in markdown_files():
        relative = os.path.relpath(path, REPO_ROOT)
        with open(path, "r", encoding="utf-8") as handle:
            text = CODE_FENCE_RE.sub("", handle.read())
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            file_part, _, anchor = target.partition("#")
            if file_part:
                resolved = os.path.normpath(
                    os.path.join(os.path.dirname(path), file_part)
                )
                if not os.path.exists(resolved):
                    errors.append(f"{relative}: dead link -> {target}")
                    continue
            else:
                resolved = path
            if anchor and resolved.endswith(".md"):
                if github_slug(anchor) not in anchors_of(resolved):
                    errors.append(f"{relative}: dead anchor -> {target}")

    for relative, required in sorted(REQUIRED_ANCHORS.items()):
        path = os.path.join(REPO_ROOT, relative)
        if not os.path.exists(path):
            errors.append(f"{relative}: required page is missing")
            continue
        present = anchors_of(path)
        for slug in required:
            if slug not in present:
                errors.append(
                    f"{relative}: required anchor #{slug} is stale or missing "
                    f"(a heading was renamed or removed)"
                )
    return errors


def check_named_paths():
    errors = []
    for path in markdown_files():
        relative = os.path.relpath(path, REPO_ROOT)
        with open(path, "r", encoding="utf-8") as handle:
            named = sorted(set(NAMED_PATH_RE.findall(handle.read())))
        for name in named:
            first = name.split("/", 1)[0]
            for root in (REPO_ROOT, PACKAGE_DIR):
                if os.path.isdir(os.path.join(root, first)):
                    if not os.path.exists(os.path.join(root, name)):
                        errors.append(f"{relative}: names a missing file -> {name}")
                    break
    return errors


def render_help(arguments):
    env = dict(os.environ)
    env["COLUMNS"] = "80"
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, "-m", "repro", *arguments],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        check=True,
    )
    return result.stdout


def check_help(regen):
    errors = []
    os.makedirs(HELP_DIR, exist_ok=True)
    for name, arguments in HELP_SNAPSHOTS.items():
        path = os.path.join(HELP_DIR, name)
        rendered = render_help(arguments)
        if regen:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(rendered)
            print(f"wrote {os.path.relpath(path, REPO_ROOT)}")
            continue
        if not os.path.exists(path):
            errors.append(f"missing help snapshot docs/help/{name} (run --regen)")
            continue
        with open(path, "r", encoding="utf-8") as handle:
            expected = handle.read()
        if expected != rendered:
            errors.append(
                f"docs/help/{name} is stale (run "
                f"`PYTHONPATH=src python tools/check_docs.py --regen`)"
            )
    return errors


def check_run_options():
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.runtime.run import RUN_OPTIONS

    pages = {}
    for name in ("cli.md", "service.md"):
        with open(os.path.join(DOCS_DIR, name), "r", encoding="utf-8") as handle:
            pages[name] = handle.read()
    errors = []
    for key, (is_spec_key, _) in RUN_OPTIONS.items():
        flag = "--no-stream" if key == "whole_tree" else "--" + key.replace("_", "-")
        wanted = [("cli.md", f"`{flag}", "flag"), ("service.md", f'`"{key}"`', "job param")]
        if is_spec_key:
            wanted.append(("cli.md", f"`{key}`", "spec key"))
        for page, needle, role in wanted:
            if needle not in pages[page]:
                errors.append(
                    f"docs/{page}: run option {key!r} is not documented as a {role} "
                    f"(expected {needle.strip('`')} in backticks)"
                )
    return errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--regen", action="store_true", help="rewrite the --help snapshots"
    )
    args = parser.parse_args(argv)

    errors = check_links()
    errors.extend(check_named_paths())
    errors.extend(check_help(args.regen))
    errors.extend(check_run_options())
    if errors:
        for error in errors:
            print(f"docs-check: {error}", file=sys.stderr)
        return 1
    checked = len(markdown_files())
    print(
        f"docs-check ok: {checked} markdown files, named paths exist, "
        f"{len(HELP_SNAPSHOTS)} help snapshots, run options documented"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
