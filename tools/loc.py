"""Count the code, docstring, comment and blank lines of each module of
``src/delaycontrol``, and their totals.

Usage (from the repository root):

    python3 tools/loc.py [REV]

Without REV the working tree is counted; with REV that revision, extracted
with ``git archive`` into a temporary directory.  The lines spanned by a
module, class or function docstring are docstring lines; of the rest, an
empty line is blank, a line whose first character past the indent is
``#`` is a comment, and every other line is code.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from typing import Dict, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "delaycontrol")
KINDS = ("code", "docstring", "comment", "blank")


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> Dict[str, int]:
    """The four line counts of one module's source."""
    docs = _docstring_lines(ast.parse(source))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        kind = ("docstring" if number in docs else "blank" if not text
                else "comment" if text.startswith("#") else "code")
        counts[kind] += 1
    return counts


def count_tree(root: str) -> Dict[str, Dict[str, int]]:
    """Each module's counts under ``root``'s package directory, by file name."""
    package = os.path.join(root, PACKAGE)
    out = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                out[name] = count(fh.read())
    return out


def report(counts: Dict[str, Dict[str, int]]) -> str:
    width = max(len(name) for name in counts)
    totals: Dict[str, int] = dict.fromkeys(KINDS, 0)
    rows = [f"{'module':<{width}} " + " ".join(f"{kind:>9}" for kind in KINDS)]
    for name, row in counts.items():
        rows.append(f"{name:<{width}} " + " ".join(f"{row[kind]:>9,}" for kind in KINDS))
        for kind in KINDS:
            totals[kind] += row[kind]
    rows.append(f"{'total':<{width}} " + " ".join(f"{totals[kind]:>9,}" for kind in KINDS))
    return "\n".join(rows)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", help="git revision to count instead of the working tree")
    args = parser.parse_args()
    if args.rev is None:
        print(report(count_tree(ROOT)))
        return 0
    with tempfile.TemporaryDirectory(prefix="loc-") as tmp:
        archive = subprocess.run(["git", "-C", ROOT, "archive", args.rev, PACKAGE],
                                 check=True, stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        print(report(count_tree(tmp)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
