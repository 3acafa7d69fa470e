#!/usr/bin/env python3
"""Code, docstring and comment lines of each Python module under src/.

    python3 tools/src_lines.py               # the working tree
    python3 tools/src_lines.py --base main   # and each count's change against a git ref

Lines are classified from the AST and the token stream, not by pattern:
a docstring line lies inside a module, class or function docstring; a
comment line holds a comment and no code; a code line is any other line
with a token on it (a code line with a trailing comment is code).  Blank
lines count as none of them.  So deleting comments or docstrings moves no
code count, and a claim that the code got smaller can be read off the code
column alone.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def classify(text: str) -> dict[str, int]:
    """Code, docstring and comment line counts of one module's source."""
    doc: set[int] = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                doc.update(range(first.lineno, first.end_lineno + 1))
    code: set[int] = set()
    comment: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= doc
    return {"code": len(code), "docstring": len(doc), "comment": len(comment - code - doc)}


def tree_sources() -> dict[str, str]:
    """Each src/ module of the working tree, by its path from the root."""
    return {p.relative_to(ROOT).as_posix(): p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))}


def ref_sources(ref: str) -> dict[str, str]:
    """Each src/ module at a git ref, by its path from the root."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout

    paths = [p for p in git("ls-tree", "-r", "--name-only", ref, "--", "src").splitlines() if p.endswith(".py")]
    return {p: git("show", f"{ref}:{p}") for p in paths}


def table(sources: dict[str, str]) -> dict[str, dict[str, int]]:
    rows = {path: classify(text) for path, text in sources.items()}
    rows["total"] = {k: sum(r[k] for r in rows.values()) for k in KINDS}
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git ref to compare the working tree against")
    args = parser.parse_args(argv)

    now = table(tree_sources())
    base = table(ref_sources(args.base)) if args.base else None
    width = max(len(p) for p in [*now, *(base or ())])
    header = f"{'module':{width}s} " + " ".join(f"{k:>9s}" for k in KINDS)
    if base is not None:
        header += "   " + " ".join(f"{'d ' + k:>11s}" for k in KINDS)
    print(header)
    paths = sorted((set(now) | set(base or ())) - {"total"}) + ["total"]
    zero = dict.fromkeys(KINDS, 0)
    for path in paths:
        row = now.get(path, zero)
        line = f"{path:{width}s} " + " ".join(f"{row[k]:9d}" for k in KINDS)
        if base is not None:
            old = base.get(path, zero)
            line += "   " + " ".join(f"{row[k] - old[k]:+11d}" for k in KINDS)
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
