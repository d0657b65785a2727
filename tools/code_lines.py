"""Count the lines of Python files by kind: code, comment, docstring and blank.

    python3 tools/code_lines.py [PATH ...]

prints, for each ``.py`` file under the PATHs (``src/eub`` by default;
a PATH may also be one file), its lines, code, comment, docstring and
blank lines, and then their totals. A line is

- blank if it holds only whitespace, wherever it is, inside a string too;
- code if it holds a token other than a comment, NL, NEWLINE, INDENT or
  DEDENT and other than a string statement (a STRING token that opens a
  logical line, such as a docstring); a token spread over several lines,
  such as a multi-line string inside an expression, holds each of them;
- docstring if it holds a string statement and no code;
- comment otherwise: comment-only lines, and the rare line that holds no
  token, such as a lone backslash continuation.

The four kinds add up to the file's lines. Needs only the standard library.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "comment", "docstring", "blank")
# tokens that hold no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count(source: str) -> dict:
    """The counts of one file's text: ``lines`` and one entry per kind of ``KINDS``."""
    lines = source.splitlines()
    code, doc = set(), set()
    opens = True  # the next significant token opens a logical line
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            # INDENT and DEDENT come only after a NEWLINE
            opens = opens or tok.type == tokenize.NEWLINE
            continue
        span = range(tok.start[0], tok.end[0] + 1)
        (doc if opens and tok.type == tokenize.STRING else code).update(span)
        opens = False
    counts = dict.fromkeys(KINDS, 0)
    for number, text in enumerate(lines, 1):
        kind = "blank" if not text.strip() else "code" if number in code else "docstring" if number in doc else "comment"
        counts[kind] += 1
    return {"lines": len(lines), **counts}


def python_files(paths) -> list:
    """The ``.py`` files of each path, a file or a directory searched recursively, sorted."""
    files = []
    for path in map(Path, paths):
        files += [path] if path.is_file() else sorted(path.rglob("*.py"))
    return files


def main(argv=None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or [str(ROOT / "src" / "eub")]
    files = python_files(paths)
    if not files:
        print(f"no Python files under {' '.join(paths)}", file=sys.stderr)
        return 2
    columns = ("lines",) + KINDS
    total = dict.fromkeys(columns, 0)
    print("".join(f"{name:>10}" for name in columns) + "  file")
    for path in files:
        counts = count(path.read_text(encoding="utf-8"))
        for name in columns:
            total[name] += counts[name]
        print("".join(f"{counts[name]:>10}" for name in columns) + f"  {path}")
    print("".join(f"{total[name]:>10}" for name in columns) + "  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
