"""Count the lines of the package source: total, code, docstring and
comment, and blank.

A string token that is a whole statement is a docstring, and the blank
lines inside a docstring count as docstring. A line with code on it is
code, even with a comment after the code; a line holding only a comment
is comment.

    python tools/src_lines.py [DIR ...]    (default: src/afsp)
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER, tokenize.COMMENT}


def count(path: Path) -> dict[str, int]:
    """The file's total, code, docstring-and-comment and blank lines."""
    with open(path, "rb") as fh:
        lines = fh.read().decode("utf-8").splitlines()
        fh.seek(0)
        tokens = list(tokenize.tokenize(fh.readline))
    code: set[int] = set()
    doc: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            doc.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            statement.append(tok)
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
            kind = doc if all(t.type == tokenize.STRING for t in statement) else code
            for t in statement:
                kind.update(range(t.start[0], t.end[0] + 1))
            statement = []
    counts = {"total": len(lines), "code": 0, "docstring and comment": 0, "blank": 0}
    for number, line in enumerate(lines, start=1):
        if number in code:
            counts["code"] += 1
        elif number in doc:
            counts["docstring and comment"] += 1
        elif not line.strip():
            counts["blank"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv: list[str]) -> None:
    dirs = argv or [str(Path(__file__).resolve().parent.parent / "src" / "afsp")]
    for directory in dirs:
        totals = dict.fromkeys(("total", "code", "docstring and comment", "blank"), 0)
        for path in sorted(Path(directory).rglob("*.py")):
            for key, value in count(path).items():
                totals[key] += value
        print(f"{directory}: " + ", ".join(f"{value:,} {key}" for key, value in totals.items()))


if __name__ == "__main__":
    main(sys.argv[1:])
