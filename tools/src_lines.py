"""Count the lines of the package source: total, code, docstring and
comment, and blank.

A string token that is a whole statement is a docstring, and the blank
lines inside a docstring count as docstring. A line with code on it is
code, even with a comment after the code; a line holding only a comment
is comment.

With ``--against REV``, it prints instead each module's and the total net
change in lines since the git revision REV, whose files it reads with
``git show REV:path``, so no fetch is needed.

    python tools/src_lines.py [--against REV] [DIR ...]    (default: src/afsp)
"""

from __future__ import annotations

import argparse
import subprocess
import tokenize
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent

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


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(_ROOT), *args], check=True, capture_output=True, encoding="utf-8"
    ).stdout


def against(rev: str, directory: str) -> None:
    """Print the line count at ``rev`` and now, and the change, of each
    module of ``directory`` that differs, then of them all."""
    prefix = Path(directory).resolve().relative_to(_ROOT).as_posix()
    old = {
        name: len(_git("show", f"{rev}:{name}").splitlines())
        for name in _git("ls-tree", "-r", "--name-only", rev, "--", prefix).splitlines()
        if name.endswith(".py")
    }
    new = {
        path.relative_to(_ROOT).as_posix(): len(path.read_text(encoding="utf-8").splitlines())
        for path in (_ROOT / prefix).rglob("*.py")
    }
    print(f"{prefix} against {rev}:")
    rows = [(name, old.get(name, 0), new.get(name, 0)) for name in sorted(old.keys() | new.keys())]
    rows.append(("total", sum(old.values()), sum(new.values())))
    for name, before, after in rows:
        if before != after or name == "total":
            print(f"  {before:6,} -> {after:6,}  {after - before:+5,}  {name}")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="print the net change since REV")
    parser.add_argument("dirs", nargs="*", default=[str(_ROOT / "src" / "afsp")])
    args = parser.parse_args(argv)
    for directory in args.dirs:
        if args.against:
            if not Path(directory).resolve().is_relative_to(_ROOT):
                parser.error(f"{directory} is not inside the repository at {_ROOT}")
            against(args.against, directory)
            continue
        totals = dict.fromkeys(("total", "code", "docstring and comment", "blank"), 0)
        for path in sorted(Path(directory).rglob("*.py")):
            for key, value in count(path).items():
                totals[key] += value
        print(f"{directory}: " + ", ".join(f"{value:,} {key}" for key, value in totals.items()))


if __name__ == "__main__":
    main()
