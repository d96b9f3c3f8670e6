#!/usr/bin/env python3
"""Count the code lines of each module of a package, and the total.

A code line holds at least one token that is not a comment and not part
of a docstring, so blank, comment and docstring lines do not count: a
change that only deletes them leaves the count where it was.  A docstring
here is any string that is a statement on its own.

    python scripts/code_lines.py [directory ...]   (default: src/knnfunc)
"""

import argparse
import io
import tokenize
from pathlib import Path

DEFAULT_DIR = Path(__file__).resolve().parent.parent / "src" / "knnfunc"
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(source: str) -> int:
    """The number of code lines in a Python source text."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT or tok.type == tokenize.ENDMARKER:
            continue
        docstring = (tok.type == tokenize.STRING
                     and (i == 0 or tokens[i - 1].type in _LAYOUT)
                     and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER))
        if not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dirs", nargs="*", default=[str(DEFAULT_DIR)])
    args = ap.parse_args()
    for directory in args.dirs:
        total = 0
        for path in sorted(Path(directory).glob("*.py")):
            n = code_lines(path.read_text(encoding="utf-8"))
            total += n
            print(f"{n:6d}  {path.name}")
        print(f"{total:6d}  total ({directory})")


if __name__ == "__main__":
    main()
