"""Size of the package: lines and code lines of each module of src/nccmc.

    python tools/size.py [PACKAGE_DIR]

PACKAGE_DIR defaults to this checkout's src/nccmc; pass another
checkout's to count it by the same rule.  For each module the table gives
``wc -l``'s count (newline characters) and the code lines: the lines where
a code token starts.  Blank and comment-only lines do not count, nor do
docstring lines (a string that is a whole statement) or the continuation
lines of a multi-line string.  The last row sums the modules.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

# tokens that hold no code: line ends, indentation and the stream's ends
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of ``source`` where a code token starts, docstrings aside."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    rows = set()
    for i, tok in enumerate(tokens):
        # a string that is a whole statement is a docstring
        docstring = (tok.type == tokenize.STRING and (i == 0 or tokens[i - 1].type in _LAYOUT)
                     and tokens[i + 1].type == tokenize.NEWLINE)
        if tok.type not in _LAYOUT and not docstring:
            rows.add(tok.start[0])
    return len(rows)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "nccmc"
    rows = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        rows.append((path.name, source.count("\n"), code_lines(source)))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
