"""Count the code lines of Python modules, by the rule that the ROADMAP's
and CHANGES.md's code-line figures use.

A code line holds a token other than a comment or a docstring; blank lines
and lines that hold only comments or docstrings are skipped. A docstring
here is any statement that is a lone string literal. A token that spans
lines (a multi-line string) makes each of its lines a code line.

    python3 tools/code_lines.py src/otpwallet

prints each module's count and the total; a path may be a module or a
directory, whose `*.py` files are counted (not those of subdirectories).
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

# Tokens that end a statement, open or close a block, or end the file;
# comments and the breaks of blank lines are dropped before.
_NOT_CODE = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}
# Tokens after which a statement starts (None: the first token).
_STATEMENT_START = {None, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(source: str) -> int:
    """The number of code lines in `source`."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, token in enumerate(tokens):
        if token.type in _NOT_CODE:
            continue
        before = tokens[i - 1].type if i else None
        after = tokens[i + 1].type if i + 1 < len(tokens) else None
        if (token.type == tokenize.STRING and before in _STATEMENT_START
                and after == tokenize.NEWLINE):
            continue                            # a docstring
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def count(paths: list[str]) -> dict[str, int]:
    """Each module's count, by its path as given or under its directory."""
    modules = []
    for path in map(Path, paths):
        modules.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    return {str(m): code_lines(m.read_text(encoding="utf-8")) for m in modules}


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 tools/code_lines.py PATH...", file=sys.stderr)
        return 2
    counts = count(argv)
    width = max(map(len, counts), default=5)
    for module, lines in counts.items():
        print(f"{module:<{width}}  {lines:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
