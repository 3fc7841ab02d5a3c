"""Python tokens in the library's modules, the size measure of ROADMAP aim 2.

Counts the tokens of every ``src/vecmkit/*.py`` with ``tokenize``, leaving
out those that carry no code: ENCODING, NL, NEWLINE, INDENT, DEDENT,
COMMENT and ENDMARKER. A docstring counts as one token, and so does an
f-string: from Python 3.12 on, ``tokenize`` splits each f-string into a
FSTRING_START ... FSTRING_END run, which is counted as the one STRING token
Python 3.11 gives it, nested f-strings included, so every Python reports
the figures in ROADMAP.md. Prints the count per module and the total.

    python3 scripts/count_tokens.py

It counts the checkout it lives in; to count another revision, run a copy
of it placed in that revision's tree. It is not a tier-1 test.
"""

from __future__ import annotations

import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SKIPPED = {
    tokenize.ENCODING,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.COMMENT,
    tokenize.ENDMARKER,
}
# None before Python 3.12, where an f-string is one STRING token
FSTRING_START = getattr(tokenize, "FSTRING_START", None)
FSTRING_END = getattr(tokenize, "FSTRING_END", None)


def count_tokens(path: Path) -> int:
    count = depth = 0  # depth: f-strings open at this token
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == FSTRING_START:
                count += depth == 0
                depth += 1
            elif tok.type == FSTRING_END:
                depth -= 1
            elif depth == 0:
                count += tok.type not in SKIPPED
    return count


def main() -> None:
    total = 0
    for path in sorted((ROOT / "src" / "vecmkit").glob("*.py")):
        n = count_tokens(path)
        total += n
        print(f"{path.name:16s} {n:6d}")
    print(f"{'total':16s} {total:6d}")


if __name__ == "__main__":
    main()
