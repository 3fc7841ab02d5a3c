"""Python tokens in the library's modules, the size measure of ROADMAP aim 2.

Counts the tokens of every ``src/vecmkit/*.py`` with ``tokenize``, leaving
out those that carry no code: ENCODING, NL, NEWLINE, INDENT, DEDENT,
COMMENT and ENDMARKER. A docstring counts as one token. Prints the count
per module and the total. From Python 3.12 on, ``tokenize`` splits each
f-string into several tokens, so counts compare only under one Python
minor version; the figures in ROADMAP.md are Python 3.11's.

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


def count_tokens(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(tok.type not in SKIPPED for tok in tokenize.tokenize(fh.readline))


def main() -> None:
    total = 0
    for path in sorted((ROOT / "src" / "vecmkit").glob("*.py")):
        n = count_tokens(path)
        total += n
        print(f"{path.name:16s} {n:6d}")
    print(f"{'total':16s} {total:6d}")


if __name__ == "__main__":
    main()
