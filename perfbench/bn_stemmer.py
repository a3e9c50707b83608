"""Light Bangla suffix stripper speaking normeval's ``ext:`` line protocol.

Reads ``NORM<TAB>token`` lines on stdin and answers ``OK<TAB>stem`` on
stdout until stdin closes. The stem is the token with the longest listed
inflectional suffix removed, provided something is left of the token.
Standard library only, so it runs under the interpreter that starts it:

    python3 perfbench/bn_stemmer.py
"""

import sys

# Inflectional suffixes: plural and case markers, classifiers.
SUFFIXES = (
    "গুলো",
    "গুলি",
    "দের",
    "েরা",
    "ের",
    "টা",
    "টি",
    "কে",
    "তে",
    "রা",
    "র",
)
_LONGEST_FIRST = sorted(SUFFIXES, key=len, reverse=True)


def stem(token: str) -> str:
    for suffix in _LONGEST_FIRST:
        if token.endswith(suffix) and len(token) > len(suffix):
            return token[: -len(suffix)]
    return token


def main() -> int:
    for line in sys.stdin:
        kind, _, token = line.rstrip("\n").partition("\t")
        if kind == "NORM":
            sys.stdout.write(f"OK\t{stem(token)}\n")
        else:
            sys.stdout.write(f"ERR\tunknown request {kind!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
