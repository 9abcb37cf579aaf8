"""The tokenizer of one ``re.match`` per token, kept as the tests' oracle
for ``pairs._tokenize``, which splits a text with one ``findall``.

Tokens are (kind, text, position) with kind "num", "name" or "punct".  A
bad character is reported at the start of the whitespace before it, if
any: the one place where ``pairs._tokenize`` differs, since it names the
character itself.
"""

from __future__ import annotations

import re

from etkit.errors import ParseError

_TOKEN_RE = re.compile(r"\s*(?:(?P<num>-?[0-9]+)|(?P<name>[A-Za-z]+)|(?P<punct>[*(),=/]))")


def tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens
