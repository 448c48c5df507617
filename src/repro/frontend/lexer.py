"""Tokenizer for the C subset.

Produces a flat token stream.  ``#pragma`` lines (with ``\\`` continuations
merged) are emitted as single ``PRAGMA`` tokens carrying the directive text;
the C parser hands their payload to :mod:`repro.frontend.pragmas`.

Comments (``//`` and ``/* */``) are stripped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import ParseError

__all__ = ["Token", "tokenize"]


@dataclass(frozen=True)
class Token:
    """One lexical token."""

    kind: str  # ID, INT, FLOAT, OP, PUNCT, PRAGMA, EOF
    text: str
    line: int
    col: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r}, L{self.line})"


# longest-match-first operator table
_OPERATORS = [
    "<<=", ">>=",
    "&&", "||", "<=", ">=", "==", "!=", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
    "+", "-", "*", "/", "%", "<", ">", "=", "&", "|", "^", "!", "~", "?", ":",
]
_PUNCT = "(){}[];,"

#: one token per match, alternatives in the order the rules apply:
#: blanks, number (hex first), identifier, operator (longest first),
#: punctuation
_TOKEN_RE = re.compile("|".join((
    r"(?P<WS>[ \t\r]+)",
    r"(?P<NUM>0[xX][0-9a-fA-F]+[uUlL]*"
    r"|(?:\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+[eE][+-]?\d+|\d+)[fFlLuU]*)",
    r"(?P<ID>[A-Za-z_][A-Za-z0-9_]*)",
    "(?P<OP>" + "|".join(map(re.escape, _OPERATORS)) + ")",
    "(?P<PUNCT>[" + re.escape(_PUNCT) + "])",
)))


def _strip_comments(src: str) -> str:
    """Remove comments, preserving line structure for error reporting."""
    out: list[str] = []
    i, n = 0, len(src)
    while True:
        j = src.find("/", i)
        if j < 0 or j + 1 >= n:
            out.append(src[i:])
            return "".join(out)
        if src[j + 1] == "/":
            out.append(src[i:j])
            k = src.find("\n", j)
            i = n if k < 0 else k
        elif src[j + 1] == "*":
            out.append(src[i:j])
            k = src.find("*/", j + 2)
            if k < 0:
                raise ParseError("unterminated /* comment",
                                 line=src.count("\n", 0, j) + 1)
            out.append("\n" * src.count("\n", j, k + 2))
            i = k + 2
        else:
            out.append(src[i:j + 1])
            i = j + 1


def tokenize(src: str) -> list[Token]:
    """Tokenize source text; raises :class:`ParseError` on bad input."""
    src = _strip_comments(src)
    tokens: list[Token] = []
    lines = src.split("\n")
    lineno = 0
    while lineno < len(lines):
        line = lines[lineno]
        stripped = line.lstrip()
        if stripped.startswith("#"):
            # preprocessor line: merge continuations
            start_line = lineno + 1
            text = stripped
            while text.rstrip().endswith("\\") and lineno + 1 < len(lines):
                text = text.rstrip()[:-1] + " " + lines[lineno + 1].strip()
                lineno += 1
            body = text[1:].strip()
            if body.startswith("pragma"):
                tokens.append(Token("PRAGMA", body[len("pragma"):].strip(),
                                    start_line, 1))
            # other preprocessor lines (#include, #define) are ignored:
            # constants come in through the compile() consts mapping
            lineno += 1
            continue
        _tokenize_line(line, lineno + 1, tokens)
        lineno += 1
    tokens.append(Token("EOF", "", len(lines), 1))
    return tokens


def _tokenize_line(line: str, lineno: int, out: list[Token]) -> None:
    i, n = 0, len(line)
    while i < n:
        m = _TOKEN_RE.match(line, i)
        if m is None:
            c = line[i]
            if c.isdigit() or (c == "." and i + 1 < n
                               and line[i + 1].isdigit()):
                raise ParseError(f"bad numeric literal near {line[i:i+8]!r}",
                                 line=lineno, col=i + 1)
            raise ParseError(f"unexpected character {c!r}",
                             line=lineno, col=i + 1)
        kind, text = m.lastgroup, m.group()
        if kind == "NUM":
            low = text.lower()
            kind = "FLOAT" if ("." in low or "e" in low
                               and not low.startswith("0x")) else "INT"
        if kind != "WS":
            out.append(Token(kind, text, lineno, i + 1))
        i = m.end()
