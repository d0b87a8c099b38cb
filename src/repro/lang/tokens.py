"""Token definitions for the Tangram-like DSL lexer."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .reductions import QUALIFIER_OPS
from .source import Span


class TokenKind(enum.Enum):
    # literals and identifiers
    IDENT = "identifier"
    INT_LITERAL = "integer literal"
    FLOAT_LITERAL = "float literal"

    # keywords
    KW_CODELET = "__codelet"
    KW_COOP = "__coop"
    KW_TAG = "__tag"
    KW_SHARED = "__shared"
    KW_TUNABLE = "__tunable"
    KW_ATOMIC = "atomic qualifier"  # the token text names the op
    KW_CONST = "const"
    KW_INT = "int"
    KW_UNSIGNED = "unsigned"
    KW_FLOAT = "float"
    KW_DOUBLE = "double"
    KW_BOOL = "bool"
    KW_VOID = "void"
    KW_IF = "if"
    KW_ELSE = "else"
    KW_FOR = "for"
    KW_WHILE = "while"
    KW_RETURN = "return"
    KW_TRUE = "true"
    KW_FALSE = "false"
    KW_ARRAY = "Array"
    KW_SEQUENCE = "Sequence"
    KW_MAP = "Map"
    KW_VECTOR = "Vector"

    # punctuation
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    SEMICOLON = ";"
    DOT = "."
    QUESTION = "?"
    COLON = ":"
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    EQ = "=="
    NE = "!="
    ASSIGN = "="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    PLUS_ASSIGN = "+="
    MINUS_ASSIGN = "-="
    STAR_ASSIGN = "*="
    SLASH_ASSIGN = "/="
    PERCENT_ASSIGN = "%="
    SHL_ASSIGN = "<<="
    SHR_ASSIGN = ">>="
    AND_AND = "&&"
    OR_OR = "||"
    NOT = "!"
    AMP = "&"
    PIPE = "|"
    CARET = "^"
    TILDE = "~"
    SHL = "<<"
    SHR = ">>"
    PLUS_PLUS = "++"
    MINUS_MINUS = "--"
    EOF = "<eof>"


KEYWORDS = {
    "__codelet": TokenKind.KW_CODELET,
    "__coop": TokenKind.KW_COOP,
    "__tag": TokenKind.KW_TAG,
    "__shared": TokenKind.KW_SHARED,
    "__tunable": TokenKind.KW_TUNABLE,
    **dict.fromkeys(QUALIFIER_OPS, TokenKind.KW_ATOMIC),
    "const": TokenKind.KW_CONST,
    "int": TokenKind.KW_INT,
    "unsigned": TokenKind.KW_UNSIGNED,
    "float": TokenKind.KW_FLOAT,
    "double": TokenKind.KW_DOUBLE,
    "bool": TokenKind.KW_BOOL,
    "void": TokenKind.KW_VOID,
    "if": TokenKind.KW_IF,
    "else": TokenKind.KW_ELSE,
    "for": TokenKind.KW_FOR,
    "while": TokenKind.KW_WHILE,
    "return": TokenKind.KW_RETURN,
    "true": TokenKind.KW_TRUE,
    "false": TokenKind.KW_FALSE,
    "Array": TokenKind.KW_ARRAY,
    "Sequence": TokenKind.KW_SEQUENCE,
    "Map": TokenKind.KW_MAP,
    "Vector": TokenKind.KW_VECTOR,
}


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    span: Span

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r})"
