"""Unit tests for the DSL lexer."""

import pytest

from repro.lang import LexError, TokenKind, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)[:-1]]  # drop EOF


def texts(text):
    return [t.text for t in tokenize(text)[:-1]]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifiers(self):
        assert kinds("foo bar_baz _x x9") == [TokenKind.IDENT] * 4

    def test_keywords_are_not_identifiers(self):
        assert kinds("int unsigned float if else for return") == [
            TokenKind.KW_INT,
            TokenKind.KW_UNSIGNED,
            TokenKind.KW_FLOAT,
            TokenKind.KW_IF,
            TokenKind.KW_ELSE,
            TokenKind.KW_FOR,
            TokenKind.KW_RETURN,
        ]

    def test_dsl_qualifiers(self):
        assert kinds("__codelet __coop __tag __shared __tunable") == [
            TokenKind.KW_CODELET,
            TokenKind.KW_COOP,
            TokenKind.KW_TAG,
            TokenKind.KW_SHARED,
            TokenKind.KW_TUNABLE,
        ]

    def test_atomic_qualifiers(self):
        # one token kind; the text names the op
        text = "_atomicAdd _atomicSub _atomicMax _atomicMin"
        assert kinds(text) == [TokenKind.KW_ATOMIC] * 4
        assert texts(text) == text.split()

    def test_primitive_keywords(self):
        assert kinds("Array Sequence Map Vector") == [
            TokenKind.KW_ARRAY,
            TokenKind.KW_SEQUENCE,
            TokenKind.KW_MAP,
            TokenKind.KW_VECTOR,
        ]

    def test_similar_identifier_is_not_keyword(self):
        assert kinds("interval Arrays vectorize")[0] is TokenKind.IDENT
        assert all(k is TokenKind.IDENT for k in kinds("interval Arrays"))


class TestNumbers:
    def test_decimal_int(self):
        tokens = tokenize("42")
        assert tokens[0].kind is TokenKind.INT_LITERAL
        assert tokens[0].text == "42"

    def test_unsigned_suffix(self):
        assert tokenize("42u")[0].text == "42u"
        assert tokenize("42U")[0].kind is TokenKind.INT_LITERAL

    def test_hex_literal(self):
        assert tokenize("0xFF")[0].kind is TokenKind.INT_LITERAL
        assert tokenize("0x1aB")[0].text == "0x1aB"

    def test_hex_without_digits_fails(self):
        with pytest.raises(LexError):
            tokenize("0x")

    def test_float_literals(self):
        for text in ("1.5", "0.25f", "3.402823e38f", "1e10", "2.5E-3", "7f"):
            token = tokenize(text)[0]
            assert token.kind is TokenKind.FLOAT_LITERAL, text

    def test_int_then_member_access_is_not_float(self):
        # `2.x` should not lex as a float
        assert kinds("x.Size") == [TokenKind.IDENT, TokenKind.DOT, TokenKind.IDENT]

    def test_invalid_suffix_rejected(self):
        with pytest.raises(LexError):
            tokenize("12abc")


class TestOperators:
    def test_maximal_munch(self):
        assert kinds("<<= >>= << >> <= >= == != += -= && || ++ --") == [
            TokenKind.SHL_ASSIGN,
            TokenKind.SHR_ASSIGN,
            TokenKind.SHL,
            TokenKind.SHR,
            TokenKind.LE,
            TokenKind.GE,
            TokenKind.EQ,
            TokenKind.NE,
            TokenKind.PLUS_ASSIGN,
            TokenKind.MINUS_ASSIGN,
            TokenKind.AND_AND,
            TokenKind.OR_OR,
            TokenKind.PLUS_PLUS,
            TokenKind.MINUS_MINUS,
        ]

    def test_punctuation(self):
        assert kinds("( ) { } [ ] , ; . ? :") == [
            TokenKind.LPAREN,
            TokenKind.RPAREN,
            TokenKind.LBRACE,
            TokenKind.RBRACE,
            TokenKind.LBRACKET,
            TokenKind.RBRACKET,
            TokenKind.COMMA,
            TokenKind.SEMICOLON,
            TokenKind.DOT,
            TokenKind.QUESTION,
            TokenKind.COLON,
        ]

    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")


class TestCommentsAndTrivia:
    def test_line_comment(self):
        assert texts("a // comment here\n b") == ["a", "b"]

    def test_block_comment(self):
        assert texts("a /* multi\nline */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")

    def test_division_is_not_comment(self):
        assert kinds("a / b") == [TokenKind.IDENT, TokenKind.SLASH, TokenKind.IDENT]


class TestSpans:
    def test_token_spans_point_into_source(self):
        tokens = tokenize("foo + bar")
        assert tokens[0].span.text == "foo"
        assert tokens[1].span.text == "+"
        assert tokens[2].span.text == "bar"

    def test_span_line_col(self):
        tokens = tokenize("a\n  b")
        line, col = tokens[1].span.source.line_col(tokens[1].span.start)
        assert (line, col) == (2, 3)
