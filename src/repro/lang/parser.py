"""Recursive-descent parser for the Tangram-like DSL.

The grammar covers exactly the language used in Figures 1 and 3 of the
paper: codelet definitions with qualifiers, ``Array``/``Sequence``/
``Map``/``Vector`` primitive declarations, C-style statements, and
C-style expressions with the usual precedence (ternary at the bottom,
postfix calls/indexing at the top).

Entry points: :func:`parse_program` (a translation unit of codelets) and
:func:`parse_expression` (used in tests).
"""

from __future__ import annotations

from . import ast
from .errors import ParseError
from .lexer import Lexer
from .source import SourceFile, Span
from .reductions import QUALIFIER_OPS
from .tokens import Token, TokenKind
from .types import (
    ContainerType,
    SCALAR_BY_NAME,
    ScalarType,
    SEQUENCE,
    VECTOR,
)

# Binary operator precedence table: operator token -> (level, text).
# Higher level binds tighter. Ternary is handled separately below level 1.
_BINARY_LEVELS = [
    [(TokenKind.OR_OR, "||")],
    [(TokenKind.AND_AND, "&&")],
    [(TokenKind.PIPE, "|")],
    [(TokenKind.CARET, "^")],
    [(TokenKind.AMP, "&")],
    [(TokenKind.EQ, "=="), (TokenKind.NE, "!=")],
    [
        (TokenKind.LT, "<"),
        (TokenKind.LE, "<="),
        (TokenKind.GT, ">"),
        (TokenKind.GE, ">="),
    ],
    [(TokenKind.SHL, "<<"), (TokenKind.SHR, ">>")],
    [(TokenKind.PLUS, "+"), (TokenKind.MINUS, "-")],
    [(TokenKind.STAR, "*"), (TokenKind.SLASH, "/"), (TokenKind.PERCENT, "%")],
]

_ASSIGN_OPS = {
    TokenKind.ASSIGN: "=",
    TokenKind.PLUS_ASSIGN: "+=",
    TokenKind.MINUS_ASSIGN: "-=",
    TokenKind.STAR_ASSIGN: "*=",
    TokenKind.SLASH_ASSIGN: "/=",
    TokenKind.PERCENT_ASSIGN: "%=",
    TokenKind.SHL_ASSIGN: "<<=",
    TokenKind.SHR_ASSIGN: ">>=",
}

_SCALAR_TYPE_TOKENS = {
    TokenKind.KW_INT: "int",
    TokenKind.KW_UNSIGNED: "unsigned",
    TokenKind.KW_FLOAT: "float",
    TokenKind.KW_DOUBLE: "double",
    TokenKind.KW_BOOL: "bool",
    TokenKind.KW_VOID: "void",
}

_DECL_START_TOKENS = set(_SCALAR_TYPE_TOKENS) | {
    TokenKind.KW_CONST,
    TokenKind.KW_ARRAY,
    TokenKind.KW_SEQUENCE,
    TokenKind.KW_MAP,
    TokenKind.KW_VECTOR,
    TokenKind.KW_SHARED,
    TokenKind.KW_TUNABLE,
}


class Parser:
    def __init__(self, tokens: list, source: SourceFile):
        self.tokens = tokens
        self.source = source
        self.pos = 0

    # -- token plumbing ----------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def at(self, kind: TokenKind) -> bool:
        return self.peek().kind is kind

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def accept(self, kind: TokenKind):
        if self.at(kind):
            return self.advance()
        return None

    def expect(self, kind: TokenKind, context: str = "") -> Token:
        if self.at(kind):
            return self.advance()
        token = self.peek()
        where = f" in {context}" if context else ""
        raise ParseError(
            f"expected {kind.value!r}{where}, found {token.text or token.kind.value!r}",
            token.span,
        )

    # -- types ---------------------------------------------------------

    def parse_scalar_type(self) -> ScalarType:
        token = self.peek()
        name = _SCALAR_TYPE_TOKENS.get(token.kind)
        if name is None:
            raise ParseError(f"expected a scalar type, found {token.text!r}", token.span)
        self.advance()
        if name == "unsigned" and self.at(TokenKind.KW_INT):
            self.advance()  # `unsigned int` == `unsigned`
        return SCALAR_BY_NAME[name]

    def parse_container_type(self, const: bool) -> ContainerType:
        self.expect(TokenKind.KW_ARRAY)
        self.expect(TokenKind.LT, "Array type")
        rank_token = self.expect(TokenKind.INT_LITERAL, "Array rank")
        rank = int(rank_token.text.rstrip("uU"), 0)
        self.expect(TokenKind.COMMA, "Array type")
        element = self.parse_scalar_type()
        self.expect(TokenKind.GT, "Array type")
        return ContainerType(rank=rank, element=element, const=const)

    # -- program / codelets ---------------------------------------------

    def parse_program(self) -> ast.Program:
        codelets = []
        while not self.at(TokenKind.EOF):
            codelets.append(self.parse_codelet())
        span = (
            codelets[0].span.merge(codelets[-1].span)
            if codelets
            else Span(0, 0, self.source)
        )
        return ast.Program(codelets=codelets, span=span)

    def parse_codelet(self) -> ast.Codelet:
        start = self.expect(TokenKind.KW_CODELET, "codelet definition")
        coop = False
        tag = None
        while True:
            if self.accept(TokenKind.KW_COOP):
                coop = True
            elif self.at(TokenKind.KW_TAG):
                self.advance()
                self.expect(TokenKind.LPAREN, "__tag")
                tag = self.expect(TokenKind.IDENT, "__tag").text
                self.expect(TokenKind.RPAREN, "__tag")
            else:
                break
        return_type = self.parse_scalar_type()
        name = self.expect(TokenKind.IDENT, "codelet name").text
        self.expect(TokenKind.LPAREN, "codelet parameter list")
        params = []
        if not self.at(TokenKind.RPAREN):
            params.append(self.parse_param())
            while self.accept(TokenKind.COMMA):
                params.append(self.parse_param())
        self.expect(TokenKind.RPAREN, "codelet parameter list")
        body = self.parse_block()
        return ast.Codelet(
            name=name,
            return_type=return_type,
            params=params,
            body=body,
            coop=coop,
            tag=tag,
            span=start.span.merge(body.span),
        )

    def parse_param(self) -> ast.Param:
        start = self.peek()
        const = bool(self.accept(TokenKind.KW_CONST))
        if self.at(TokenKind.KW_ARRAY):
            declared = self.parse_container_type(const)
        else:
            declared = self.parse_scalar_type()
        name_token = self.expect(TokenKind.IDENT, "parameter name")
        return ast.Param(
            name=name_token.text,
            declared_type=declared,
            span=start.span.merge(name_token.span),
        )

    # -- statements ------------------------------------------------------

    def parse_block(self) -> ast.Block:
        open_brace = self.expect(TokenKind.LBRACE, "block")
        stmts = []
        while not self.at(TokenKind.RBRACE):
            if self.at(TokenKind.EOF):
                raise ParseError("unterminated block", open_brace.span)
            stmts.append(self.parse_statement())
        close_brace = self.advance()
        return ast.Block(stmts=stmts, span=open_brace.span.merge(close_brace.span))

    def parse_statement(self) -> ast.Stmt:
        token = self.peek()
        if token.kind is TokenKind.LBRACE:
            return self.parse_block()
        if token.kind is TokenKind.KW_IF:
            return self.parse_if()
        if token.kind is TokenKind.KW_FOR:
            return self.parse_for()
        if token.kind is TokenKind.KW_WHILE:
            return self.parse_while()
        if token.kind is TokenKind.KW_RETURN:
            return self.parse_return()
        if token.kind in _DECL_START_TOKENS or token.kind is TokenKind.KW_ATOMIC:
            stmt = self.parse_var_decl()
            self.expect(TokenKind.SEMICOLON, "declaration")
            return stmt
        stmt = self.parse_expr_or_assign()
        self.expect(TokenKind.SEMICOLON, "statement")
        return stmt

    def parse_if(self) -> ast.If:
        start = self.expect(TokenKind.KW_IF)
        self.expect(TokenKind.LPAREN, "if condition")
        cond = self.parse_expression()
        self.expect(TokenKind.RPAREN, "if condition")
        then = self._parse_statement_as_block()
        otherwise = None
        if self.accept(TokenKind.KW_ELSE):
            otherwise = self._parse_statement_as_block()
        end = otherwise or then
        return ast.If(
            cond=cond, then=then, otherwise=otherwise, span=start.span.merge(end.span)
        )

    def _parse_statement_as_block(self) -> ast.Block:
        """Wrap a single-statement body in a Block for uniform handling."""
        if self.at(TokenKind.LBRACE):
            return self.parse_block()
        stmt = self.parse_statement()
        return ast.Block(stmts=[stmt], span=stmt.span)

    def parse_for(self) -> ast.For:
        start = self.expect(TokenKind.KW_FOR)
        self.expect(TokenKind.LPAREN, "for header")
        init = None
        if not self.at(TokenKind.SEMICOLON):
            if self.peek().kind in _DECL_START_TOKENS:
                init = self.parse_var_decl()
            else:
                init = self.parse_expr_or_assign()
        self.expect(TokenKind.SEMICOLON, "for header")
        cond = None
        if not self.at(TokenKind.SEMICOLON):
            cond = self.parse_expression()
        self.expect(TokenKind.SEMICOLON, "for header")
        step = None
        if not self.at(TokenKind.RPAREN):
            step = self.parse_expr_or_assign()
        self.expect(TokenKind.RPAREN, "for header")
        body = self._parse_statement_as_block()
        return ast.For(
            init=init, cond=cond, step=step, body=body, span=start.span.merge(body.span)
        )

    def parse_while(self) -> ast.While:
        start = self.expect(TokenKind.KW_WHILE)
        self.expect(TokenKind.LPAREN, "while condition")
        cond = self.parse_expression()
        self.expect(TokenKind.RPAREN, "while condition")
        body = self._parse_statement_as_block()
        return ast.While(cond=cond, body=body, span=start.span.merge(body.span))

    def parse_return(self) -> ast.Return:
        start = self.expect(TokenKind.KW_RETURN)
        value = None
        if not self.at(TokenKind.SEMICOLON):
            value = self.parse_expression()
        semi = self.expect(TokenKind.SEMICOLON, "return statement")
        return ast.Return(value=value, span=start.span.merge(semi.span))

    def parse_var_decl(self) -> ast.VarDecl:
        """Parse one declaration (without the trailing semicolon).

        Handles all of::

            __tunable unsigned p;
            __shared int tmp[in.Size()];
            __shared _atomicAdd int partial;
            Sequence start(i * tile);
            Map map(sum, partition(in, p, start, inc, end));
            Vector vthread();
            int val = 0;
        """
        start = self.peek()
        shared = False
        tunable = False
        atomic = None
        while True:
            token = self.peek()
            if token.kind is TokenKind.KW_SHARED:
                shared = True
                self.advance()
            elif token.kind is TokenKind.KW_TUNABLE:
                tunable = True
                self.advance()
            elif token.kind is TokenKind.KW_ATOMIC:
                if atomic is not None:
                    raise ParseError(
                        "multiple atomic qualifiers on one declaration", token.span
                    )
                atomic = QUALIFIER_OPS[token.text]
                self.advance()
            else:
                break

        token = self.peek()
        if token.kind is TokenKind.KW_VECTOR:
            return self._parse_primitive_decl(start, VECTOR, shared, tunable, atomic)
        if token.kind is TokenKind.KW_SEQUENCE:
            return self._parse_primitive_decl(start, SEQUENCE, shared, tunable, atomic)
        if token.kind is TokenKind.KW_MAP:
            return self._parse_map_decl(start, shared, tunable, atomic)

        const = bool(self.accept(TokenKind.KW_CONST))
        if self.at(TokenKind.KW_ARRAY):
            declared = self.parse_container_type(const)
        else:
            declared = self.parse_scalar_type()
        name_token = self.expect(TokenKind.IDENT, "variable name")

        dims = []
        while self.accept(TokenKind.LBRACKET):
            dims.append(self.parse_expression())
            self.expect(TokenKind.RBRACKET, "array dimension")

        init = None
        if self.accept(TokenKind.ASSIGN):
            init = self.parse_expression()
        end_span = init.span if init is not None else name_token.span
        return ast.VarDecl(
            name=name_token.text,
            declared_type=declared,
            dims=dims,
            init=init,
            shared=shared,
            tunable=tunable,
            atomic=atomic,
            span=start.span.merge(end_span),
        )

    def _parse_primitive_decl(self, start, declared_type, shared, tunable, atomic):
        self.advance()  # Vector / Sequence keyword
        name_token = self.expect(TokenKind.IDENT, "declaration name")
        ctor_args = self._parse_ctor_args()
        return ast.VarDecl(
            name=name_token.text,
            declared_type=declared_type,
            ctor_args=ctor_args,
            shared=shared,
            tunable=tunable,
            atomic=atomic,
            span=start.span.merge(self.peek(-1).span if self.pos else start.span),
        )

    def _parse_map_decl(self, start, shared, tunable, atomic):
        self.advance()  # Map keyword
        name_token = self.expect(TokenKind.IDENT, "Map declaration name")
        ctor_args = self._parse_ctor_args()
        if len(ctor_args) != 2:
            raise ParseError(
                "Map declaration takes exactly (function, partition(...))",
                name_token.span,
            )
        return ast.VarDecl(
            name=name_token.text,
            declared_type=None,  # element type resolved by semantic analysis
            ctor_args=ctor_args,
            shared=shared,
            tunable=tunable,
            atomic=atomic,
            span=start.span.merge(name_token.span),
        )

    def _parse_ctor_args(self) -> list:
        self.expect(TokenKind.LPAREN, "constructor arguments")
        args = []
        if not self.at(TokenKind.RPAREN):
            args.append(self.parse_expression())
            while self.accept(TokenKind.COMMA):
                args.append(self.parse_expression())
        self.expect(TokenKind.RPAREN, "constructor arguments")
        return args

    def parse_expr_or_assign(self) -> ast.Stmt:
        """Expression statement, assignment, or ``++``/``--`` statement."""
        expr = self.parse_expression()
        token = self.peek()
        if token.kind in _ASSIGN_OPS:
            op = _ASSIGN_OPS[token.kind]
            self.advance()
            value = self.parse_expression()
            self._check_lvalue(expr)
            return ast.Assign(
                target=expr, op=op, value=value, span=expr.span.merge(value.span)
            )
        if token.kind in (TokenKind.PLUS_PLUS, TokenKind.MINUS_MINUS):
            self.advance()
            self._check_lvalue(expr)
            op = "+=" if token.kind is TokenKind.PLUS_PLUS else "-="
            one = ast.IntLiteral(value=1, span=token.span)
            return ast.Assign(
                target=expr, op=op, value=one, span=expr.span.merge(token.span)
            )
        return ast.ExprStmt(expr=expr, span=expr.span)

    @staticmethod
    def _check_lvalue(expr: ast.Expr) -> None:
        if not isinstance(expr, (ast.Ident, ast.Index)):
            raise ParseError(
                "assignment target must be a variable or array element", expr.span
            )

    # -- expressions -----------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        return self.parse_ternary()

    def parse_ternary(self) -> ast.Expr:
        cond = self.parse_binary(0)
        if not self.accept(TokenKind.QUESTION):
            return cond
        then = self.parse_expression()
        self.expect(TokenKind.COLON, "ternary expression")
        otherwise = self.parse_ternary()
        return ast.Ternary(
            cond=cond,
            then=then,
            otherwise=otherwise,
            span=cond.span.merge(otherwise.span),
        )

    def parse_binary(self, level: int) -> ast.Expr:
        if level >= len(_BINARY_LEVELS):
            return self.parse_unary()
        lhs = self.parse_binary(level + 1)
        ops = _BINARY_LEVELS[level]
        while True:
            matched = None
            for kind, text in ops:
                if self.at(kind):
                    matched = text
                    break
            if matched is None:
                return lhs
            self.advance()
            rhs = self.parse_binary(level + 1)
            lhs = ast.Binary(
                op=matched, lhs=lhs, rhs=rhs, span=lhs.span.merge(rhs.span)
            )

    def parse_unary(self) -> ast.Expr:
        token = self.peek()
        if token.kind is TokenKind.MINUS:
            self.advance()
            operand = self.parse_unary()
            return ast.Unary(op="-", operand=operand, span=token.span.merge(operand.span))
        if token.kind is TokenKind.PLUS:
            self.advance()
            return self.parse_unary()
        if token.kind is TokenKind.NOT:
            self.advance()
            operand = self.parse_unary()
            return ast.Unary(op="!", operand=operand, span=token.span.merge(operand.span))
        if token.kind is TokenKind.TILDE:
            self.advance()
            operand = self.parse_unary()
            return ast.Unary(op="~", operand=operand, span=token.span.merge(operand.span))
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            if self.at(TokenKind.DOT):
                self.advance()
                method = self.expect(TokenKind.IDENT, "member access").text
                self.expect(TokenKind.LPAREN, "method call")
                args = []
                if not self.at(TokenKind.RPAREN):
                    args.append(self.parse_expression())
                    while self.accept(TokenKind.COMMA):
                        args.append(self.parse_expression())
                close = self.expect(TokenKind.RPAREN, "method call")
                expr = ast.MethodCall(
                    obj=expr, method=method, args=args, span=expr.span.merge(close.span)
                )
            elif self.at(TokenKind.LBRACKET):
                self.advance()
                index = self.parse_expression()
                close = self.expect(TokenKind.RBRACKET, "index expression")
                expr = ast.Index(
                    base=expr, index=index, span=expr.span.merge(close.span)
                )
            else:
                return expr

    def parse_primary(self) -> ast.Expr:
        token = self.peek()
        if token.kind is TokenKind.INT_LITERAL:
            self.advance()
            text = token.text
            unsigned = text[-1] in "uU"
            return ast.IntLiteral(
                value=int(text.rstrip("uU"), 0), unsigned=unsigned, span=token.span
            )
        if token.kind is TokenKind.FLOAT_LITERAL:
            self.advance()
            text = token.text
            single = text[-1] in "fF"
            return ast.FloatLiteral(
                value=float(text.rstrip("fF")), single=single, span=token.span
            )
        if token.kind is TokenKind.KW_TRUE:
            self.advance()
            return ast.BoolLiteral(value=True, span=token.span)
        if token.kind is TokenKind.KW_FALSE:
            self.advance()
            return ast.BoolLiteral(value=False, span=token.span)
        if token.kind is TokenKind.IDENT:
            self.advance()
            if self.at(TokenKind.LPAREN):
                self.advance()
                args = []
                if not self.at(TokenKind.RPAREN):
                    args.append(self.parse_expression())
                    while self.accept(TokenKind.COMMA):
                        args.append(self.parse_expression())
                close = self.expect(TokenKind.RPAREN, "call expression")
                return ast.Call(
                    name=token.text, args=args, span=token.span.merge(close.span)
                )
            return ast.Ident(name=token.text, span=token.span)
        if token.kind is TokenKind.LPAREN:
            self.advance()
            inner = self.parse_expression()
            self.expect(TokenKind.RPAREN, "parenthesized expression")
            return inner
        raise ParseError(
            f"expected an expression, found {token.text or token.kind.value!r}",
            token.span,
        )


def parse_program(text: str, name: str = "<dsl>") -> ast.Program:
    source = SourceFile(text, name)
    tokens = Lexer(source).tokenize()
    return Parser(tokens, source).parse_program()


def parse_expression(text: str, name: str = "<expr>") -> ast.Expr:
    source = SourceFile(text, name)
    tokens = Lexer(source).tokenize()
    parser = Parser(tokens, source)
    expr = parser.parse_expression()
    parser.expect(TokenKind.EOF, "expression")
    return expr
