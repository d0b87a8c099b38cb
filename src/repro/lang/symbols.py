"""Lexically scoped symbol tables used by semantic analysis."""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import Node
from .errors import SemanticError, UnknownSymbolError
from .source import Span
from .types import Type


@dataclass
class Symbol:
    """One declared name.

    ``kind`` is one of ``"param"``, ``"local"``, ``"tunable"``,
    ``"shared"``, ``"vector"``, ``"sequence"``, ``"map"``.
    """

    name: str
    ty: Type
    kind: str
    decl: Node = None
    atomic: str = None  # shared-memory atomic qualifier, if any
    dims: list = field(default_factory=list)

    @property
    def is_array(self) -> bool:
        return bool(self.dims)


class Scope:
    """One lexical scope; chains to its parent for lookups."""

    def __init__(self, parent: "Scope" = None):
        self.parent = parent
        self._symbols = {}

    def declare(self, symbol: Symbol, span: Span = None) -> Symbol:
        if symbol.name in self._symbols:
            raise SemanticError(
                f"redeclaration of {symbol.name!r} in the same scope", span
            )
        self._symbols[symbol.name] = symbol
        return symbol

    def lookup(self, name: str):
        scope = self
        while scope is not None:
            symbol = scope._symbols.get(name)
            if symbol is not None:
                return symbol
            scope = scope.parent
        return None

    def resolve(self, name: str, span: Span = None) -> Symbol:
        symbol = self.lookup(name)
        if symbol is None:
            raise UnknownSymbolError(f"use of undeclared identifier {name!r}", span)
        return symbol
