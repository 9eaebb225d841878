"""Recursive-descent parser with ``Jet`` arithmetic: a test oracle for ``parse_jet``.

It builds an AST and evaluates it node by node through ``Jet.__add__``,
``Jet.__mul__`` and ``gen.jet_power``, so every intermediate is a validated jet.
``jetsplit.parse_jet`` accumulates terms into one coefficient dict instead;
the two must agree on every jet and on every error (type, message, position).
Both recursion and the per-term jets make this version slow and limit it to
expressions of a few hundred terms or nesting levels.
"""

import re
from dataclasses import dataclass

from gen import constant_jet, jet_power
from jetsplit import BinaryField, FieldError, Jet, ParseError, RationalField
from jetsplit.field import gf2_poly_mod

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()]))"
)
_PRECISION_SUFFIX = re.compile(r"\+\s*O\s*\(\s*deg\s+(\d+)\s*\)\s*$")


@dataclass
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            stripped = text[i:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        if m.group("number"):
            tokens.append(_Token("number", m.group("number"), m.start("number")))
        elif m.group("name"):
            tokens.append(_Token("name", m.group("name"), m.start("name")))
        else:
            tokens.append(_Token(m.group("op"), m.group("op"), m.start("op")))
        i = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


@dataclass
class Num:
    text: str
    pos: int


@dataclass
class Var:
    name: str
    pos: int


@dataclass
class Neg:
    arg: object


@dataclass
class Add:
    left: object
    right: object


@dataclass
class Mul:
    left: object
    right: object


@dataclass
class Pow:
    base: object
    exponent: int


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.pos)
        self.i += 1
        return tok

    def parse_expr(self):
        sign = None
        if self.peek().kind in ("+", "-"):
            sign = self.take().kind
        node = self.parse_term()
        if sign == "-":
            node = Neg(node)
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.parse_term()
            node = Add(node, Neg(rhs) if op == "-" else rhs)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek().kind == "*":
            self.take()
            node = Mul(node, self.parse_factor())
        return node

    def parse_factor(self):
        tok = self.peek()
        if tok.kind == "number":
            node = Num(self.take().text, tok.pos)
        elif tok.kind == "name":
            node = Var(self.take().text, tok.pos)
        elif tok.kind == "(":
            self.take()
            node = self.parse_expr()
            self.take(")")
        else:
            raise ParseError(f"expected a literal, variable or '(', found {tok.text!r}", tok.pos)
        while self.peek().kind == "^":
            self.take()
            exp = self.take("number")
            if "/" in exp.text:
                raise ParseError("exponent must be a natural number", exp.pos)
            node = Pow(node, int(exp.text))
        return node


def parse_jet_reference(text: str, field, varnames, precision: int) -> Jet:
    """``parse_jet`` by recursive descent and jet arithmetic."""
    varnames = list(varnames)
    m = _PRECISION_SUFFIX.search(text)
    if m:
        precision = int(m.group(1))
        text = text[: m.start()]
    if text.strip() == "":
        raise ParseError("empty expression", 0)
    tokens = _tokenize(text)
    parser = _Parser(tokens)
    ast = parser.parse_expr()
    parser.take("end")
    index = {name: i for i, name in enumerate(varnames)}
    if isinstance(field, BinaryField) and "t" in index:
        raise FieldError("variable name 't' is reserved over binary fields")
    return _eval(ast, field, index, len(varnames), precision)


def _eval(node, field, index, nvars, prec) -> Jet:
    if isinstance(node, Num):
        if "/" in node.text and not isinstance(field, RationalField):
            raise ParseError(f"literal {node.text!r} is not in {field}", node.pos)
        if isinstance(field, BinaryField) and node.text not in ("0", "1"):
            raise ParseError(f"literal {node.text!r} is not in {field}", node.pos)
        try:
            value = field.parse_scalar(node.text)
        except FieldError as exc:
            raise ParseError(str(exc), node.pos) from None
        return constant_jet(field, nvars, prec, value)
    if isinstance(node, Var):
        if isinstance(field, BinaryField) and node.name == "t":
            return constant_jet(field, nvars, prec, gf2_poly_mod(0b10, field.modulus))
        if node.name not in index:
            raise ParseError(f"unknown variable {node.name!r}", node.pos)
        return Jet.variable(field, nvars, index[node.name], prec)
    if isinstance(node, Neg):
        return -_eval(node.arg, field, index, nvars, prec)
    if isinstance(node, Add):
        return _eval(node.left, field, index, nvars, prec) + _eval(node.right, field, index, nvars, prec)
    if isinstance(node, Mul):
        return _eval(node.left, field, index, nvars, prec) * _eval(node.right, field, index, nvars, prec)
    if isinstance(node, Pow):
        return jet_power(_eval(node.base, field, index, nvars, prec), node.exponent)
    raise TypeError(f"unexpected AST node {node!r}")
