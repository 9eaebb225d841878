"""Polynomial expression parsing and the canonical jet text form.

Grammar (whitespace insensitive)::

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := literal | variable | '(' expr ')' | factor '^' nat

Coefficient literals follow the field: ``p/q`` over the rationals, plain
integers over GF(p), and polynomials in ``t`` over GF(2^k), where the bare
name ``t`` denotes the field generator.  A jet may carry its precision as a
trailing ``+ O(deg N)``; serialization always emits it, parsing accepts it.

Two readers share one evaluator.  A flat sum, whose parentheses hold none
and take no power (all that ``serialize_jet`` writes), is read term by term
from one regex pass, and each distinct factor is evaluated once, into a
cache that lives for that parse.  Every other text, and every text with an
error, goes to the token loop, the one definition of nesting and of errors.
It walks the tokens once, without recursion: nested parentheses are an
explicit stack, and terms accumulate as packed monomials into one coefficient
dict per open sum, truncated at the precision.  Each parse builds exactly one
``Jet``, at the end, so length and nesting depth are limited by memory only.
"""

from __future__ import annotations

import math
import re
import string

from .field import BinaryField, Field, FieldError, RationalField, gf2_poly_mod
from .jet import Jet, PrecisionError, _packed_product, _Packing, _product_into, _route, grlex_key


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# -- tokenizer ---------------------------------------------------------------

# One token per match: a number, a name, an operator, or (the last
# alternative) a character that starts no token.  Positions are needed only
# for error messages, so they are found again then, by the same pattern.
_TOKEN_RE = re.compile(r"\s*(\d+(?:/\d+)?|[A-Za-z_][A-Za-z0-9_]*|[-+*^()]|\S)")
_OPERATORS = frozenset("+-*^()")
_NAME_START = frozenset(string.ascii_letters + "_")
_END = ""


def _tokenize(text: str):
    """Token strings in order, then ``_END``."""
    tokens = _TOKEN_RE.findall(text)
    tokens.append(_END)
    return tokens


def _is_operand(tok: str) -> bool:
    """A number or a name (multi-character tokens are always one of these)."""
    return tok != _END and tok not in _OPERATORS and (
        len(tok) > 1 or tok in _NAME_START or tok.isdecimal())


def _position(text: str, tokens, i: int) -> int:
    if tokens[i] == _END:
        return len(text)
    return list(_TOKEN_RE.finditer(text))[i].start(1)


def _syntax_error(text: str, tokens, i: int, message: str) -> ParseError:
    """The error for token i, unless some token is a character that starts none.

    Such a character anywhere in the text is reported first, as it would be
    by tokenizing the whole text before parsing.
    """
    for j, tok in enumerate(tokens):
        if tok != _END and tok not in _OPERATORS and not _is_operand(tok):
            return ParseError(f"unexpected character {tok!r}", _position(text, tokens, j))
    return ParseError(message, _position(text, tokens, i))


# -- evaluation ----------------------------------------------------------------

# A flat sum, read as pieces: an operator, then a literal or a name with
# chained powers, or a group in parentheses with no parentheses inside and no
# power after it.  ASCII digits only, as the token loop reports other digits.
_ATOM = r"(?:[0-9]+(?:/[0-9]+)?|[A-Za-z_][A-Za-z0-9_]*)(?:\s*\^\s*[0-9]+)*"
_PIECE_RE = re.compile(rf"[-+*]\s*(?:{_ATOM}|\([^()]*\))\s*")
_SIGNED_RE = re.compile(rf"\(\s*([+-]?)\s*({_ATOM})\s*\)")
_PRECISION_SUFFIX = re.compile(r"\+\s*O\s*\(\s*deg\s+(\d+)\s*\)\s*$")


def parse_jet(text: str, field: Field, varnames, precision: int) -> Jet:
    """Parse an expression to a jet over ``field`` at the given precision.

    A trailing ``+ O(deg N)`` overrides the precision argument.  Every syntax
    error is reported before any semantic one (an unknown variable, a literal
    outside the field, a precision too small for a variable), and semantic
    errors are reported in source order.
    """
    varnames = list(varnames)
    m = _PRECISION_SUFFIX.search(text)
    if m:
        precision = int(m.group(1))
        text = text[: m.start()]
    if text.strip() == "":
        raise ParseError("empty expression", 0)
    index = {name: i for i, name in enumerate(varnames)}
    evaluator = _Evaluator(field, index, len(varnames), precision)
    acc = evaluator.sum(text)
    return evaluator.run(text) if acc is None else evaluator.finish(acc, None)


class _Evaluator:
    """One parse: terms accumulate as packed monomials in one dict.

    A monomial is one int (``jet._Packing``), so a monomial product is one
    addition and a key is at or above ``limit`` exactly when its degree
    exceeds the precision.  A factor's value is a list of (key, coefficient)
    pairs sorted by key, with no zero coefficient.  A term is
    ``c * x^key * prod(poly)``: literals, variables, powers of them and
    parenthesised sums with one term cost one key addition and one
    coefficient product; only a parenthesised sum with several terms goes
    through a truncated product.  The scalar c is a field element; sums and
    products of terms run on the field's native values (``jet._route``),
    which ``route.terms`` makes a multiplicand when a sum closes and
    ``route.decode`` field elements at the end.  Nesting is an explicit
    stack, so no Python frame is spent per term, factor or parenthesis.
    """

    def __init__(self, field, index, nvars, prec):
        self.field = field
        self.index = index
        self.nvars = nvars
        self.prec = prec
        self.packing = _Packing(prec, nvars)
        self.shift, self.limit = self.packing.shift, self.packing.limit
        self.route = _route(field)
        self.one = field.one    # a variable's coefficient, skipped in products
        self.leaves = {}        # token -> value of the literals and variables seen

    def leaf(self, tok):
        """The value of a literal or variable token; ``FieldError`` for an
        error at the token's position, else ``PrecisionError``."""
        field = self.field
        binary = isinstance(field, BinaryField)
        if tok[0] not in _NAME_START:
            if ("/" in tok and not isinstance(field, RationalField)) or (
                    binary and tok not in ("0", "1")):
                raise FieldError(f"literal {tok!r} is not in {field}")
            value = field.parse_scalar(tok)
        elif binary and tok == "t":
            value = gf2_poly_mod(0b10, field.modulus)
        elif tok not in self.index:
            raise FieldError(f"unknown variable {tok!r}")
        elif self.prec < 1:
            raise PrecisionError("a coordinate jet needs precision >= 1")
        else:
            j = self.index[tok]
            return [(self.packing.pack([int(i == j) for i in range(self.nvars)]), self.one)]
        if self.prec < 0:
            raise PrecisionError("precision must be >= 0")
        return [] if value == field.zero else [(0, value)]

    def power(self, terms, e):
        """terms^e, truncated at the precision (e >= 1)."""
        if e * (terms[0][0] >> self.shift) > self.prec:
            return []
        limit, packing, route = self.limit, self.packing, self.route
        acc = None
        while True:
            if e & 1:
                acc = terms if acc is None else _packed_product(acc, terms, limit, packing, route)
            e >>= 1
            if not e:
                return acc
            terms = _packed_product(terms, terms, limit, packing, route)

    def sum(self, text):
        """The packed terms of a flat sum, or None for the token loop to read it.

        The pieces, an operator and a factor each, must cover the text.  Each
        distinct piece's (key, coefficient) pair, signed, is kept in ``leaves``
        beside the tokens' values: a piece starts with an operator, a token never.
        """
        if "t" in self.index and isinstance(self.field, BinaryField):
            return None
        text = text.lstrip()
        text = text if text[:1] in ("+", "-") else "+" + text
        pieces = _PIECE_RE.findall(text)
        if "".join(pieces) != text:
            return None
        leaves, limit, one = self.leaves, self.limit, self.one
        add, mul = self.route.add, self.field.mul
        acc, key, c = {}, limit, one        # c * x^key: the term read so far, none yet
        for piece in pieces + ["+0"]:       # a zero term closes the last one
            pair = leaves.get(piece) or self.piece(piece)
            if pair is None:
                return None
            if piece[0] == "*":
                k, v = pair
                key += k
                if v is not one:
                    c = v if c is one else mul(c, v)
                continue
            if key < limit:
                acc[key] = add(acc[key], c) if key in acc else c
            key, c = pair
        return acc

    def piece(self, piece):
        """The pair of an operator and a factor, kept in ``leaves``, or None."""
        pair = self.factor(piece[1:].strip())
        if pair is not None:
            if piece[0] == "-":
                pair = pair[0], self.field.neg(pair[1])
            self.leaves[piece] = pair
        return pair

    def factor(self, text):
        """(key, coefficient), the key at or above the limit for a factor that
        is zero or above the precision; None leaves a semantic error, a group
        with several terms and a literal's power >= 256 to the token loop."""
        if text[0] == "(":
            signed = _SIGNED_RE.fullmatch(text)    # (c) or (-c), cheaper than a sum
            if signed:
                return self.piece((signed[1] or "+") + signed[2])
            acc = self.sum(text[1:-1])
            if acc is None or len(acc) > 1:
                return None
            terms = self.route.terms(acc)
            return terms[0] if terms else (self.limit, self.one)
        base, *exps = text.split("^")
        base = base.rstrip()
        try:    # a semantic error, or an exponent too long to convert
            e = math.prod(map(int, exps))
            atom = self.leaves.get(base)
            if atom is None:
                atom = self.leaves[base] = self.leaf(base)
        except ValueError:
            return None
        if not e:
            return 0, self.one
        if not atom:
            return self.limit, self.one
        k, v = atom[0]
        if k:
            return (k * e if e * (k >> self.shift) <= self.prec else self.limit), v
        return None if e >> 8 else (0, _scalar_power(self.field, v, e))

    def run(self, text):
        tokens = _tokenize(text)
        field, route = self.field, self.route
        one, add, mul = self.one, route.add, route.mul
        shift, limit, prec, leaves = self.shift, self.limit, self.prec, self.leaves
        error = None        # the first semantic error, raised once the syntax is checked
        stack = []          # enclosing (acc, sign, c, key, poly) at each open '('
        acc = {}            # the finished terms of the innermost open sum
        i = 0
        sign = tokens[0]
        if sign == "+" or sign == "-":
            i = 1
        c, key, poly = one, 0, None     # the current term; c is None once it is zero
        while True:
            # a factor: '(' opens a sum, else a literal or variable
            tok = tokens[i]
            i += 1
            if tok == "(":
                stack.append((acc, sign, c, key, poly))
                acc = {}
                sign = tokens[i]
                if sign == "+" or sign == "-":
                    i += 1
                c, key, poly = (one if error is None else None), 0, None
                continue
            atom = leaves.get(tok)
            if atom is None:
                if not _is_operand(tok):
                    raise _syntax_error(text, tokens, i - 1,
                                        f"expected a literal, variable or '(', found {tok!r}")
                if error is None:
                    try:
                        atom = leaves[tok] = self.leaf(tok)
                    except FieldError as exc:
                        error, c = ParseError(str(exc), _position(text, tokens, i - 1)), None
                    except PrecisionError as exc:
                        error, c = exc, None
            while True:
                # the factor's powers: x^a^b is (x^a)^b = x^(a*b)
                e = 1
                while tokens[i] == "^":
                    exp = tokens[i + 1]
                    if not exp.isdecimal():
                        fraction = _is_operand(exp) and "/" in exp
                        raise _syntax_error(text, tokens, i + 1,
                                            "exponent must be a natural number" if fraction
                                            else f"expected 'number', found {exp!r}")
                    e *= int(exp)
                    i += 2
                # multiply the term by atom^e
                if c is not None and e:
                    if len(atom) > 1:
                        atom = self.power(atom, e)
                        e = 1
                    if len(atom) > 1:
                        poly = atom if poly is None else _packed_product(
                            poly, atom, limit, self.packing, route)
                    elif not atom:
                        c = None
                    else:
                        k, v = atom[0]
                        if e != 1:
                            if e * (k >> shift) > prec:
                                k = limit
                            else:
                                k *= e
                                if v is not one:
                                    v = _scalar_power(field, v, e)
                        key += k
                        if key >= limit:
                            c = None
                        elif v is not one:
                            c = v if c is one else field.mul(c, v)
                op = tokens[i]
                i += 1
                if op == "*":
                    break
                # the term is complete: add it to the sum
                if c is not None:
                    if sign == "-":
                        c = field.neg(c)
                    if poly is None:
                        old = acc.get(key)
                        acc[key] = c if old is None else add(old, c)
                    else:
                        _product_into(acc, [(key, c)], poly, limit, add, mul)
                if op == "+" or op == "-":
                    sign = op
                    c, key, poly = (one if error is None else None), 0, None
                    break
                if op == ")" and stack:
                    atom = route.terms(acc)
                    acc, sign, c, key, poly = stack.pop()
                    if error is not None:
                        c = None
                    continue
                if op == _END and not stack:
                    return self.finish(acc, error)
                expected = "')'" if stack else "'end'"
                raise _syntax_error(text, tokens, i - 1, f"expected {expected}, found {op!r}")

    def finish(self, acc, error):
        if isinstance(self.field, BinaryField) and "t" in self.index:
            raise FieldError("variable name 't' is reserved over binary fields")
        if error is not None:
            raise error
        # every key is below the limit (degree <= prec), and prec >= 0: a
        # leaf at a negative precision has raised
        return Jet._valid(self.field, self.nvars, self.prec,
                          self.packing.unpack(self.route.decode(acc)))


def _scalar_power(field, v, e):
    """v^e in the field by repeated squaring (e >= 1)."""
    result = None
    while True:
        if e & 1:
            result = v if result is None else field.mul(result, v)
        e >>= 1
        if not e:
            return result
        v = field.mul(v, v)


# -- serialization ---------------------------------------------------------------


def default_varnames(n: int):
    return [f"x{i + 1}" for i in range(n)]


def serialize_jet(f: Jet, varnames=None) -> str:
    """Canonical text form: graded-lex terms, then ``+ O(deg N)``."""
    names = list(varnames) if varnames is not None else default_varnames(f.nvars)
    if len(names) != f.nvars:
        raise ValueError(f"need {f.nvars} variable names, got {len(names)}")
    field = f.field
    rational = isinstance(field, RationalField)
    pieces = []
    for alpha, c in sorted(f.coeffs.items(), key=lambda kv: grlex_key(kv[0])):
        mono = "*".join(
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(names, alpha)
            if e
        )
        negative = rational and c < 0
        mag = -c if negative else c
        lit = field.format_scalar(mag)
        if not mono:
            body = lit
        elif mag == field.one:
            body = mono
        else:
            if "+" in lit:
                lit = f"({lit})"
            body = f"{lit}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    text = " ".join(pieces) if pieces else "0"
    return f"{text} + O(deg {f.prec})"
