"""Text-format model definitions and the built-in cascade benchmark.

A model file is UTF-8 text with up to four sections::

    spaces:                     # subsystem name and dimension, order matters
      xi 3
      a 5
    define:                     # named operator (or scalar) expressions
      s12 = trans(xi,1,2)
    hamiltonian:                # a single expression
      s12 + s12'
    dissipators:                # rate , jump-operator expression
      3 , a(a)

``#`` starts a comment; one declaration per line.  Expressions combine
complex literals (``2``, ``0.5e-3``, ``2i``, ``(3,-2)``), previously defined
names, and the primitives ``ident(space)``, ``a(space)``, ``proj(space,j)``
and ``trans(space,j,k)`` with ``+ - *`` and the postfix adjoint ``'``.
Adjoint binds tightest, then products, then sums.  Primitives evaluate to
operators embedded in the full composite space; levels j, k are 1-based while
``a(space)`` acts on 0-based photon numbers.  Where an operator is required
(Hamiltonian, jumps, observables) a scalar value c is read as c times the
identity.  A literal that overflows to infinity is a lexical error.

The built-in cascade benchmark is written in this format: its source is the
model text :func:`cascade_text`, and :func:`cascade_document` parses it.
:func:`cascade_model` builds the same operators by hand, as the check.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Union

import numpy as np

from .hilbert import (
    Operator,
    SpaceLayout,
    annihilation,
    embed,
    identity_operator,
    transition,
)
from .superspace import LindbladModel

__all__ = [
    "ModelError",
    "ModelLexicalError",
    "ModelSyntaxError",
    "ModelSemanticError",
    "Literal",
    "Name",
    "PrimitiveCall",
    "BinaryOp",
    "Adjoint",
    "ModelDocument",
    "parse_model",
    "build_model",
    "document_environment",
    "evaluate_observable",
    "render_model",
    "render_expression",
    "CascadeParams",
    "cascade_model",
    "cascade_text",
    "cascade_document",
]


class ModelError(ValueError):
    """A problem in a model document, located at (line, column)."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ModelLexicalError(ModelError):
    """Bad character or malformed number."""


class ModelSyntaxError(ModelError):
    """Token sequence does not fit the grammar."""

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        if expected:
            message = f"{message} (expected {' or '.join(expected)})"
        super().__init__(message, line, column)
        self.expected = expected


class ModelSemanticError(ModelError):
    """Well-formed but meaningless: unknown names, bad indices, bad rates."""


# ---------------------------------------------------------------------------
# expression AST

_NOPOS = (0, 0)


@dataclass(frozen=True)
class Literal:
    value: complex
    pos: tuple[int, int] = field(default=_NOPOS, compare=False, repr=False)


@dataclass(frozen=True)
class Name:
    ident: str
    pos: tuple[int, int] = field(default=_NOPOS, compare=False, repr=False)


@dataclass(frozen=True)
class PrimitiveCall:
    func: str
    args: tuple[Union[str, int], ...]
    pos: tuple[int, int] = field(default=_NOPOS, compare=False, repr=False)


@dataclass(frozen=True)
class BinaryOp:
    op: str  # '+', '-', or '*'
    left: "Expr"
    right: "Expr"
    pos: tuple[int, int] = field(default=_NOPOS, compare=False, repr=False)


@dataclass(frozen=True)
class Adjoint:
    operand: "Expr"
    pos: tuple[int, int] = field(default=_NOPOS, compare=False, repr=False)


Expr = Union[Literal, Name, PrimitiveCall, BinaryOp, Adjoint]


@dataclass(frozen=True)
class ModelDocument:
    """Parsed model: spaces, ordered bindings, Hamiltonian, dissipators."""

    spaces: tuple[tuple[str, int], ...]
    bindings: tuple[tuple[str, Expr], ...]
    hamiltonian: Expr
    dissipators: tuple[tuple[float, Expr], ...]


# primitive name -> argument shape ('s' space name, 'i' 1-based level index)
_PRIMITIVES = {"ident": "s", "a": "s", "proj": "si", "trans": "sii"}


# ---------------------------------------------------------------------------
# lexer

class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int
    value: complex = 0j


# One token after a blank run: a number, a name, a symbol (its own kind) or a
# line end.  A number is a decimal mantissa, an optional exponent and an
# optional imaginary ``i``; a name character or a dot right after it makes it
# malformed.  A line ends at its comment, so its EOL token sits where the
# comment starts.  ``\d`` and ``\w`` are the Unicode digits and word characters
# of ``str.isdecimal`` and ``str.isalnum``.
_TOKEN = re.compile(
    r"""[ \t\r]*(?:
      (?P<NUMBER>(?P<literal>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+|(?P<bad_e>[eE]))?i?)[\w.]?)
    | (?P<IDENT>[^\W\d]\w*)
    | (?P<SYMBOL>[-+*'(),=:])
    | (?P<EOL>(?:\#[^\n]*)?(?:\n|\Z))
    | (?P<BAD>.)
    )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[list[_Token]]:
    """Split the source into lines of tokens (blank lines dropped)."""
    lines: list[list[_Token]] = []
    current: list[_Token] = []
    line_no, line_start = 1, 0
    for match in _TOKEN.finditer(text):  # every position starts a match, so they abut
        kind = match.lastgroup
        start, end = match.span(kind)
        token, col = text[start:end], start - line_start + 1
        if kind == "EOL":
            if current:
                lines.append(current + [_Token("EOL", "", line_no, col)])
                current = []
            if not token.endswith("\n"):
                return lines
            line_no, line_start = line_no + 1, match.end()
        elif kind == "NUMBER":
            literal = match["literal"]
            if match["bad_e"]:
                raise ModelLexicalError("malformed exponent in number "
                                        f"{text[start:match.end('bad_e')]!r}", line_no, col)
            if token != literal:
                raise ModelLexicalError(f"malformed number {token!r}", line_no, col)
            imaginary = literal.endswith("i")
            magnitude = float(literal[:-1] if imaginary else literal)
            if not math.isfinite(magnitude):
                raise ModelLexicalError(f"number out of range {literal!r}", line_no, col)
            value = magnitude * 1j if imaginary else complex(magnitude)
            current.append(_Token("NUMBER", literal, line_no, col, value))
        elif kind == "IDENT" and (token[0].isalpha() or token[0] == "_"):
            current.append(_Token("IDENT", token, line_no, col))
        elif kind == "SYMBOL":
            current.append(_Token(token, token, line_no, col))
        else:  # a name may not start with a non-letter word character such as '²'
            raise ModelLexicalError(f"unexpected character {token[0]!r}", line_no, col)


# ---------------------------------------------------------------------------
# expression parser (over the tokens of a single line)

class _TokenStream:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOL":
            self.pos += 1
        return tok

    def expect(self, kind: str, expected: tuple[str, ...]) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            found = tok.text or "end of line"
            raise ModelSyntaxError(
                f"unexpected {found!r}", tok.line, tok.column, expected
            )
        return self.advance()


def _parse_expr(ts: _TokenStream) -> Expr:
    node = _parse_term(ts)
    while ts.peek().kind in ("+", "-"):
        op_tok = ts.advance()
        right = _parse_term(ts)
        node = BinaryOp(op_tok.kind, node, right, (op_tok.line, op_tok.column))
    return node


def _parse_term(ts: _TokenStream) -> Expr:
    node = _parse_factor(ts)
    while ts.peek().kind == "*":
        op_tok = ts.advance()
        right = _parse_factor(ts)
        node = BinaryOp("*", node, right, (op_tok.line, op_tok.column))
    return node


def _parse_factor(ts: _TokenStream) -> Expr:
    node = _parse_atom(ts)
    while ts.peek().kind == "'":
        tok = ts.advance()  # a double adjoint normalizes away
        node = node.operand if isinstance(node, Adjoint) else Adjoint(node, (tok.line, tok.column))
    return node


def _try_pair_component(ts: _TokenStream) -> float | None:
    sign = 1.0
    if ts.peek().kind in ("+", "-"):
        if ts.peek().kind == "-":
            sign = -1.0
        ts.advance()
    tok = ts.peek()
    if tok.kind != "NUMBER" or tok.value.imag != 0:
        return None
    ts.advance()
    return sign * tok.value.real


def _parse_atom(ts: _TokenStream) -> Expr:
    tok = ts.peek()
    if tok.kind == "NUMBER":
        ts.advance()
        return Literal(tok.value, (tok.line, tok.column))
    if tok.kind == "IDENT":
        ts.advance()
        if ts.peek().kind == "(":
            return _parse_call(ts, tok)
        return Name(tok.text, (tok.line, tok.column))
    if tok.kind == "(":
        lp = ts.advance()
        # "(re, im)" complex literal, components as optionally signed reals
        mark = ts.pos
        real_part = _try_pair_component(ts)
        if real_part is not None and ts.peek().kind == ",":
            ts.advance()
            imag_part = _try_pair_component(ts)
            if imag_part is None:
                bad = ts.peek()
                raise ModelSyntaxError(
                    f"unexpected {bad.text or 'end of line'!r} in complex pair",
                    bad.line, bad.column, ("real number",),
                )
            ts.expect(")", ("')'",))
            return Literal(complex(real_part, imag_part), (lp.line, lp.column))
        ts.pos = mark
        node = _parse_expr(ts)
        closing = ts.peek()
        if closing.kind != ")":
            raise ModelSyntaxError(
                "unbalanced parenthesis", closing.line, closing.column, ("')'",)
            )
        ts.advance()
        return node
    found = tok.text or "end of line"
    raise ModelSyntaxError(
        f"unexpected {found!r}", tok.line, tok.column,
        ("number", "identifier", "'('"),
    )


def _parse_call(ts: _TokenStream, func_tok: _Token) -> PrimitiveCall:
    ts.expect("(", ("'('",))
    args: list[Union[str, int]] = []
    while True:
        tok = ts.peek()
        if tok.kind == "IDENT":
            args.append(tok.text)
            ts.advance()
        elif tok.kind == "NUMBER":
            if tok.value.imag != 0 or not float(tok.value.real).is_integer():
                raise ModelSemanticError(
                    f"primitive index must be an integer, got {tok.text!r}",
                    tok.line, tok.column,
                )
            args.append(int(tok.value.real))
            ts.advance()
        else:
            found = tok.text or "end of line"
            raise ModelSyntaxError(
                f"unexpected {found!r} in argument list", tok.line, tok.column,
                ("space name", "integer"),
            )
        if ts.peek().kind == ",":
            ts.advance()
            continue
        ts.expect(")", ("','", "')'"))
        return PrimitiveCall(func_tok.text, tuple(args), (func_tok.line, func_tok.column))


def _parse_line_expr(tokens: list[_Token], start: int = 0) -> Expr:
    ts = _TokenStream(tokens)
    ts.pos = start
    node = _parse_expr(ts)
    tok = ts.peek()
    if tok.kind != "EOL":
        raise ModelSyntaxError(
            f"unexpected {tok.text!r} after expression", tok.line, tok.column,
            ("end of line",),
        )
    return node


# ---------------------------------------------------------------------------
# document parser and semantic checks

_SECTIONS = ("spaces", "define", "hamiltonian", "dissipators")


def parse_model(text: str) -> ModelDocument:
    """Parse a model document, raising positioned lexical/syntax/semantic errors."""
    lines = _tokenize(text)
    section = None
    seen: set[str] = set()
    spaces: list[tuple[str, int]] = []
    space_names: set[str] = set()
    bindings: list[tuple[str, Expr]] = []
    binding_names: set[str] = set()
    hamiltonian: Expr | None = None
    dissipators: list[tuple[float, Expr]] = []

    for tokens in lines:
        head = tokens[0]
        if head.kind == "IDENT" and tokens[1].kind == ":":
            if head.text not in _SECTIONS:
                raise ModelSyntaxError(
                    f"unknown section {head.text!r}", head.line, head.column,
                    tuple(f"{s}:" for s in _SECTIONS),
                )
            if len(tokens) != 3:  # IDENT COLON EOL
                extra = tokens[2]
                raise ModelSyntaxError(
                    f"unexpected {extra.text!r} after section header",
                    extra.line, extra.column, ("end of line",),
                )
            if head.text in seen:
                raise ModelSyntaxError(
                    f"duplicate section {head.text!r}", head.line, head.column
                )
            seen.add(head.text)
            section = head.text
            continue
        if section is None:
            raise ModelSyntaxError(
                "expected a section header", head.line, head.column,
                tuple(f"{s}:" for s in _SECTIONS),
            )
        ts = _TokenStream(tokens)
        if section == "spaces":
            name_tok = ts.expect("IDENT", ("subsystem name",))
            dim_tok = ts.expect("NUMBER", ("dimension",))
            ts.expect("EOL", ("end of line",))
            if dim_tok.value.imag != 0 or not float(dim_tok.value.real).is_integer() \
                    or int(dim_tok.value.real) < 1:
                raise ModelSemanticError(
                    f"space dimension must be a positive integer, got {dim_tok.text!r}",
                    dim_tok.line, dim_tok.column,
                )
            if name_tok.text in space_names:
                raise ModelSemanticError(
                    f"duplicate space {name_tok.text!r}", name_tok.line, name_tok.column
                )
            spaces.append((name_tok.text, int(dim_tok.value.real)))
            space_names.add(name_tok.text)
        elif section == "define":
            name_tok = ts.expect("IDENT", ("binding name",))
            ts.expect("=", ("'='",))
            expr = _parse_line_expr(tokens, ts.pos)
            if name_tok.text in binding_names:
                raise ModelSemanticError(
                    f"redefinition of {name_tok.text!r}", name_tok.line, name_tok.column
                )
            bindings.append((name_tok.text, expr))
            binding_names.add(name_tok.text)
        elif section == "hamiltonian":
            if hamiltonian is not None:
                raise ModelSyntaxError(
                    "hamiltonian section takes a single expression",
                    head.line, head.column,
                )
            hamiltonian = _parse_line_expr(tokens)
        else:  # dissipators
            rate_tok = ts.expect("NUMBER", ("rate",))
            ts.expect(",", ("','",))
            expr = _parse_line_expr(tokens, ts.pos)
            if rate_tok.value.imag != 0 or rate_tok.value.real <= 0:
                raise ModelSemanticError(
                    f"dissipation rate must be a positive real, got {rate_tok.text!r}",
                    rate_tok.line, rate_tok.column,
                )
            dissipators.append((rate_tok.value.real, expr))

    if not spaces:
        raise ModelSemanticError("model declares no spaces", 1, 1)
    if hamiltonian is None:
        raise ModelSemanticError(
            "missing hamiltonian section (use 'hamiltonian:' with expression '0' "
            "for a purely dissipative model)", 1, 1,
        )

    doc = ModelDocument(
        spaces=tuple(spaces),
        bindings=tuple(bindings),
        hamiltonian=hamiltonian,
        dissipators=tuple(dissipators),
    )
    dims = dict(doc.spaces)
    known: set[str] = set()
    for name, expr in doc.bindings:
        _check_expr(expr, dims, known)
        known.add(name)
    _check_expr(doc.hamiltonian, dims, known)
    for _, expr in doc.dissipators:
        _check_expr(expr, dims, known)
    return doc


def _check_expr(expr: Expr, dims: dict[str, int], known: set[str]):
    if isinstance(expr, Literal):
        return
    if isinstance(expr, Name):
        if expr.ident not in known:
            raise ModelSemanticError(
                f"unknown identifier {expr.ident!r}", *expr.pos
            )
        return
    if isinstance(expr, PrimitiveCall):
        shape = _PRIMITIVES.get(expr.func)
        if shape is None:
            raise ModelSemanticError(f"unknown primitive {expr.func!r}", *expr.pos)
        if len(expr.args) != len(shape):
            raise ModelSemanticError(
                f"primitive {expr.func!r} takes {len(shape)} argument(s), "
                f"got {len(expr.args)}", *expr.pos,
            )
        for arg, want in zip(expr.args, shape):
            if want == "s":
                if not isinstance(arg, str):
                    raise ModelSemanticError(
                        f"first argument of {expr.func!r} must be a space name",
                        *expr.pos,
                    )
                if arg not in dims:
                    raise ModelSemanticError(f"unknown space {arg!r}", *expr.pos)
            else:
                if not isinstance(arg, int):
                    raise ModelSemanticError(
                        f"level index of {expr.func!r} must be an integer", *expr.pos
                    )
                dim = dims[expr.args[0]] if isinstance(expr.args[0], str) else 0
                if not 1 <= arg <= dim:
                    raise ModelSemanticError(
                        f"level index {arg} out of range [1, {dim}] "
                        f"for space {expr.args[0]!r}", *expr.pos,
                    )
        return
    if isinstance(expr, BinaryOp):
        _check_expr(expr.left, dims, known)
        _check_expr(expr.right, dims, known)
        return
    if isinstance(expr, Adjoint):
        _check_expr(expr.operand, dims, known)
        return
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# evaluation

def _evaluate(expr: Expr, layout: SpaceLayout, env: dict):
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Name):
        return env[expr.ident]
    if isinstance(expr, PrimitiveCall):
        space = expr.args[0]
        if expr.func == "ident":
            return identity_operator(layout)
        if expr.func == "a":
            return embed(layout, space, annihilation(layout.dim_of(space)))
        if expr.func == "proj":
            j = expr.args[1]
            return embed(layout, space, transition(layout.dim_of(space), j, j))
        j, k = expr.args[1], expr.args[2]
        return embed(layout, space, transition(layout.dim_of(space), j, k))
    if isinstance(expr, Adjoint):
        value = _evaluate(expr.operand, layout, env)
        return value.dag() if isinstance(value, Operator) else complex(value).conjugate()
    left = _evaluate(expr.left, layout, env)
    right = _evaluate(expr.right, layout, env)
    left_op = isinstance(left, Operator)
    right_op = isinstance(right, Operator)
    if expr.op == "*":
        return left * right
    if left_op != right_op:
        raise ModelSemanticError(
            "cannot add a scalar to an operator; multiply ident(...) explicitly",
            *expr.pos,
        )
    return left + right if expr.op == "+" else left - right


def _as_operator(value, layout: SpaceLayout) -> Operator:
    if isinstance(value, Operator):
        return value
    return complex(value) * identity_operator(layout)


def document_environment(doc: ModelDocument) -> tuple[SpaceLayout, dict]:
    """Evaluate every binding; returns the layout and the name -> value map."""
    layout = SpaceLayout(doc.spaces)
    env: dict = {}
    for name, expr in doc.bindings:
        env[name] = _evaluate(expr, layout, env)
    return layout, env


def build_model(
    doc: ModelDocument, environment: tuple[SpaceLayout, dict] | None = None
) -> LindbladModel:
    """Evaluate a document into a LindbladModel (full-space operators).

    ``environment`` is this document's :func:`document_environment`, for a
    caller that has already evaluated the bindings; without it they are
    evaluated here.
    """
    layout, env = environment if environment is not None else document_environment(doc)
    h_value = _evaluate(doc.hamiltonian, layout, env)
    h_op = _as_operator(h_value, layout)
    if not h_op.is_hermitian(tol=1e-12):
        raise ModelSemanticError("hamiltonian expression is not Hermitian", *doc.hamiltonian.pos)
    dissipators = [
        (rate, _as_operator(_evaluate(expr, layout, env), layout))
        for rate, expr in doc.dissipators
    ]
    return LindbladModel(h_op, dissipators)


def evaluate_observable(
    doc: ModelDocument, text: str, env: dict | None = None
) -> Operator:
    """Evaluate an expression string in a document's namespace.

    Used for observables given on the command line; scalars coerce to
    multiples of the identity.
    """
    lines = _tokenize(text)
    if len(lines) != 1:
        raise ModelSyntaxError("observable must be a single expression", 1, 1)
    expr = _parse_line_expr(lines[0])
    dims = dict(doc.spaces)
    _check_expr(expr, dims, {name for name, _ in doc.bindings})
    if env is None:
        layout, env = document_environment(doc)
    else:
        layout = SpaceLayout(doc.spaces)
    return _as_operator(_evaluate(expr, layout, env), layout)


# ---------------------------------------------------------------------------
# rendering

def _fmt_real(x: float) -> str:
    if float(x).is_integer() and abs(x) < 1e16:
        return str(int(x))
    return repr(float(x))


def _fmt_scalar(value: complex) -> str:
    if value.imag == 0:
        if value.real >= 0:
            return _fmt_real(value.real)
        return f"({_fmt_real(value.real)},0)"
    if value.real == 0 and value.imag > 0:
        return f"{_fmt_real(value.imag)}i"
    return f"({_fmt_real(value.real)},{_fmt_real(value.imag)})"


_LEVEL_SUM, _LEVEL_PRODUCT, _LEVEL_ATOM = 1, 2, 3


def render_expression(expr: Expr, min_level: int = 0) -> str:
    """Expression back to source text; reparsing yields an identical AST."""
    if isinstance(expr, Literal):
        return _fmt_scalar(expr.value)
    if isinstance(expr, Name):
        return expr.ident
    if isinstance(expr, PrimitiveCall):
        return f"{expr.func}({','.join(str(a) for a in expr.args)})"
    if isinstance(expr, Adjoint):
        return f"{render_expression(expr.operand, _LEVEL_ATOM)}'"
    level = _LEVEL_PRODUCT if expr.op == "*" else _LEVEL_SUM
    left = render_expression(expr.left, level)
    right = render_expression(expr.right, level + 1)
    text = f"{left}{expr.op}{right}" if expr.op == "*" else f"{left} {expr.op} {right}"
    if level < min_level:
        return f"({text})"
    return text


def render_model(doc: ModelDocument) -> str:
    """Document back to canonical text; reparsing yields an identical AST."""
    out = ["spaces:"]
    out.extend(f"  {name} {dim}" for name, dim in doc.spaces)
    if doc.bindings:
        out.append("define:")
        out.extend(
            f"  {name} = {render_expression(expr)}" for name, expr in doc.bindings
        )
    out.append("hamiltonian:")
    out.append(f"  {render_expression(doc.hamiltonian)}")
    if doc.dissipators:
        out.append("dissipators:")
        out.extend(
            f"  {_fmt_real(rate)} , {render_expression(expr)}"
            for rate, expr in doc.dissipators
        )
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# cascade benchmark

@dataclass(frozen=True)
class CascadeParams:
    """Parameters of the three-level cascade + two driven cavity modes.

    Defaults reproduce the benchmark configuration: resonant modes, unit
    couplings and spontaneous rates, cavity damping 3, drives 20 and 5 on
    the lower and upper transitions, Fock truncations 4 and 2 photons.
    Everything is expressed in the displaced picture, so the drives enter as
    the Rabi frequencies omega_a, omega_b and the frame displacements are
    alpha = omega_a / g_a and beta = omega_b / g_b.
    """

    delta_a: float = 0.0
    delta_b: float = 0.0
    g_a: float = 1.0
    g_b: float = 1.0
    gamma_12: float = 1.0
    gamma_23: float = 1.0
    gamma_a: float = 3.0
    gamma_b: float = 3.0
    omega_a: complex = 20.0 + 0.0j
    omega_b: complex = 5.0 + 0.0j
    n_a: int = 4
    n_b: int = 2

    def __post_init__(self):
        for label in ("gamma_12", "gamma_23", "gamma_a", "gamma_b"):
            if getattr(self, label) <= 0:
                raise ValueError(f"{label} must be > 0")
        if self.n_a < 0 or self.n_b < 0:
            raise ValueError("Fock truncations must be >= 0")
        for spec in fields(self):
            if spec.type != "int" and not cmath.isfinite(getattr(self, spec.name)):
                raise ValueError(f"{spec.name} must be finite")

    @property
    def alpha(self) -> complex:
        if self.g_a == 0:
            raise ValueError("displacement alpha = omega_a/g_a needs g_a != 0")
        return complex(self.omega_a) / self.g_a

    @property
    def beta(self) -> complex:
        if self.g_b == 0:
            raise ValueError("displacement beta = omega_b/g_b needs g_b != 0")
        return complex(self.omega_b) / self.g_b


def cascade_model(params: CascadeParams = CascadeParams()) -> LindbladModel:
    """Programmatic cascade benchmark model.

    Layout order (xi, a, b); Hamiltonian = detunings + Jaynes-Cummings
    couplings + Rabi drives; dissipators are the two cavity decays and the
    two spontaneous-emission channels.
    """
    layout = SpaceLayout([("xi", 3), ("a", params.n_a + 1), ("b", params.n_b + 1)])
    s11 = embed(layout, "xi", transition(3, 1, 1))
    s33 = embed(layout, "xi", transition(3, 3, 3))
    s12 = embed(layout, "xi", transition(3, 1, 2))
    s23 = embed(layout, "xi", transition(3, 2, 3))
    am = embed(layout, "a", annihilation(params.n_a + 1))
    bm = embed(layout, "b", annihilation(params.n_b + 1))

    h_delta = params.delta_b * s33 - params.delta_a * s11
    h_coupling = params.g_a * (am.dag() * s12 + am * s12.dag()) \
        + params.g_b * (bm.dag() * s23 + bm * s23.dag())
    h_rabi = np.conj(params.omega_a) * s12 + params.omega_a * s12.dag() \
        + np.conj(params.omega_b) * s23 + params.omega_b * s23.dag()
    hamiltonian = h_delta + h_coupling + h_rabi
    dissipators = [
        (params.gamma_a, am),
        (params.gamma_b, bm),
        (params.gamma_12, s12),
        (params.gamma_23, s23),
    ]
    return LindbladModel(hamiltonian, dissipators)


_CASCADE_TEXT = """\
spaces:
  xi 3
  a {dim_a}
  b {dim_b}
define:
  s11 = trans(xi,1,1)
  s22 = trans(xi,2,2)
  s33 = trans(xi,3,3)
  s12 = trans(xi,1,2)
  s23 = trans(xi,2,3)
  am = a(a)
  bm = a(b)
  Hdelta = {delta_b}*s33 - {delta_a}*s11
  Hcoupling = {g_a}*(am'*s12 + am*s12') + {g_b}*(bm'*s23 + bm*s23')
  Hrabi = {omega_a_conj}*s12 + {omega_a}*s12' + {omega_b_conj}*s23 + {omega_b}*s23'
hamiltonian:
  Hdelta + Hcoupling + Hrabi
dissipators:
  {gamma_a} , am
  {gamma_b} , bm
  {gamma_12} , s12
  {gamma_23} , s23
"""


def cascade_text(params: CascadeParams = CascadeParams()) -> str:
    """The canonical model text of :func:`cascade_model`, the source of the
    cascade's document; it is its own :func:`render_model` rendering."""
    literals = {spec.name: complex(getattr(params, spec.name)) for spec in fields(params)}
    return _CASCADE_TEXT.format(
        dim_a=params.n_a + 1, dim_b=params.n_b + 1,
        omega_a_conj=_fmt_scalar(literals["omega_a"].conjugate()),
        omega_b_conj=_fmt_scalar(literals["omega_b"].conjugate()),
        **{name: _fmt_scalar(value) for name, value in literals.items()},
    )


def cascade_document(params: CascadeParams = CascadeParams()) -> ModelDocument:
    """The parsed :func:`cascade_text`, the text-form counterpart of :func:`cascade_model`."""
    return parse_model(cascade_text(params))
