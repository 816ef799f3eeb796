"""Parser and compiler for quaternion-valued functions of time.

The grammar is deliberately small:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' uint)?
    atom   := number | 'i' | 'j' | 'k' | variable | '(' expr ')'
            | ('exp'|'cos'|'sin') '(' expr ')' | '-' atom

Multiplication is left-associative and preserves operand order (quaternions
do not commute); division x/y means x * y^-1.  There is no implicit
multiplication.  `cos`/`sin` accept real arguments only; `exp` is the full
quaternion exponential.  The default variable is `t`; callers may allow
extra symbols (the CLI sweep enables `p`).

The parser bounds its input: an expression may nest at most MAX_DEPTH
levels (parentheses, calls, unary minus and each operator of a chain count)
and an exponent may not exceed MAX_EXPONENT; either breach is an
ExprSyntaxError.  Evaluation goes through a compile step: `compile_expr`
turns an AST once into a closure returning (q0, q1, q2, q3) tuples, with
every variable-free subtree folded to its value and real-valued subtrees
kept as plain reals.  `MatrixSpec` compiles its entries when it is built;
`evaluate` compiles and calls in one step.

A compiled closure takes a float time and float parameters, or numpy arrays
of times and parameter values, one element per member of a batch.  Its leaf
functions (exp, cos, sin, hypot) are numpy's on both, and folding runs them
too, so an element gets the same value alone or in any batch, and an
overflow gives inf, never an exception.  `MatrixSpec.tops` evaluates a
specification straight into the top block rows [A1, A2] of its complex
adjoint, the layout QMatrix stores and the integrator steps, for one time or
a batch; `MatrixSpec.evaluate` wraps them in a QMatrix.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .qmatrix import QMatrix, top_rows
from .quaternion import (DivisionByZero, Quaternion, exp_components, hypot,
                         inverse_components, product)

UNIT_NAMES = {"i": Quaternion(0, 1, 0, 0),
              "j": Quaternion(0, 0, 1, 0),
              "k": Quaternion(0, 0, 0, 1)}
FUNCTION_NAMES = ("exp", "cos", "sin")
# tolerance for deciding that a cos/sin argument is real
REAL_ARG_TOL = 1e-12
# deepest nesting parse accepts; keeps the recursive parser, compiler and
# renderer well inside Python's recursion limit
MAX_DEPTH = 100
# largest exponent parse accepts: x^n costs n products per evaluation
MAX_EXPONENT = 100
# sample count of the grid checks on [0, T) (periodicity, realness)
GRID_POINTS = 64


class ExprSyntaxError(ValueError):
    """Malformed source text; `offset` is the byte position of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifier(ExprSyntaxError):
    """Identifier outside the grammar and the allowed variable set."""


class EvalError(ArithmeticError):
    """Evaluation failed at a concrete time."""


class DomainError(EvalError):
    """cos/sin applied to a non-real quaternion argument."""


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Unit:
    name: str


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


TimeExpr = (Num, Unit, Var, Neg, BinOp, Pow, Call)


# -- tokenizer ----------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
""", re.VERBOSE)


def _tokenize(src):
    tokens = []
    pos = 0
    while pos < len(src):
        match = _TOKEN_RE.match(src, pos)
        if match is None:
            raise ExprSyntaxError(f"unexpected character {src[pos]!r}", pos)
        if match.lastgroup != "ws":
            tokens.append((match.lastgroup, match.group(), match.start()))
        pos = match.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol):
        kind, text, offset = self.peek()
        if kind != "op" or text != symbol:
            raise ExprSyntaxError(f"expected {symbol!r}", offset)
        return self.advance()

    # Each parse_* method returns (node, height): the number of AST levels,
    # bounded by MAX_DEPTH.  `depth` counts the open parentheses, calls and
    # unary minuses, which bounds the parser's own recursion.

    def check_depth(self, height, offset):
        if height > MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nests deeper than {MAX_DEPTH} levels", offset)
        return height

    def nested(self, parse, offset):
        """Run a recursive descent step one nesting level deeper."""
        self.depth += 1
        self.check_depth(self.depth, offset)
        result = parse()
        self.depth -= 1
        return result

    def chain(self, ops, parse_operand):
        """Left-associative chain of operands joined by the operators `ops`."""
        node, height = parse_operand()
        while True:
            kind, text, offset = self.peek()
            if kind != "op" or text not in ops:
                return node, height
            self.advance()
            right, right_height = parse_operand()
            node = BinOp(text, node, right)
            height = self.check_depth(max(height, right_height) + 1, offset)

    def parse_expr(self):
        return self.chain("+-", self.parse_term)

    def parse_term(self):
        return self.chain("*/", self.parse_factor)

    def parse_factor(self):
        node, height = self.parse_atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            kind, text, offset = self.advance()
            if kind != "number" or not re.fullmatch(r"\d+", text):
                raise ExprSyntaxError("exponent must be a nonnegative integer", offset)
            if int(text) > MAX_EXPONENT:
                raise ExprSyntaxError(
                    f"exponent {text} exceeds the limit {MAX_EXPONENT}", offset)
            node, height = Pow(node, int(text)), self.check_depth(height + 1, offset)
        return node, height

    def parse_atom(self):
        kind, text, offset = self.advance()
        if kind == "number":
            return Num(float(text)), 1
        if kind == "ident":
            if text in UNIT_NAMES:
                return Unit(text), 1
            if text in FUNCTION_NAMES:
                self.expect_op("(")
                arg, height = self.nested(self.parse_expr, offset)
                self.expect_op(")")
                return Call(text, arg), self.check_depth(height + 1, offset)
            if text in self.variables:
                return Var(text), 1
            raise UnknownIdentifier(f"unknown identifier {text!r}", offset)
        if kind == "op" and text == "(":
            result = self.nested(self.parse_expr, offset)
            self.expect_op(")")
            return result
        if kind == "op" and text == "-":
            arg, height = self.nested(self.parse_atom, offset)
            return Neg(arg), self.check_depth(height + 1, offset)
        raise ExprSyntaxError(f"unexpected {text!r}" if text else "unexpected end of input",
                              offset)


def parse(src, variables=("t",)):
    """Parse source text into a TimeExpr AST."""
    if not src or not src.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(_tokenize(src), tuple(variables))
    node, _ = parser.parse_expr()
    kind, text, offset = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing {text!r}", offset)
    return node


# -- compilation and evaluation -----------------------------------------------
#
# A compiled subtree is a function of (t, params).  Subtrees that are real by
# construction (numbers, variables, cos/sin, and + - * / ^ of real operands)
# return reals (floats, or arrays of them for array arguments); every other
# subtree returns a (q0, q1, q2, q3) tuple of reals.  A subtree without a
# variable is folded to its value once, with numpy's warnings off: an overflow
# folds to inf, as it evaluates on arrays.  When folding raises (1/0, cos(i)),
# the subtree stays unfolded so the error surfaces at evaluation.


class _Code(NamedTuple):
    fn: object        # (t, params) -> float when `real`, else a 4-tuple
    real: bool
    value: object     # the folded value, or None when fn depends on a variable


def _scale(r, a):
    return (r * a[0], r * a[1], r * a[2], r * a[3])


def _scale_right(a, r):
    # a real factor commutes with every quaternion
    return (a[0] * r, a[1] * r, a[2] * r, a[3] * r)


def _real_inverse(y):
    # the real case of inverse_components, with the same rounding
    n2 = y * y
    if np.any(n2 == 0.0):
        raise DivisionByZero("inverse of zero quaternion")
    return y / n2


def _add_qq(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def _sub_qq(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])


# (op, left is real, right is real) -> operation on the operand values;
# x/y means x * y^-1
_BINARY = {
    ("+", True, True): operator.add,
    ("+", True, False): lambda x, b: (x + b[0], b[1], b[2], b[3]),
    ("+", False, True): lambda a, y: (a[0] + y, a[1], a[2], a[3]),
    ("+", False, False): _add_qq,
    ("-", True, True): operator.sub,
    ("-", True, False): lambda x, b: (x - b[0], -b[1], -b[2], -b[3]),
    ("-", False, True): lambda a, y: (a[0] - y, a[1], a[2], a[3]),
    ("-", False, False): _sub_qq,
    ("*", True, True): operator.mul,
    ("*", True, False): _scale,
    ("*", False, True): _scale_right,
    ("*", False, False): product,
    ("/", True, True): lambda x, y: x * _real_inverse(y),
    ("/", True, False): lambda x, b: _scale(x, inverse_components(b)),
    ("/", False, True): lambda a, y: _scale_right(a, _real_inverse(y)),
    ("/", False, False): lambda a, b: product(a, inverse_components(b)),
}


def _power(n, real):
    """x^n as n ordered products starting from 1, like the grammar defines."""
    one, multiply = ((1.0, operator.mul) if real
                     else ((1.0, 0.0, 0.0, 0.0), product))

    def power(x):
        out = one
        for _ in range(n):
            out = multiply(out, x)
        return out
    return power


def _first_member(a, mask):
    """The quaternion of the first element where `mask` holds."""
    index = int(np.argmax(mask))
    return Quaternion(*(float(np.broadcast_to(c, np.shape(mask)).flat[index])
                        for c in a))


def _real_argument(fn, trig):
    def checked(a):
        bad = hypot(a[1], a[2], a[3]) > REAL_ARG_TOL * np.maximum(1.0, hypot(*a))
        if np.any(bad):
            raise DomainError(f"{fn} requires a real argument, got "
                              f"{_first_member(a, bad)}")
        return trig(a[0])
    return checked


_TRIG = {"cos": np.cos, "sin": np.sin}


def _variable(name):
    if name == "t":
        return lambda t, params: t

    def lookup(t, params):
        value = params.get(name) if params else None
        if value is None:
            raise EvalError(f"no value bound for variable {name!r}")
        return value if isinstance(value, np.ndarray) else float(value)
    return lookup


def _closure(op, args):
    """f(t, params) = op(*operand values), with folded operands captured."""
    if len(args) == 1:
        (a,) = args
        if a.value is not None:
            v = a.value
            return lambda t, params: op(v)
        f = a.fn
        return lambda t, params: op(f(t, params))
    a, b = args
    f, g, v, w = a.fn, b.fn, a.value, b.value
    if v is not None and w is not None:
        return lambda t, params: op(v, w)
    if v is not None:
        return lambda t, params: op(v, g(t, params))
    if w is not None:
        return lambda t, params: op(f(t, params), w)
    return lambda t, params: op(f(t, params), g(t, params))


def _apply(op, real, *args):
    """Code for op over the args' values; folded when every arg is folded."""
    fn = _closure(op, args)
    if any(arg.value is None for arg in args):
        return _Code(fn, real, None)
    try:
        return _constant(fn(0.0, None))
    except ArithmeticError:
        return _Code(fn, real, None)


def _constant(value):
    return _Code(lambda t, params: value, isinstance(value, float), value)


def _compile(node):
    if isinstance(node, Num):
        return _constant(float(node.value))
    if isinstance(node, Unit):
        return _constant(UNIT_NAMES[node.name].components())
    if isinstance(node, Var):
        return _Code(_variable(node.name), True, None)
    if isinstance(node, Neg):
        arg = _compile(node.arg)
        if arg.real:
            return _apply(operator.neg, True, arg)
        return _apply(lambda a: (-a[0], -a[1], -a[2], -a[3]), False, arg)
    if isinstance(node, BinOp):
        left, right = _compile(node.left), _compile(node.right)
        return _apply(_BINARY[node.op, left.real, right.real],
                      left.real and right.real, left, right)
    if isinstance(node, Pow):
        base = _compile(node.base)
        return _apply(_power(node.exponent, base.real), base.real, base)
    if isinstance(node, Call):
        arg = _compile(node.arg)
        if node.fn == "exp":
            return _apply(np.exp if arg.real else exp_components, arg.real,
                          arg)
        trig = _TRIG[node.fn]
        return _apply(trig if arg.real else _real_argument(node.fn, trig),
                      True, arg)
    raise TypeError(f"not a TimeExpr node: {node!r}")


def _quaternion_fn(code):
    if code.value is not None:
        value = (code.value, 0.0, 0.0, 0.0) if code.real else code.value
        return lambda t, params: value
    if code.real:
        f = code.fn
        return lambda t, params: (f(t, params), 0.0, 0.0, 0.0)
    return code.fn


def _scalar_part_fn(code):
    if code.value is not None:
        value = code.value if code.real else code.value[0]
        return lambda t, params: value
    if code.real:
        return code.fn
    f = code.fn
    return lambda t, params: f(t, params)[0]


def compile_expr(node):
    """Compile an AST once into f(t, params) -> (q0, q1, q2, q3).

    `params` maps extra variable names to reals (or is None).  Call the
    result at each time instead of re-walking the AST with `evaluate`.  With
    an array of times, and parameter values as arrays of the same shape, it
    returns arrays: one element per time.
    """
    with np.errstate(all="ignore"):     # folds: see the comment above _Code
        return _quaternion_fn(_compile(node))


def evaluate(node, t, params=None):
    """Evaluate an AST at time t; `params` maps extra variable names to reals.

    Compiles the AST on every call; see compile_expr for repeated evaluation.
    An overflow gives inf, without a numpy warning.
    """
    with np.errstate(all="ignore"):
        return Quaternion(*map(float, compile_expr(node)(t, params)))


def grid_max(measure, period, points=GRID_POINTS, members=None):
    """Largest value of measure(t) over `points` equally spaced times in
    [0, period), called once on the array of those times; nan when any
    value is nan.

    With `members`, measure gets the times as a (points, 1) column and may
    give one column per member of a batch; the result is then the array of
    each member's largest value.
    """
    t = np.linspace(0.0, period, points, endpoint=False)
    if members is None:
        return float(np.max(measure(t)))
    return np.broadcast_to(measure(t[:, None]), (points, members)).max(axis=0)


# -- rendering ----------------------------------------------------------------

_ADD_PREC, _MUL_PREC, _POW_PREC, _ATOM_PREC = 1, 2, 3, 4


def _node_prec(node):
    if isinstance(node, BinOp):
        return _ADD_PREC if node.op in "+-" else _MUL_PREC
    if isinstance(node, Pow):
        return _POW_PREC
    return _ATOM_PREC


def render(node, min_prec=_ADD_PREC):
    """Render an AST back to source text that reparses to an equivalent AST."""
    if isinstance(node, Num):
        text = repr(float(node.value))
        body = text[:-2] if text.endswith(".0") else text
    elif isinstance(node, (Unit, Var)):
        body = node.name
    elif isinstance(node, Call):
        body = f"{node.fn}({render(node.arg)})"
    elif isinstance(node, Neg):
        body = f"-{render(node.arg, _ATOM_PREC)}"
    elif isinstance(node, Pow):
        body = f"{render(node.base, _ATOM_PREC)}^{node.exponent}"
    elif isinstance(node, BinOp):
        prec = _node_prec(node)
        body = (f"{render(node.left, prec)} {node.op} "
                f"{render(node.right, prec + 1)}")
    else:
        raise TypeError(f"not a TimeExpr node: {node!r}")
    if _node_prec(node) < min_prec:
        return f"({body})"
    return body


def quaternion_literal(q):
    """AST for a constant quaternion, written in the expression grammar."""
    node = Num(float(q.q0))
    for value, unit in ((q.q1, "i"), (q.q2, "j"), (q.q3, "k")):
        term = BinOp("*", Num(abs(float(value))), Unit(unit))
        node = BinOp("-" if value < 0 else "+", node, term)
    return node


# -- matrix specifications ----------------------------------------------------


class MatrixSpec:
    """Square grid of TimeExpr entries defining A(t), optionally periodic.

    The entries are compiled once, when the specification is built.
    `tops` gives the top block rows of A(t)'s complex adjoint and `re_trace`
    the real part of its trace, each for one time or for a batch; `evaluate`
    gives A(t) at one time as the QMatrix of its `tops`.  Both run the same
    numpy leaves.
    """

    def __init__(self, entries, period=None):
        self.entries = tuple(tuple(row) for row in entries)
        self.n = len(self.entries)
        for row in self.entries:
            if len(row) != self.n:
                raise ValueError("matrix specification must be square")
        if period is not None and not period > 0:
            raise ValueError("period must be positive")
        if period is not None and not math.isfinite(period):
            raise ValueError("period must be finite")
        self.period = period
        with np.errstate(all="ignore"):     # folds: see the comment above _Code
            self._codes = [_compile(entry) for row in self.entries
                           for entry in row]
        self._entry_fns = [_quaternion_fn(code) for code in self._codes]
        self._diagonal_fns = [_scalar_part_fn(self._codes[m * (self.n + 1)])
                              for m in range(self.n)]

    @staticmethod
    def from_strings(rows, period=None, variables=("t",)):
        parsed = [[parse(src, variables) for src in row] for row in rows]
        return MatrixSpec(parsed, period)

    @staticmethod
    def from_qmatrix(A, period=None):
        """Constant specification wrapping the entries of a QMatrix."""
        entries = [[quaternion_literal(A[i, j]) for j in range(A.cols)]
                   for i in range(A.rows)]
        return MatrixSpec(entries, period)

    def evaluate(self, t, params=None):
        return QMatrix(top=self.tops(t, params))

    @functools.cached_property
    def _tops_layout(self):
        """(varying entry functions, basis) for `tops`.

        The top rows are linear in the entries: seen as a flat array of
        floats, real and imaginary parts interleaved, they are the
        components of the varying entries times the top rows of unit entries
        (the basis rows), plus 1 times the top rows of the constant entries
        (the last row).  The unit rows hold 0 and 1 with one nonzero per
        slot, so their part of the product is exact and each slot takes one
        rounding, its constant's addition; each member of a batch gets the
        same value in a batch of any size.
        """
        constant = np.zeros((self.n * self.n, 4))
        varying, units = [], []
        for index, (code, fn) in enumerate(zip(self._codes, self._entry_fns)):
            if code.value is None:
                varying.append(fn)
                units += [4 * index + c for c in range(4)]
            else:
                constant[index] = fn(0.0, None)
        shape = (-1, self.n, self.n, 4)
        rows = np.concatenate((np.eye(constant.size)[units],
                               constant.reshape(1, -1)))
        basis = top_rows(rows.reshape(shape)).view(float)
        return varying, basis.reshape(len(rows), -1)

    def tops(self, t, params=None):
        """The top block row [A1, A2] of A(t)'s complex adjoint (the layout
        of `QMatrix.top`), shape (n, 2n), complex.

        With an array of times, and each parameter bound to an array of the
        same shape (one value per member of a batch), the result has shape
        t.shape + (n, 2n).  It is one real product, read as complex.
        """
        varying, basis = self._tops_layout
        shape = np.shape(t)
        values = np.empty((len(basis),) + shape)
        for column, fn in enumerate(varying):
            for offset, value in enumerate(fn(t, params)):
                values[4 * column + offset] = value
        values[-1] = 1.0
        flat = values.reshape(len(values), math.prod(shape)).T @ basis
        return flat.view(complex).reshape(shape + (self.n, 2 * self.n))

    def re_trace(self, t, params=None):
        """Re tr A(t), from the diagonal entries alone, as an array of t's
        shape."""
        return sum((f(t, params) for f in self._diagonal_fns),
                   np.zeros(np.shape(t)))

    def periodicity_residual(self, params=None):
        """max over the GRID_POINTS-point grid of ||A(t) - A(t+T)|| in the
        entrywise sum norm.

        A parameter may be bound to an array of one value per grid time,
        or to a (1, members) row, one value per member of a batch.  Then
        every member is checked in the one call and the result is the array
        of their maxima, each its own check's float bit for bit.
        """
        if self.period is None:
            return 0.0
        period = self.period
        rows = [np.shape(value) for value in (params or {}).values()
                if np.ndim(value) == 2]
        members = np.broadcast_shapes(*rows)[-1] if rows else None

        def drift(t):
            # each entry evaluated once, at t and t + T stacked on a new
            # first axis; a component without that axis does not vary in t
            both = np.stack((t, t + period))

            def change(c):
                if np.ndim(c) == both.ndim and np.shape(c)[0] == 2:
                    return c[0] - c[1]
                return c - c
            return sum(hypot(*map(change, f(both, params)))
                       for f in self._entry_fns)
        return grid_max(drift, period, members=members)
