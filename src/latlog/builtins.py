"""Arithmetic and comparison builtins over bound terms."""

from __future__ import annotations

from .errors import ArithmeticTypeError
from .program import Builtin, Compound, Var, pattern_to_str, substitute
from .terms import Int, term_to_str

_BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "min": min,
    "max": max,
}

COMPARISONS = {
    "<": lambda a, b: a < b,
    "=<": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def eval_arith(p, bindings) -> int:
    """Evaluate an arithmetic expression pattern to an integer."""
    # tested in order of frequency: variables, then operators, then literals
    if isinstance(p, Var):
        t = bindings.get(p.name)
        if isinstance(t, Int):
            return t.value
        if t is None:
            t = substitute(p, bindings)  # raises the unbound-variable error
        raise ArithmeticTypeError(f"arithmetic on non-integer {term_to_str(t)}")
    if isinstance(p, Compound):
        if len(p.args) == 2:
            op = _BINOPS.get(p.functor)
            if op is not None:
                return op(eval_arith(p.args[0], bindings), eval_arith(p.args[1], bindings))
        elif p.functor == "-" and len(p.args) == 1:
            return -eval_arith(p.args[0], bindings)
    elif isinstance(p, Int):
        return p.value
    raise ArithmeticTypeError(f"not an arithmetic expression: {pattern_to_str(p)}")


def eval_builtin(lit: Builtin, bindings):
    """Evaluate a builtin under the given bindings.

    Returns the (possibly extended) bindings on success, None on failure.
    `is` binds its left side when it is an unbound variable, otherwise
    it checks for equality with the evaluated right side.
    """
    lhs, rhs = lit.args
    if lit.op == "is":
        value = Int(eval_arith(rhs, bindings))
        if isinstance(lhs, Var) and lhs.name not in bindings:
            out = dict(bindings)
            out[lhs.name] = value
            return out
        return bindings if substitute(lhs, bindings) == value else None
    if lit.op == "=":
        return bindings if substitute(lhs, bindings) == substitute(rhs, bindings) else None
    cmp = COMPARISONS[lit.op]
    return bindings if cmp(eval_arith(lhs, bindings), eval_arith(rhs, bindings)) else None
