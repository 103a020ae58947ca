"""Arithmetic and comparison builtins, written as lines of a clause
plan's generated source (see `reference._compile`). The lines read the
plan's locals, and raise what the builtin raises, in the order it does:
operands left to right, then the digit bound of `is`, then the left side
of an `is` that checks. `is` refuses a result of more than
MAX_INT_DIGITS digits. The names the lines use besides the plan's own
are those of `NAMESPACE`."""

from __future__ import annotations

from .errors import ArithmeticTypeError, LatlogError
from .program import Var, pattern_to_str, pattern_vars
from .terms import MAX_INT_DIGITS, Compound, Int, ListTerm, term_to_str

_BINOPS = {"+": "({} + {})", "-": "({} - {})", "*": "({} * {})",
           "min": "min({}, {})", "max": "max({}, {})"}

_COMPARISONS = {"<": "<", "=<": "<=", ">": ">", ">=": ">="}


def _non_integer(t):
    raise ArithmeticTypeError(f"arithmetic on non-integer {term_to_str(t)}")


NAMESPACE = {"Int": Int, "Compound": Compound, "ListTerm": ListTerm, "new": tuple.__new__,
             "LatlogError": LatlogError, "ArithmeticTypeError": ArithmeticTypeError,
             "non_integer": _non_integer, "BOUND": 10 ** MAX_INT_DIGITS}


def _raise(error, message, code, out):
    out.append(f"raise {error}({code.value(message)})")
    return "None"


def emit_term(p, code, out):
    """An expression building pattern `p`. A compound or list holding a
    variable is built into a temporary by a line added to `out`, inner
    terms first, so that no line nests more than one term deep. A
    variable that nothing binds adds the line that raises its error."""
    if isinstance(p, Var):
        local = code.locals.get(p.name)
        return _raise("LatlogError", f"unbound variable {p.name}", code, out) if local is None else local
    if not pattern_vars(p):
        return code.value(p)
    parts = "".join(emit_term(a, code, out) + ", " for a in p[-1])
    t = code.temp()
    out.append(f"{t} = new(Compound, (2, {code.value(p.functor)}, ({parts})))"
               if isinstance(p, Compound) else f"{t} = new(ListTerm, (3, ({parts})))")
    return t


def _arith(p, code, out):
    """An int expression evaluating `p`. The lines that check its operands
    go to `out`; a variable once checked is known to hold an `Int`."""
    if isinstance(p, Var):
        local = code.locals.get(p.name)
        if local is None:
            return _raise("LatlogError", f"unbound variable {p.name}", code, out)
        if local not in code.ints:
            out.append(f"if type({local}) is not Int: non_integer({local})")
            code.ints.add(local)
        return f"{local}[1]"
    if isinstance(p, Int):
        return code.value(p.value)
    if isinstance(p, Compound) and len(p.args) == 2 and p.functor in _BINOPS:
        left = _arith(p.args[0], code, out)
        return _BINOPS[p.functor].format(left, _arith(p.args[1], code, out))
    if isinstance(p, Compound) and len(p.args) == 1 and p.functor == "-":
        return f"(-{_arith(p.args[0], code, out)})"
    return _raise("ArithmeticTypeError", f"not an arithmetic expression: {pattern_to_str(p)}",
                  code, out)


def emit_builtin(lit, code, fail):
    """The lines running builtin `lit`: they fall through when it holds
    and run the statement `fail` when it does not. An `is` whose left
    side is a variable no earlier literal binds binds it."""
    lhs, rhs = lit.args
    out = []
    if lit.op == "=":
        left = emit_term(lhs, code, out)
        out.append(f"if {left} != {emit_term(rhs, code, out)}: {fail}")
        return out
    if lit.op != "is":
        left = _arith(lhs, code, out)
        out.append(f"if not {left} {_COMPARISONS[lit.op]} {_arith(rhs, code, out)}: {fail}")
        return out
    value = _arith(rhs, code, out)
    too_long = code.value(f"{pattern_to_str(rhs)} has more than {MAX_INT_DIGITS} digits")
    out += [f"n = {value}", f"if not -BOUND < n < BOUND: raise ArithmeticTypeError({too_long})"]
    if isinstance(lhs, Var) and lhs.name not in code.locals:
        local = code.bind(lhs.name)
        code.ints.add(local)
        out.append(f"{local} = new(Int, (0, n))")
    else:  # an Int is the tuple (0, n)
        out.append(f"if {emit_term(lhs, code, out)} != (0, n): {fail}")
    return out
