"""Arithmetic and comparison builtins, compiled into tests on a clause
plan's slot list (see `reference`), which raise what the builtin raises,
left to right. `is` refuses a result of more than MAX_INT_DIGITS digits.
A fresh variable bound to `A + c` gets one fused test; every other
expression is evaluated through `_arith`."""

from __future__ import annotations

import operator

from .errors import ArithmeticTypeError
from .program import Compound, Var, pattern_to_str, term_builder, unbound
from .terms import MAX_INT_DIGITS, Int, term_to_str

_INT_BOUND = 10 ** MAX_INT_DIGITS

_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "min": min, "max": max}

COMPARISONS = {"<": operator.lt, "=<": operator.le, ">": operator.gt, ">=": operator.ge}


def _non_integer(t):
    raise ArithmeticTypeError(f"arithmetic on non-integer {term_to_str(t)}")


def _arith(p, slots):
    """A function of the slot list evaluating expression `p` to an int."""
    if isinstance(p, Var):
        s = slots.get(p.name)
        if s is None:
            return unbound(p.name)

        def var(sl):
            t = sl[s]
            if isinstance(t, Int):
                return t.value
            _non_integer(t)
        return var
    if isinstance(p, Int):
        return lambda sl: p.value
    if isinstance(p, Compound) and len(p.args) == 2 and p.functor in _BINOPS:
        return _binary(_BINOPS[p.functor], *p.args, slots)
    if isinstance(p, Compound) and len(p.args) == 1 and p.functor == "-":
        f = _arith(p.args[0], slots)
        return lambda sl: -f(sl)
    message = f"not an arithmetic expression: {pattern_to_str(p)}"

    def fail(sl):
        raise ArithmeticTypeError(message)
    return fail


def _binary(op, lhs, rhs, slots):
    f, g = _arith(lhs, slots), _arith(rhs, slots)
    return lambda sl: op(f(sl), g(sl))  # the left side first


def _plus_constant(a, c, s, too_long):
    """The test binding slot `s` to slot `a`'s integer plus int `c`: a
    fresh variable's `V is A + c`, raising what `_arith` and the digit
    bound raise."""
    def plus(sl):
        t = sl[a]
        if type(t) is not Int:
            _non_integer(t)
        n = t[1] + c
        if -_INT_BOUND < n < _INT_BOUND:
            sl[s] = Int(n)
            return True
        raise ArithmeticTypeError(too_long)
    return plus


def builtin_test(lit, slots, new_slot):
    """A function of the slot list telling whether builtin `lit` holds. An
    `is` binds a left-side variable not in `slots` to a slot from `new_slot`."""
    lhs, rhs = lit.args
    if lit.op == "=":
        left, right = term_builder(lhs, slots), term_builder(rhs, slots)
        return lambda sl: left(sl) == right(sl)
    if lit.op != "is":
        return _binary(COMPARISONS[lit.op], lhs, rhs, slots)
    too_long = f"{pattern_to_str(rhs)} has more than {MAX_INT_DIGITS} digits"
    fresh = isinstance(lhs, Var) and lhs.name not in slots
    if (fresh and isinstance(rhs, Compound) and rhs.functor == "+" and len(rhs.args) == 2
            and isinstance(rhs.args[0], Var) and rhs.args[0].name in slots
            and isinstance(rhs.args[1], Int)):
        a = slots[rhs.args[0].name]
        s = slots[lhs.name] = new_slot()
        return _plus_constant(a, rhs.args[1].value, s, too_long)
    f = _arith(rhs, slots)

    def value(sl):
        n = f(sl)
        if abs(n) < _INT_BOUND:
            return Int(n)
        raise ArithmeticTypeError(too_long)
    if fresh:
        s = slots[lhs.name] = new_slot()

        def bind(sl):
            sl[s] = value(sl)
            return True
        return bind
    left = term_builder(lhs, slots)
    return lambda sl: value(sl) == left(sl)  # the value first, as `is` has it
