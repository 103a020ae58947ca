"""Builtins, evaluated the way rules evaluate them: through the compiled
plan of a clause that reads its bindings from one `env` fact."""

import pytest

from latlog.builtins import builtin_test
from latlog.errors import ArithmeticTypeError, LatlogError
from latlog.program import Builtin, Call, Clause, Var
from latlog.reference import immediate_step
from latlog.terms import MAX_INT_DIGITS, Atom, Compound, Int, ListTerm, Symbol


def b(op, lhs, rhs):
    return Builtin(op, (lhs, rhs))


def eval_builtin(lit, bindings):
    """The bindings after the builtin, extended when `is` binds its left
    side, or None when it fails."""
    names = sorted(bindings)
    out = names + [lit.args[0].name] if (
        lit.op == "is" and isinstance(lit.args[0], Var)
        and lit.args[0].name not in bindings) else names
    clause = Clause(Call("out", tuple(map(Var, out))),
                    (Call("env", tuple(map(Var, names))), lit))
    step = immediate_step((clause,), frozenset({Atom("env", tuple(bindings[n] for n in names))}))
    if not step:
        return None
    (atom,) = step
    return dict(zip(out, atom.args))


def eval_arith(p, bindings):
    return eval_builtin(b("is", Var("Result"), p), bindings)["Result"].value


def test_is_binds_fresh_variable():
    expr = Compound("+", (Var("X"), Int(1)))
    out = eval_builtin(b("is", Var("Y"), expr), {"X": Int(2)})
    assert out == {"X": Int(2), "Y": Int(3)}


def test_is_checks_bound_variable():
    expr = Compound("*", (Int(2), Int(3)))
    env = {"Y": Int(6)}
    assert eval_builtin(b("is", Var("Y"), expr), env) == env
    assert eval_builtin(b("is", Var("Y"), expr), {"Y": Int(7)}) is None


def test_is_refuses_a_result_past_the_digit_bound():
    square = b("is", Var("Y"), Compound("*", (Var("X"), Var("X"))))
    # 10**k has k + 1 digits
    half = MAX_INT_DIGITS // 2
    out = eval_builtin(square, {"X": Int(10 ** (half - 1))})
    assert len(str(out["Y"].value)) == MAX_INT_DIGITS - 1
    for x in (10 ** half, -(10 ** half)):
        with pytest.raises(ArithmeticTypeError, match=f"more than {MAX_INT_DIGITS} digits"):
            eval_builtin(square, {"X": Int(x)})
    negated = b("is", Var("Y"), Compound("-", (Var("X"),)))
    with pytest.raises(ArithmeticTypeError):
        eval_builtin(negated, {"X": Int(10 ** MAX_INT_DIGITS)})


def test_arith_operators():
    env = {}
    assert eval_arith(Compound("-", (Int(3), Int(5))), env) == -2
    assert eval_arith(Compound("-", (Int(4),)), env) == -4
    assert eval_arith(Compound("min", (Int(3), Int(5))), env) == 3
    assert eval_arith(Compound("max", (Int(3), Int(5))), env) == 5
    nested = Compound("+", (Int(1), Compound("*", (Int(2), Int(3)))))
    assert eval_arith(nested, env) == 7


def test_equality_is_structural():
    assert eval_builtin(b("=", Var("X"), Var("Y")),
                        {"X": Symbol("a"), "Y": Symbol("a")}) is not None
    assert eval_builtin(b("=", Var("X"), Int(1)), {"X": Symbol("a")}) is None


@pytest.mark.parametrize("op,lhs,rhs,holds", [
    ("<", 1, 2, True), ("<", 2, 2, False),
    ("=<", 2, 2, True), (">", 3, 2, True),
    (">=", 2, 3, False),
])
def test_comparisons(op, lhs, rhs, holds):
    got = eval_builtin(b(op, Int(lhs), Int(rhs)), {})
    assert (got is not None) == holds


def test_arithmetic_rejects_non_integers():
    with pytest.raises(ArithmeticTypeError):
        eval_arith(Var("X"), {"X": Symbol("a")})
    with pytest.raises(ArithmeticTypeError):
        eval_builtin(b("<", Var("X"), Int(0)), {"X": Symbol("a")})
    with pytest.raises(ArithmeticTypeError):
        eval_builtin(b("is", Var("Y"), Compound("f", (Int(1), Int(2)))), {})


# `Y is A + c` with Y fresh compiles to one fused test; `A + B`, `A - c`
# and a bound Y take the general path. Both raise the same class and
# message, left operand first: (expression, bindings of its variables,
# message).
_X1 = Compound("+", (Var("X"), Int(1)))
_XZ = Compound("+", (Var("X"), Var("Z")))
_XM1 = Compound("-", (Var("X"), Int(1)))
_BIG = 10 ** MAX_INT_DIGITS - 1  # the largest integer a term may hold
IS_ERRORS = [
    (_X1, {"X": Symbol("a")}, "arithmetic on non-integer a"),
    (_XM1, {"X": Compound("f", (Int(1),))}, "arithmetic on non-integer f(1)"),
    (_XZ, {"X": Symbol("a"), "Z": Symbol("b")}, "arithmetic on non-integer a"),
    (_XZ, {"X": Int(1), "Z": ListTerm((Int(2),))}, "arithmetic on non-integer [2]"),
    (_XZ, {"X": Symbol("a"), "Z": Int(_BIG)}, "arithmetic on non-integer a"),
    (_X1, {"X": Int(_BIG)}, f"(X + 1) has more than {MAX_INT_DIGITS} digits"),
    (_XM1, {"X": Int(-_BIG)}, f"(X - 1) has more than {MAX_INT_DIGITS} digits"),
    (_XZ, {"X": Int(_BIG), "Z": Int(_BIG)},
     f"(X + Z) has more than {MAX_INT_DIGITS} digits"),
]


@pytest.mark.parametrize("expr,env,message", IS_ERRORS)
@pytest.mark.parametrize("bound", [False, True], ids=["fresh", "bound"])
def test_is_raises_the_same_error_with_the_left_side_fresh_or_bound(expr, env, message, bound):
    env = {**env, "Y": Int(0)} if bound else env
    with pytest.raises(ArithmeticTypeError) as err:
        eval_builtin(b("is", Var("Y"), expr), env)
    assert type(err.value) is ArithmeticTypeError
    assert str(err.value) == message


def test_only_a_fresh_variable_plus_a_constant_is_fused():
    def compiled(lit, bound):
        slots = {name: i for i, name in enumerate(bound)}
        template = [None] * len(slots)

        def new_slot():
            template.append(None)
            return len(template) - 1
        return builtin_test(lit, slots, new_slot).__qualname__

    assert compiled(b("is", Var("Y"), _X1), "XZ").startswith("_plus_constant.")
    assert not compiled(b("is", Var("Y"), _X1), "XYZ").startswith("_plus_constant.")
    general = [_XZ, _XM1, Compound("+", (Int(1), Var("X"))), Compound("*", (Var("X"), Int(2))),
               Compound("+", (Var("X"), _X1)), Compound("+", (Var("W"), Int(1)))]
    for expr in general:
        assert not compiled(b("is", Var("Y"), expr), "XZ").startswith("_plus_constant.")


def test_fused_is_computes_the_general_paths_value():
    for x, z in [(3, 4), (-7, 2), (0, 0), (_BIG - 1, 1), (-_BIG + 1, -1)]:
        env = {"X": Int(x), "Z": Int(z)}
        assert eval_builtin(b("is", Var("Y"), _X1), env)["Y"] == Int(x + 1)
        assert eval_builtin(b("is", Var("Y"), _XM1), env)["Y"] == Int(x - 1)
        assert eval_builtin(b("is", Var("Y"), _XZ), env)["Y"] == Int(x + z)
        assert eval_builtin(b("is", Var("Y"), _XZ), {**env, "Y": Int(x + z)}) is not None
        assert eval_builtin(b("is", Var("Y"), _XZ), {**env, "Y": Int(x + z + 1)}) is None
    # the variable being bound is not yet readable on the right
    with pytest.raises(LatlogError, match="^unbound variable Y$"):
        eval_builtin(b("is", Var("Y"), Compound("+", (Var("Y"), Int(1)))), {})
