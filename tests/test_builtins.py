import pytest

from latlog.builtins import eval_arith, eval_builtin
from latlog.errors import ArithmeticTypeError
from latlog.program import Builtin, Var
from latlog.terms import MAX_INT_DIGITS, Compound, Int, Symbol


def b(op, lhs, rhs):
    return Builtin(op, (lhs, rhs))


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
