"""Command-line frontend.

Four subcommands over a program file: `eval` runs one engine and
prints the answer set, `check` tests the greedy soundness condition,
`diff` runs both engines and compares them, `strata` prints the
predicate stratification. Every report also has a JSON form (--json).

Exit codes: 0 success / equal / no violation; 1 violation or
difference found; 2 divergence or an inconclusive check; 3 parse or
mode errors (including arithmetic misuse); 4 lattice-law,
join-undefined, and internal errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checker import (
    MAX_SUBSET,
    NO_VIOLATION,
    VIOLATION,
    CheckStrategy,
    check_greedy_soundness,
    diff_semantics,
)
from .errors import LatlogError, ParseError
from .greedy import stratified_greedy_semantics
from .lattice import sorted_items, value_to_str
from .parser import parse_program
from .reference import DEFAULT_FUEL, stratified_reference_semantics
from .stratify import stratify
from .terms import atom_sorted, atom_to_str


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="latlog",
        description="Bottom-up evaluation of logic programs with "
                    "lattice-based answer subsumption.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, strategy=False):
        p.add_argument("file", help="program file")
        p.add_argument("--fuel", type=_positive_int, default=DEFAULT_FUEL,
                       help=f"step and size budget per stratum (default {DEFAULT_FUEL})")
        p.add_argument("--json", action="store_true", help="JSON report")
        if strategy:
            defaults = CheckStrategy._field_defaults
            p.add_argument("--strategy",
                           choices=("exhaustive", "sampled", "trace"),
                           default="exhaustive")
            p.add_argument("--max-atoms", type=_max_atoms, default=defaults["max_atoms"],
                           help="universe bound for exhaustive checks (1..24)")
            p.add_argument("--samples", type=_positive_int, default=defaults["samples"])
            p.add_argument("--seed", type=int, default=defaults["seed"])

    pe = sub.add_parser("eval", help="run one engine, print the answers")
    common(pe)
    pe.add_argument("--engine", choices=("reference", "greedy"), default="greedy")

    pc = sub.add_parser("check", help="test the greedy soundness condition")
    common(pc, strategy=True)

    pd = sub.add_parser("diff", help="run both engines and compare")
    common(pd)

    ps = sub.add_parser("strata", help="print the predicate strata")
    common(ps)
    return ap


def _positive_int(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return n


def _max_atoms(text):
    n = int(text)
    if not 1 <= n <= 24:
        raise argparse.ArgumentTypeError("must be in 1..24")
    return n


# --- rendering ------------------------------------------------------------


def _table_lines(table, indent="  "):
    return [f"{indent}{atom_to_str(key)} -> {value_to_str(value)}"
            for key, value in sorted_items(table)]


def _table_json(table):
    return {atom_to_str(key): value_to_str(value) for key, value in sorted_items(table)}


def _answer_strs(atoms):
    return [atom_to_str(a) for a in atom_sorted(atoms)]


def _divergence_line(outcome):
    preds = ", ".join(outcome.diverged_stratum)
    steps = outcome.strata[-1].steps
    return f"diverged: fuel exhausted after {steps} steps (stratum: {preds})"


def _outcome_summary(outcome):
    if outcome.converged:
        return "converged: " + ", ".join(_answer_strs(outcome.answers))
    return _divergence_line(outcome)


def _outcome_json(outcome):
    data = {
        "converged": outcome.converged,
        "steps": outcome.steps,
        "answers": _answer_strs(outcome.answers),
        "table": _table_json(outcome.table),
    }
    if not outcome.converged:
        data["diverged_stratum"] = list(outcome.diverged_stratum)
    return data


def _emit(lines):
    for line in lines:
        print(line)


# --- subcommands ------------------------------------------------------------


def _cmd_eval(args, program):
    if args.engine == "reference":
        outcome = stratified_reference_semantics(program, args.fuel)
    else:
        outcome = stratified_greedy_semantics(program, args.fuel)
    if args.json:
        data = {"status": "ok", "command": "eval", "engine": args.engine}
        data.update(_outcome_json(outcome))
        print(json.dumps(data, indent=2))
    elif outcome.converged:
        _emit(_answer_strs(outcome.answers))
    else:
        print(_divergence_line(outcome))
    return 0 if outcome.converged else 2


def _strategy_str(strategy):
    if strategy.kind == "exhaustive":
        return f"exhaustive (max-atoms={strategy.max_atoms})"
    if strategy.kind == "sampled":
        return (f"sampled (samples={strategy.samples}, seed={strategy.seed}, "
                f"max-subset={MAX_SUBSET})")
    return "trace"


def _cmd_check(args, program):
    strategy = CheckStrategy(args.strategy, max_atoms=args.max_atoms,
                             samples=args.samples, seed=args.seed)
    report = check_greedy_soundness(program, strategy, args.fuel)
    if args.json:
        data = {
            "status": "ok",
            "command": "check",
            "condition": report.condition,
            "strategy": {"kind": strategy.kind, "max_atoms": strategy.max_atoms,
                         "samples": strategy.samples, "seed": strategy.seed,
                         "max_subset": MAX_SUBSET},
            "universe": {"complete": report.universe.complete,
                         "atoms": _answer_strs(report.universe.atoms)},
            "verdict": report.verdict,
            "tested": report.tested,
        }
        if report.verdict == VIOLATION:
            data["witness"] = _answer_strs(report.witness)
            data["lhs"] = _table_json(report.lhs)
            data["rhs"] = _table_json(report.rhs)
        if report.reason:
            data["reason"] = report.reason
        print(json.dumps(data, indent=2))
    else:
        size = len(report.universe.atoms)
        state = "complete" if report.universe.complete else "partial"
        lines = [
            f"condition: {report.condition}",
            f"strategy: {_strategy_str(strategy)}",
            f"universe: {size} atoms, {state}",
            f"verdict: {report.verdict}",
            f"tested: {report.tested}",
        ]
        if report.verdict == VIOLATION:
            witness = ", ".join(_answer_strs(report.witness)) or "(empty)"
            lines.append(f"witness: {witness}")
            lines.append("lhs:")
            lines.extend(_table_lines(report.lhs))
            lines.append("rhs:")
            lines.extend(_table_lines(report.rhs))
        if report.reason:
            lines.append(f"reason: {report.reason}")
        _emit(lines)
    if report.verdict == VIOLATION:
        return 1
    return 0 if report.verdict == NO_VIOLATION else 2


_DIFF_ROW_CAP = 20


def _cmd_diff(args, program):
    report = diff_semantics(program, args.fuel)
    rows = [(atom_to_str((pred, inputs)), value_to_str(rv), value_to_str(gv))
            for pred, inputs, rv, gv in report.per_key_diffs]
    if args.json:
        data = {
            "status": "ok",
            "command": "diff",
            "equal": report.equal,
            "reference": _outcome_json(report.reference),
            "greedy": _outcome_json(report.greedy),
            "diffs": [{"key": k, "reference": r, "greedy": g} for k, r, g in rows],
        }
        print(json.dumps(data, indent=2))
    else:
        lines = [
            "reference: " + _outcome_summary(report.reference),
            "greedy: " + _outcome_summary(report.greedy),
        ]
        for k, r, g in rows[:_DIFF_ROW_CAP]:
            lines.append(f"diff {k}: reference {r}, greedy {g}")
        if len(rows) > _DIFF_ROW_CAP:
            lines.append(f"(and {len(rows) - _DIFF_ROW_CAP} more rows)")
        lines.append("result: " + ("equal" if report.equal else "unequal"))
        _emit(lines)
    if not (report.reference.converged and report.greedy.converged):
        return 2
    return 0 if report.equal else 1


def _cmd_strata(args, program):
    strat = stratify(program)
    if args.json:
        data = {
            "status": "ok",
            "command": "strata",
            "strata": [sorted(s) for s in strat.strata],
            "edges": sorted(list(e) for e in strat.edges),
        }
        print(json.dumps(data, indent=2))
    else:
        _emit(f"stratum {i}: " + ", ".join(sorted(s))
              for i, s in enumerate(strat.strata))
    return 0


# --- driver -----------------------------------------------------------------


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        try:
            with open(args.file, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ParseError(f"cannot read {args.file}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"cannot read {args.file}: {exc}") from exc
        program = parse_program(text)
        handler = {"eval": _cmd_eval, "check": _cmd_check,
                   "diff": _cmd_diff, "strata": _cmd_strata}[args.command]
        return handler(args, program)
    except LatlogError as exc:
        if getattr(args, "json", False):
            print(json.dumps({"status": "error", "kind": exc.kind, "detail": str(exc)}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
