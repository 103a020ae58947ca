"""Bottom-up evaluation of definite logic programs with lattice-based
answer subsumption: a reference post-processing semantics, the greedy
per-step strategy tabling engines actually use, and a checker for the
condition under which the two agree.
"""

from .checker import (
    CheckReport,
    CheckStrategy,
    DiffReport,
    UniverseResult,
    atom_universe,
    check_greedy_soundness,
    diff_semantics,
)
from .errors import (
    ArithmeticTypeError,
    ArityError,
    DomainError,
    InternalInconsistencyError,
    JoinUndefinedError,
    LatlogError,
    LatticeError,
    LatticeLawViolationError,
    ParseError,
    RangeRestrictionError,
    UnsupportedModeError,
)
from .greedy import greedy_fixpoint, greedy_step, stratified_greedy_semantics
from .lattice import (
    BOTTOM,
    AnswerTable,
    PredSpec,
    aggregate_atoms,
    build_specs,
    empty_table,
    join_values,
    leq_values,
    singleton_table,
    table_atoms,
    table_join,
    table_leq,
    value_to_str,
)
from .parser import parse_program, program_to_text
from .program import Program
from .reference import (
    DEFAULT_FUEL,
    EvalOutcome,
    FixpointResult,
    StratumResult,
    aggregate_model,
    close_answer_groups,
    immediate_step,
    join_extended_step,
    kleene_fixpoint,
    stratified_reference_semantics,
)
from .stratify import Stratification, stratify
from .terms import Atom, Compound, Int, ListTerm, Symbol, atom_sorted, atom_to_str

__version__ = "0.1.0"

__all__ = [
    "ArithmeticTypeError", "ArityError", "Atom", "AnswerTable", "BOTTOM",
    "CheckReport", "CheckStrategy", "Compound", "DEFAULT_FUEL", "DiffReport",
    "DomainError", "EvalOutcome", "FixpointResult", "Int",
    "InternalInconsistencyError", "JoinUndefinedError", "LatlogError",
    "LatticeError", "LatticeLawViolationError", "ListTerm", "ParseError",
    "PredSpec", "Program", "RangeRestrictionError", "Stratification",
    "StratumResult", "Symbol", "UniverseResult", "UnsupportedModeError",
    "aggregate_atoms", "aggregate_model", "atom_sorted", "atom_to_str",
    "atom_universe", "build_specs",
    "check_greedy_soundness", "close_answer_groups", "diff_semantics",
    "empty_table", "greedy_fixpoint", "greedy_step", "immediate_step",
    "join_extended_step", "join_values", "kleene_fixpoint", "leq_values",
    "parse_program", "program_to_text", "singleton_table",
    "stratified_greedy_semantics", "stratified_reference_semantics",
    "stratify", "table_atoms", "table_join", "table_leq", "value_to_str",
]
