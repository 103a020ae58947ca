"""Bottom-up evaluation of definite logic programs with lattice-based
answer subsumption: a reference post-processing semantics, the greedy
per-step strategy tabling engines actually use, and a checker for the
condition under which the two agree.

The package exports the names the README documents; everything else
lives in its module.
"""

from .checker import CheckStrategy, check_greedy_soundness, diff_semantics
from .errors import LatlogError
from .greedy import stratified_greedy_semantics
from .parser import parse_program
from .reference import stratified_reference_semantics
from .terms import atom_to_str

__version__ = "0.1.0"

__all__ = [
    "CheckStrategy", "LatlogError", "atom_to_str", "check_greedy_soundness",
    "diff_semantics", "parse_program", "stratified_greedy_semantics",
    "stratified_reference_semantics",
]
