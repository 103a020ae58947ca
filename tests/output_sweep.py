"""Run a fixed set of programs through the CLI and record what each prints.

    PYTHONPATH=src python tests/output_sweep.py OUT.json
    python tests/output_sweep.py --compare A.json B.json

The programs are the corpus, the benchmark's workload programs for two
seeds (read through `bench/workloads.generate`), the seeded DAG
programs of `conftest.random_dag_program` for each lattice at seeds
0-2, the edge programs below, and conftest's trace-check programs.
Each runs under `eval` on both engines, `diff --json`, and the three
check strategies, by calling `latlog.cli.main` in-process. Beside them,
`MALFORMED` seeded character-level mutations of the corpus run under
`strata`, so that every parse error's text and position is recorded. The
benchmark's programs run at the benchmark's fuel, the edge programs
in `EDGE_FUEL` at theirs, and the others at fuel 200, as the goldens
do. The JSON maps "program argv" to [exit code, stdout, stderr]; an
exception escaping `main` is recorded as exit code null and its
one-line description.

Sweeps taken at two commits, or at two values of PYTHONHASHSEED, show
every output a change moved: `--compare` lists the runs that differ
and exits 1 when there are any.
"""

import argparse
import contextlib
import io
import json
import pathlib
import random
import sys
import tempfile
import traceback

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "bench")]

BENCH_SEEDS = (907, 2026)
FUEL = "200"
DAG_SEEDS = (0, 1, 2)

COMMANDS = (
    ("eval", "--engine", "reference"),
    ("eval", "--engine", "greedy"),
    ("diff", "--json"),
    ("check",),
    ("check", "--strategy", "sampled"),
    ("check", "--strategy", "trace"),
)

# malformed programs: corpus files with one to three characters deleted,
# inserted or replaced, drawn from MALFORMED_CHARS
MALFORMED = 200
MALFORMED_SEED = 23
MALFORMED_CHARS = "()[],.:-=<>+*/_% \t\r\naX09?$!'\""

# the largest integer a term may hold: latlog.terms.MAX_INT_DIGITS nines
NINES = "9" * 4000

# Join tables, values outside a lattice's domain, and rule errors
# whose message could depend on the order atoms are met in.
EDGE_PROGRAMS = {
    "partial_join_total_fold.pl":
        "j(a,b,c).\n:- table p(lattice(j/3)).\np(a). p(b). p(c).\n",
    "partial_join_sorted_fold.pl":
        "j(b,c,a).\n:- table p(lattice(j/3)).\np(a). p(b). p(c).\n",
    "join_outside_carrier_lone.pl":
        "j(a,b,b).\n:- table p(lattice(j/3)).\np(a).\np(c).\n",
    "join_outside_carrier.pl":
        "j(a,b,b).\n:- table p(lattice(j/3)).\np(a). p(b). p(z). p(y).\n",
    "builtin_min_symbols.pl":
        ":- table p(index,lattice(min/3),all).\np(k,a,x). p(k,b,y). p(k,3,z).\n",
    "builtin_min_lone_symbol.pl":
        ":- table p(index,lattice(min/3)).\np(a,foo).\n",
    "builtin_min_diverging.pl":
        ":- table p(index,lattice(min/3)).\n"
        "p(a,foo). p(b,0). p(b,X) :- p(b,Y), X is Y+1.\n"
        "p(a,X) :- p(b,X), X = 5.\n",
    "max_inf_symbols.pl":
        ":- table p(lattice(max_inf/3)).\np(1). p(foo). p(bar).\n",
    "max_inf_before_arithmetic.pl":
        ":- table p(index,lattice(max_inf/3)).\n"
        "p(a,foo). p(b,X) :- p(a,Y), X is Y+1.\n",
    "arithmetic_on_symbols.pl":
        "p(a). p(b). p(1).\nq(X) :- p(Y), X is Y+1.\n",
    "arithmetic_on_a_collection.pl":
        ":- table p(all).\np(2). p(foo).\np(X) :- p(Y), X is Y*Y.\n",
    "lub_table_four_keys.pl":
        "lub(a,b,c). lub(a,c,c). lub(a,d,d). lub(b,c,c). lub(b,d,d). lub(c,d,d).\n"
        ":- table p(index,lattice(lub/3)).\n"
        "p(k1,a). p(k1,b). p(k2,a). p(k2,b). p(k3,a). p(k3,b). p(k4,a). p(k4,b).\n",
    # terms of every kind: min, max and all over integers, symbols,
    # compounds of two arities and lists of three lengths; compound and
    # list keys; compound and list patterns in bodies and heads; a join
    # table whose row holds an operator term
    "mixed_kinds.pl":
        ":- table lo(index,min).\n:- table hi(index,max).\n:- table every(index,all).\n"
        "v(k,3). v(k,-2). v(k,b). v(k,f(1)). v(k,f(1,2)). v(k,f(a)). v(j,[]). v(j,[1,2]).\n"
        "v(j,[3]). v(j,g(0)). v(j,a). v(j,[a,b,c]).\n"
        "lo(K,X) :- v(K,X).\nhi(K,X) :- v(K,X).\nevery(K,X) :- v(K,X).\n",
    "compound_keys.pl":
        ":- table d(index,min,max).\n"
        "e(f(a),g(1),3). e(f(a),g(1),f(2)). e([a,b],h(x,y),5). e([a],h(x,y),[1]).\n"
        "e([a,b],h(x,y),[]). e(f(a),g(2),b).\n"
        "d(pair(X,Y),C,C) :- e(X,Y,C).\n",
    "compound_patterns.pl":
        ":- table best(index,max).\n:- table kin(index,all).\n"
        "edge(f(a,1),[x,y]). edge(f(b,2),[x]). edge(g(a),[y,z,w]). edge(f(a,3),[z]).\n"
        "edge(f(c,0),[]).\n"
        "best(s(X),[N,Y]) :- edge(f(X,N),[Y]).\n"
        "best(s(X),[N,Y,Z]) :- edge(f(X,N),[Y,Z]).\n"
        "kin(X,f(Y)) :- edge(g(X),[Y,_,W]), W = w.\n"
        "kin(X,[N]) :- best(s(X),[N,_]).\n",
    "operator_join_row.pl":
        "j(1+2,a,a).\n:- table p(lattice(j/3)).\np(a). p(1+2).\n",
    # each `_` a variable of its own: q(1) and q(2) both hold
    "anonymous_variables.pl":
        "p(1,a,b). p(2,c,c).\nq(X) :- p(X,_,_).\n",
    # products whose parts sit between index positions: a list output
    # under all, and parts under po, max_inf and a user join
    "product_between_indexes.pl":
        ":- table p(min,index,all,index,max).\n"
        "e(k,j,3,[a,b],1). e(k,j,2,c,5). e(k,j,4,[],2). e(m,n,1,[x,[y]],0). e(m,n,1,z,0).\n"
        "p(N,K,S,J,X) :- e(K,J,N,S,X).\n"
        "p(N,J,S,K,X) :- p(N,K,S,J,X), N < 3.\n",
    "product_of_po_max_inf_join.pl":
        "o(lo,mid). o(mid,hi). o(lo,hi).\nj(a,b,c). j(a,c,c). j(b,c,c).\n"
        ":- table p(po(o/2),index,lattice(max_inf/3),index,lattice(j/3)).\n"
        "p(lo,k,1,x,a). p(mid,k,infty,x,b). p(hi,k,3,x,a). p([lo,alt],k2,2,y,c).\n"
        "p(alt,K,N,y,V) :- p(hi,K,N,x,V).\n",
    # at fuel 5 a trace subset's collapse is not among the trace subsets
    "cyclic_minmax.pl":
        ":- table p(index,index,min,max).\ne(a,b). e(b,a).\n"
        "p(X,Y,1,1) :- e(X,Y).\n"
        "p(X,Y,A,B) :- p(X,Z,A1,B1), e(Z,Y), A is A1+1, B is B1+1.\n",
    # exhaustive checks of 13-16 atoms, under the default --max-atoms 16:
    # a min DAG and a (min,max) chain that the key-local pass decides,
    # and an all program, whose read-back lists send it to the per-mask loop
    "min_dag_14_atoms.pl":
        ":- table p(index,index,min).\n"
        "e(n0,n1,hi). e(n0,n2,mid). e(n0,n3,lo). e(n1,n2,hi). e(n2,n3,lo).\n"
        "p(X,Y,1) :- e(X,Y,L).\np(X,Y,D) :- p(X,Z,D1), p(Z,Y,D2), D is D1+D2.\n",
    "minmax_chain_14_atoms.pl":
        ":- table p(index,index,min,max).\ne(n0,n1). e(n0,n2). e(n1,n2). e(n2,n3).\n"
        "p(X,Y,1,1) :- e(X,Y).\np(X,Y,D,M) :- p(X,Z,D1,M1), e(Z,Y), D is D1+1, M is M1+1.\n",
    "all_paths_15_atoms.pl":
        ":- table p(index,index,all).\ne(n0,n1). e(n0,n2). e(n1,n2). e(n2,n3). e(n0,n3).\n"
        "p(X,Y,X) :- e(X,Y).\np(X,Y,Z) :- p(X,Z,W), e(Z,Y).\n",
    # (min,max) products over compounds and lists, and over integers
    # mixed with symbols, whose joins compare through term_key and
    # directly; the reference closes each group under the product join
    "minmax_compound_values.pl":
        ":- table p(index,min,max).\n"
        "v(k,f(1),f(2)). v(k,f(0,1),[a]). v(k,[1,2],g(x)). v(j,g(a),h(1,2)). v(j,[x],[f(1)]).\n"
        "p(K,A,B) :- v(K,A,B).\n",
    "minmax_ints_and_symbols.pl":
        ":- table p(index,min,max).\n"
        "v(k,3,a). v(k,b,2). v(k,-1,c). v(k,a,5). v(j,x,1). v(j,0,y). v(j,2,2).\n"
        "p(K,A,B) :- v(K,A,B).\n",
    # `X is Y+1`, `X is Y+Z` and `X is Y-1`, each on a non-integer operand
    # and on a result past the digit bound
    "is_plus_constant_non_integer.pl":
        "p(1). p(f(a)).\nq(X) :- p(Y), X is Y+1.\n",
    "is_plus_variable_non_integer.pl":
        "p(1,a). p(b,c).\nq(X) :- p(Y,Z), X is Y+Z.\n",
    "is_minus_constant_non_integer.pl":
        "p(2). p([1]).\nq(X) :- p(Y), X is Y-1.\n",
    "is_plus_constant_too_long.pl":
        f"p(1). p({NINES}).\nq(X) :- p(Y), X is Y+1.\n",
    "is_plus_variable_too_long.pl":
        f"p(1,2). p({NINES},1).\nq(X) :- p(Y,Z), X is Y+Z.\n",
    "is_minus_constant_too_long.pl":
        f"p(1). p(-{NINES}).\nq(X) :- p(Y), X is Y-1.\n",
}
# edge programs run at a fuel of their own, not at FUEL
EDGE_FUEL = {"cyclic_minmax.pl": "5"}


def programs():
    """{file name: (program text, fuel)}, in a fixed order."""
    import workloads
    from conftest import (BENCH_MIN, CORPUS, CORPUS_FILES, DAG_PROGRAMS, POOL_RAISE,
                          THREE_STRATA, program_to_text, random_dag_program)

    out = {name: ((CORPUS / name).read_text(encoding="utf-8"), FUEL) for name in CORPUS_FILES}
    for workload in workloads.WORKLOADS:
        for seed in BENCH_SEEDS:
            for name, (prog, _) in workloads.generate(workload, seed).items():
                out[f"{workload}_{seed}_{name}"] = (prog.text(), workloads.FUEL)
    for lattice in DAG_PROGRAMS:
        for seed in DAG_SEEDS:
            text = program_to_text(random_dag_program(lattice, seed))
            out[f"dag_{lattice}_{seed}.pl"] = (text, FUEL)
    out.update((name, (text, EDGE_FUEL.get(name, FUEL))) for name, text in EDGE_PROGRAMS.items())
    # trace checks that read lower strata's answers, step a clause that
    # raises in the pool directly, and run on the benchmark's DAG shape
    out.update({"three_strata.pl": (THREE_STRATA, FUEL), "pool_raise.pl": (POOL_RAISE, FUEL),
                "bench_min_dag12.pl": (BENCH_MIN, FUEL)})
    return out


def malformed_programs():
    """{file name: program text} of the MALFORMED mutated programs."""
    from conftest import CORPUS, CORPUS_FILES

    rng = random.Random(MALFORMED_SEED)
    out = {}
    for i in range(MALFORMED):
        name = rng.choice(CORPUS_FILES)
        text = (CORPUS / name).read_text(encoding="utf-8")
        for _ in range(rng.randint(1, 3)):
            at, char = rng.randrange(len(text)), rng.choice(MALFORMED_CHARS)
            text = rng.choice((text[:at] + text[at + 1:],          # delete
                               text[:at] + char + text[at:],       # insert
                               text[:at] + char + text[at + 1:]))  # replace
        out[f"malformed_{i:03d}_{name}"] = text
    return out


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    from latlog import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except (Exception, SystemExit) as exc:  # a traceback is an outcome worth recording
        code = None
        err.write(traceback.format_exception_only(type(exc), exc)[-1])
    return code, out.getvalue(), err.getvalue()


def sweep():
    results = {}
    with tempfile.TemporaryDirectory() as workdir:
        def run(name, text, commands, options):
            path = pathlib.Path(workdir, name)
            path.write_text(text, encoding="utf-8")
            for command in commands:
                code, out, err = run_cli([command[0], str(path), *options, *command[1:]])
                results[f"{name} {' '.join(command)}"] = [
                    code, out.replace(workdir, "<dir>"), err.replace(workdir, "<dir>")]

        for name, (text, fuel) in programs().items():
            run(name, text, COMMANDS, ("--fuel", fuel))
        for name, text in malformed_programs().items():
            run(name, text, (("strata",),), ())
    return results


def compare(a, b):
    """The keys whose runs differ between two sweeps, or that only one has."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", nargs="?", help="where to write the sweep's JSON")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="list the runs that differ between two sweeps")
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(pathlib.Path(p).read_text(encoding="utf-8")) for p in args.compare)
        differ = compare(a, b)
        for key in differ:
            print(key)
            print(f"  {args.compare[0]}: {a.get(key)!r}")
            print(f"  {args.compare[1]}: {b.get(key)!r}")
        print(f"{len(differ)} of {len(a.keys() | b.keys())} runs differ")
        return 1 if differ else 0
    if not args.out:
        ap.error("give an output file, or --compare A B")
    results = sweep()
    pathlib.Path(args.out).write_text(
        json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(results)} runs written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
