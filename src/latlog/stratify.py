"""Predicate dependency analysis.

A predicate depends on every predicate called in the body of one of its
clauses. Strata are the strongly connected components of that relation,
returned in a topological order: a stratum is evaluated only after the
strata it depends on. Ties are broken by the least predicate name, so
the order is deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .program import Call, Program


@dataclass(frozen=True)
class Stratification:
    strata: tuple   # tuple[frozenset[str], ...] in evaluation order
    edges: frozenset  # (i, j): strata[i] is used by strata[j], i < j


def dependency_graph(program: Program):
    deps = {p: set() for p in program.predicates()}
    for c in program.clauses:
        for lit in c.body:
            if isinstance(lit, Call):
                deps[c.head.pred].add(lit.pred)
    return deps


def _tarjan(graph):
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    for root in sorted(graph):
        if root in index:
            continue
        work = [(root, iter(sorted(graph[root])))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == node:
                        break
                sccs.append(frozenset(comp))
    return sccs


def stratify(program: Program) -> Stratification:
    deps = dependency_graph(program)
    sccs = _tarjan(deps)
    comp_of = {}
    for i, comp in enumerate(sccs):
        for p in comp:
            comp_of[p] = i

    # edges point from a defining component to the components using it
    succs = {i: set() for i in range(len(sccs))}
    indegree = {i: 0 for i in range(len(sccs))}
    for p, qs in deps.items():
        for q in qs:
            a, b = comp_of[q], comp_of[p]
            if a != b and b not in succs[a]:
                succs[a].add(b)
                indegree[b] += 1

    ready = [(min(sccs[i]), i) for i in range(len(sccs)) if indegree[i] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        _, i = heapq.heappop(ready)
        order.append(i)
        for j in sorted(succs[i]):
            indegree[j] -= 1
            if indegree[j] == 0:
                heapq.heappush(ready, (min(sccs[j]), j))

    position = {old: new for new, old in enumerate(order)}
    strata = tuple(sccs[i] for i in order)
    edges = frozenset((position[a], position[b])
                      for a in succs for b in succs[a])
    return Stratification(strata, edges)


def stratum_clauses(program: Program, preds) -> tuple:
    return tuple(c for c in program.clauses if c.head.pred in preds)
