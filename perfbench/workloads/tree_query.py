"""``tree_query``: datalog and monadic datalog over seeded random trees.

Each request is one ``Session.query`` over a seeded ``scaling_tree`` of
300-1500 nodes with one of four programs drawn by a seeded mix:

* recursive descendant closure (semi-naive engine);
* same-generation (semi-naive engine, the join-heavy one);
* ``chain_program(40)`` (monadic, TMNF ground pipeline + LTUR);
* ``wide_program(24)`` (monadic, ground pipeline).

Seeds change the trees, not the shape of the mix: every block of four
requests runs each program once, and each program's 32 tree sizes are the
first 32 points of the van der Corput sequence rotated by a seeded offset —
an even grid over 300-1500 nodes in every seed, and any prefix of it is
spread evenly too.

The trees come from a pool of 128 generated before timing.  Requests walk
the pool round and round; a 30 s run makes two to three passes.  The pool
is large enough that the same-generation work of one seed's trees, which
dominates the mean, has quartiles 4% apart over seeds 1-10 (a pool of 64
left them 9% apart and moved the mean latency with them).  Every
evaluator's fixpoint cache holds 8 entries while 31 other trees pass
through each program before a tree recurs, so every fixpoint lookup misses.

Checks, on a seeded sample of requests and after the timed window: monadic
answers equal the same program under ``EngineOptions(force_generic=True)``
(Theorem 2.4's pipeline against the generic engine), descendant answers
equal a direct walk of the tree, same-generation answers equal the pairs of
nodes at equal depth.
"""

from __future__ import annotations

import random
from typing import Dict, List, Set, Tuple

from perfbench.layers import add_cache, session_counters

from repro import EngineOptions, Session
from repro.bench import chain_program, scaling_tree, wide_program
from repro.datalog import parse_program

POOL = 128
SIZES = (300, 1500)
CHECK_SHARE = 0.03

DESCENDANT = parse_program(
    """
    desc(X, Y) :- child(X, Y).
    desc(X, Y) :- desc(X, Z), child(Z, Y).
    """
)
SAME_GENERATION = parse_program(
    """
    sg(X, Y) :- child(P, X), child(P, Y).
    sg(X, Y) :- child(XP, X), sg(XP, YP), child(YP, Y).
    """
)
#: (name, program, backend, answer predicate)
PROGRAMS = (
    ("descendant", DESCENDANT, "semi-naive", "desc"),
    ("same_generation", SAME_GENERATION, "semi-naive", "sg"),
    ("chain40", chain_program(40), "monadic", "p39"),
    ("wide24", wide_program(24), "monadic", "hit"),
)


def radical_inverse(k: int) -> float:
    """The base-2 van der Corput sequence: every prefix spreads over [0, 1)."""
    value, scale = 0.0, 0.5
    while k:
        k, bit = divmod(k, 2)
        value += bit * scale
        scale /= 2
    return value


def descendant_pairs(document) -> Set[Tuple[int, int]]:
    pairs = set()
    for node in document:
        ancestor = node.parent
        while ancestor is not None:
            pairs.add((ancestor.preorder_index, node.preorder_index))
            ancestor = ancestor.parent
    return pairs


def same_depth_pairs(document) -> Set[Tuple[int, int]]:
    by_depth: Dict[int, List[int]] = {}
    for node in document:
        depth = node.depth()
        if depth:
            by_depth.setdefault(depth, []).append(node.preorder_index)
    return {(x, y) for level in by_depth.values() for x in level for y in level}


class Workload:
    name = "tree_query"

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"tree_query/{seed}")
        offsets = [rng.random() for _ in PROGRAMS]
        self.requests = []
        for block in range(POOL // len(PROGRAMS)):
            for choice in rng.sample(range(len(PROGRAMS)), len(PROGRAMS)):
                share = (radical_inverse(block) + offsets[choice]) % 1.0
                size = SIZES[0] + round(share * (SIZES[1] - SIZES[0]))
                tree = scaling_tree(size, seed=rng.randrange(2 ** 31))
                self.requests.append((tree, choice))
        self.check_rng = random.Random(f"tree_query/{seed}/checks")
        sizes = [len(tree) for tree, _ in self.requests]
        self.summary = {
            "trees": POOL,
            "tree_nodes_min": min(sizes),
            "tree_nodes_mean": round(sum(sizes) / POOL, 1),
            "tree_nodes_max": max(sizes),
            "program_mix": {
                name: sum(1 for _, choice in self.requests if choice == position)
                for position, (name, _, _, _) in enumerate(PROGRAMS)
            },
        }
        self.problems: List[str] = []
        self.sampled: List[Tuple[int, object]] = []

    def setup(self) -> None:
        self.session = Session()
        # Compile every program now; the evaluators are kept so counters
        # can be read without another (analysis-cache-hitting) lookup.
        self.evaluators = [
            (backend, self.session.engine(program, backend))
            for _, program, backend, _ in PROGRAMS
        ]

    def between(self, index: int) -> None:
        pass

    def request(self, index: int):
        tree, choice = self.requests[index % POOL]
        _, program, backend, _ = PROGRAMS[choice]
        return self.session.query(program, tree, backend)

    def check(self, index: int, output) -> None:
        if self.check_rng.random() < CHECK_SHARE:
            self.sampled.append((index, output))

    def final_checks(self) -> None:
        generic = Session(EngineOptions(force_generic=True))
        for index, output in self.sampled:
            tree, choice = self.requests[index % POOL]
            name, program, backend, answer = PROGRAMS[choice]
            if backend == "monadic":
                got = {node.preorder_index for node in output.nodes(answer)}
                expected = {
                    node.preorder_index
                    for node in generic.query(program, tree, backend).nodes(answer)
                }
            elif name == "descendant":
                got, expected = set(output.tuples(answer)), descendant_pairs(tree)
            else:
                got, expected = set(output.tuples(answer)), same_depth_pairs(tree)
            if got != expected:
                self.problems.append(
                    f"request {index} ({name}, {len(tree)} nodes): "
                    f"{len(got)} answers, expected {len(expected)}"
                )
        self.summary["checked_requests"] = len(self.sampled)
        self.sampled.clear()

    def counters(self) -> Dict[str, float]:
        counts = session_counters(self.session)
        for backend, evaluator in self.evaluators:
            prefix = (
                "datalog.fixpoint_cache" if backend == "semi-naive" else "mdatalog.ground_cache"
            )
            add_cache(counts, prefix, evaluator.fixpoint_cache_info())
        return counts
