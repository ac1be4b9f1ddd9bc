"""Repo hygiene gates.

Six classes of slip have already cost a PR each:

* ``id()`` used as a cache key over objects the cache does not keep
  alive — CPython recycles addresses, so a dead object's key can serve a
  stranger's cached value (the pre-PR-5 extractor cache bug).  Every
  ``id(...)`` call in ``src/`` must appear in the allowlist below with a
  written justification of why *that* use cannot dangle.
* unlocked writes to shared ``self._*`` caches — PR 5 found several
  session-scale memos mutated without their lock under concurrent server
  load.  Every subscript write to a ``self._*`` mapping outside a
  ``with self._lock``-style block must appear in
  ``ALLOWED_UNLOCKED_WRITES`` with the reason that structure cannot be
  shared across threads.
* module-level caches that shadow a cache with an owner — memos of
  evaluators, estimates or parsed wrappers kept as module globals beside
  the ``Session`` / ``PlanRegistry`` that owns the same artifact, so two
  sessions silently share (and evict from) them.  Every module-level
  ``LruMap(...)``, ``WeakKeyDictionary(...)`` or ``PlanRegistry(...)`` and
  every ``functools.lru_cache`` in ``src/`` must appear in
  ``ALLOWED_PROCESS_CACHES`` with the reason it is process-wide.
* documents and wrappers re-fingerprinted per call — every tree-keyed
  cache once walked the whole tree on each lookup to key it, and every
  wrapper activation rendered its whole program.  A built ``Document`` is
  immutable, so only ``tree_edb.document_key`` may use
  ``tree_fingerprint``: it builds the key once and keeps it on the
  document, and only ``tree_edb.tree_fingerprint`` may build the
  ``TreeRelations`` that key holds: every evaluator reads that one
  encoding.  A built ``ElogProgram`` is frozen too, so only
  ``extractor.wrapper_fingerprint`` may write the key kept on the program.
* API that only tests call — helpers kept in ``src/`` for a test's sake,
  and a second subset automaton nothing used, were found by hand and
  deleted.  Every public function, class and method in ``src/`` must be
  used from ``src/``, ``examples/``, ``benchmarks/`` or ``perfbench/``, or
  appear in ``ALLOWED_UNREFERENCED`` with the paper result it implements or
  the user who calls it, and in docs/API.md.
* compiled artifacts committed to the index (``.pyc`` files rode along
  with the seed until PR 6).

It also pins one rule: no module in ``src/`` imports ``gc``, so nothing
switches the process-wide cyclic collector.
"""

from __future__ import annotations

import ast
import functools
import re
import subprocess
from collections import Counter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"

#: Files allowed to call ``id(...)``, each with the reason the use is
#: sound.  The common shape: the dict/set keyed by ``id(node)`` lives
#: strictly shorter than the structure holding the nodes, so no key can
#: outlive its object.  Adding a new ``id(`` call to any other file must
#: come with an entry here explaining why it cannot dangle.
ALLOWED_ID_USES = {
    "repro/analysis/scan.py": (
        "docstring-node set used within a single AST walk of one source "
        "file; the parsed tree is alive for the whole scan"
    ),
    "repro/automata/ranked.py": (
        "per-run state tables over one binary tree; the tree outlives "
        "the run() call that builds and drops the table"
    ),
    "repro/cq/acyclic.py": (
        "visited-edge marker inside one GYO traversal; atoms are held "
        "by the query being traversed"
    ),
    "repro/datalog/engine.py": (
        "per-plan join memos; the plans are owned by the engine for its "
        "whole lifetime, so their ids are stable"
    ),
    "repro/elog/instance_base.py": (
        "instance dedup key over member nodes the instance itself holds "
        "strong references to"
    ),
    "repro/html/render.py": (
        "node->text-span table for one rendered document; the document "
        "holds the nodes while the spans are in use"
    ),
    "repro/server/monitoring.py": (
        "a change detector's record memo keeps the record objects alive "
        "and confirms each hit with `is`"
    ),
    "repro/visual/region.py": (
        "span lookup over the region's own document; region and "
        "document share a lifetime"
    ),
    "repro/xpath/full.py": (
        "(step, node-index) memo; steps are owned by the compiled "
        "expression for its whole lifetime"
    ),
}


def _id_call_lines(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    ]


def _files_calling_id():
    return {
        str(path.relative_to(SRC)): lines
        for path in sorted(SRC.rglob("*.py"))
        if (lines := _id_call_lines(path))
    }


def test_every_id_call_is_allowlisted_with_a_reason():
    offenders = {
        file: lines
        for file, lines in _files_calling_id().items()
        if file not in ALLOWED_ID_USES
    }
    assert not offenders, (
        "id(...) used outside the allowlist (id-reuse hazard when used "
        f"as a cache key): {offenders}; if the use is sound, document "
        "why in ALLOWED_ID_USES"
    )


def test_the_allowlist_carries_no_stale_entries():
    calling = set(_files_calling_id())
    stale = set(ALLOWED_ID_USES) - calling
    assert not stale, f"allowlist entries for files that no longer call id(): {stale}"


def test_every_allowlist_reason_is_substantive():
    for file, reason in ALLOWED_ID_USES.items():
        assert len(reason.split()) >= 5, f"{file}: justification too thin"


# ---------------------------------------------------------------------------
# Concurrency hygiene: writes to self._* mappings outside a lock
# ---------------------------------------------------------------------------

#: ``(file, attribute)`` pairs allowed to write ``self._attr[...]`` outside
#: a ``with self._lock`` block, each with the reason the structure cannot
#: race.  The common shapes: the object is owned by a single evaluation /
#: single caller for its whole life (engines, parsers, solvers), or every
#: caller of the writing helper already holds the lock (the scanner is
#: intra-procedural and cannot see that).  New unlocked writes anywhere
#: else must either take the lock or justify themselves here.
ALLOWED_UNLOCKED_WRITES = {
    ("repro/api/results.py", "_memo"): (
        "per-QueryResult lazy view memo; a result wrapper belongs to the "
        "caller that ran the query, while cross-thread session caches hold "
        "the immutable fixpoint, not these views"
    ),
    ("repro/datalog/engine.py", "_views"): (
        "EvaluationResult's lazy frozenset views; a result is consumed by "
        "the thread that evaluated it, engines are per-caller objects"
    ),
    ("repro/datalog/columns.py", "_indexes"): (
        "columnar indexes and their catch-up watermarks are scratch storage "
        "inside one engine's single-threaded evaluate() pass; cross-thread "
        "caches hold only the materialised EvaluationResult, never these "
        "relations"
    ),
    ("repro/datalog/ltur.py", "_atom_ids"): (
        "atom interning table local to one LTUR solver instance, built and "
        "run by a single caller"
    ),
    ("repro/elog/concepts.py", "_functions"): (
        "concept registration is configuration-time setup; a registry is "
        "populated before wrappers run, not mutated during evaluation"
    ),
    ("repro/resilience/retry.py", "_hosts"): (
        "written only inside _state(), whose every caller already holds "
        "self._lock; the intra-procedural scanner cannot see the callers"
    ),
    ("repro/server/pipeline.py", "_components"): (
        "pipes are assembled single-threaded at build time; the server "
        "only reads the component table while running"
    ),
    ("repro/server/pipeline.py", "_pipes"): (
        "TransformationServer registration happens during single-threaded "
        "setup before the tick loop starts"
    ),
    ("repro/tree/builder.py", "_stack"): (
        "parser work stack of one TreeBuilder; a builder parses one "
        "document for one caller and is then discarded"
    ),
    ("repro/web/fetcher.py", "_pages"): (
        "the in-memory test fetcher's page table is seeded by the test "
        "that owns it; published pages are fixtures, not shared state"
    ),
    ("repro/xpath/full.py", "_step_cache"): (
        "per-compiled-expression memo; an XPath evaluation runs on the "
        "thread that owns the expression instance"
    ),
    ("repro/xpath/full.py", "_condition_cache"): (
        "per-compiled-expression memo; same single-owner lifetime as the "
        "step cache above"
    ),
}

#: Methods whose unlocked writes are constructor-time by definition.
_EXEMPT_METHODS = ("__init__", "__post_init__")


def _mentions_lock(expression: ast.AST) -> bool:
    """True when ``expression`` names something lock-like (``self._lock``,
    ``self._rlock``, a bare ``lock`` variable, ...)."""
    for node in ast.walk(expression):
        if isinstance(node, ast.Attribute) and "lock" in node.attr.lower():
            return True
        if isinstance(node, ast.Name) and "lock" in node.id.lower():
            return True
    return False


def _written_private_attr(target: ast.AST):
    """The ``_attr`` when ``target`` is a ``self._attr[...]`` subscript."""
    if not isinstance(target, ast.Subscript):
        return None
    value = target.value
    if (
        isinstance(value, ast.Attribute)
        and isinstance(value.value, ast.Name)
        and value.value.id == "self"
        and value.attr.startswith("_")
    ):
        return value.attr
    return None


def _unlocked_write_sites(path: Path):
    """``(lineno, attr)`` for every unlocked ``self._attr[...]`` write."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    offenders = []

    def walk(node, in_lock, in_exempt):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            exempt = node.name in _EXEMPT_METHODS
            for child in node.body:
                walk(child, False, exempt)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            locked = in_lock or any(
                _mentions_lock(item.context_expr) for item in node.items
            )
            for child in node.body:
                walk(child, locked, in_exempt)
            return
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        for target in targets:
            attr = _written_private_attr(target)
            if attr and not in_lock and not in_exempt:
                offenders.append((node.lineno, attr))
        for child in ast.iter_child_nodes(node):
            walk(child, in_lock, in_exempt)

    walk(tree, False, False)
    return offenders


def _files_with_unlocked_writes():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for lineno, attr in _unlocked_write_sites(path):
            found.setdefault(
                (str(path.relative_to(SRC)), attr), []
            ).append(lineno)
    return found


def test_every_unlocked_cache_write_is_allowlisted_with_a_reason():
    offenders = {
        site: lines
        for site, lines in _files_with_unlocked_writes().items()
        if site not in ALLOWED_UNLOCKED_WRITES
    }
    assert not offenders, (
        "self._* mapping written outside a lock (concurrent-mutation "
        f"hazard under server load): {offenders}; take the lock or, if "
        "the structure is single-owner, document why in "
        "ALLOWED_UNLOCKED_WRITES"
    )


def test_the_unlocked_write_allowlist_carries_no_stale_entries():
    writing = set(_files_with_unlocked_writes())
    stale = set(ALLOWED_UNLOCKED_WRITES) - writing
    assert not stale, (
        f"allowlist entries for unlocked writes that no longer exist: {stale}"
    )


def test_every_unlocked_write_reason_is_substantive():
    for (file, attr), reason in ALLOWED_UNLOCKED_WRITES.items():
        assert len(reason.split()) >= 5, f"{file}:{attr}: justification too thin"


# ---------------------------------------------------------------------------
# Cache ownership: process-wide caches
# ---------------------------------------------------------------------------

#: ``file:name`` of every process-wide cache in ``src/`` — a module-level
#: ``LruMap`` / ``WeakKeyDictionary`` / ``PlanRegistry`` or an
#: ``lru_cache``-decorated function — with the reason it may not live with
#: an owner (a ``Session`` owns evaluators and parses, a ``PlanRegistry``
#: compiled programs and reports, an evaluator its per-document state).
ALLOWED_PROCESS_CACHES = {
    "repro/datalog/registry.py:_SHARED_REGISTRY": (
        "the registry itself: engines built without registry= and "
        "session-less pipeline builders compile through it on purpose"
    ),
    "repro/mdatalog/evaluator.py:_TMNF_CACHE": (
        "the TMNF rewrite is immutable and keyed by the exact rule tuple; "
        "moving it into the session registry raised the perfbench "
        "tree_query setup() from 3.7 to 4.8 ms (+29%, medians of 4 "
        "alternating runs of 200 setups on a 2-core x86_64 VM), past the "
        "benchmark's 25% bound; monitor_server setup() stayed within noise"
    ),
    "repro/datalog/plan.py:_factory": (
        "pure compiler keyed by its full input, the generated executor "
        "source text; a hit can never alias two different plans"
    ),
    "repro/elog/epath.py:compile_variable_pattern": (
        "pure compiler keyed by its full input, the pattern text; the "
        "compiled regex is immutable"
    ),
    "repro/elog/epath.py:_dfa": (
        "pure compiler keyed by its full input, the element-path step "
        "tuple; the subset automaton is immutable"
    ),
}

#: Constructors that build a cache when called at module level.
_CACHE_CONSTRUCTORS = frozenset({"LruMap", "WeakKeyDictionary", "PlanRegistry"})
#: Decorators that give a function a process-wide memo.
_CACHE_DECORATORS = frozenset({"lru_cache", "cache"})


def _called_name(node: ast.AST):
    """``f`` for a ``f(...)`` / ``m.f(...)`` / ``@f`` / ``@m.f`` node."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _process_cache_names(path: Path):
    """Names of module-level cache objects and memoised functions."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
            _called_name(decorator) in _CACHE_DECORATORS
            for decorator in node.decorator_list
        ):
            found.append(node.name)
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if any(
            _called_name(call) in _CACHE_CONSTRUCTORS
            for call in ast.walk(value)
            if isinstance(call, ast.Call)
        ):
            found.extend(t.id for t in targets if isinstance(t, ast.Name))
    return found


def _process_caches():
    return {
        f"{path.relative_to(SRC)}:{name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in _process_cache_names(path)
    }


def test_every_process_wide_cache_is_allowlisted_with_a_reason():
    offenders = _process_caches() - set(ALLOWED_PROCESS_CACHES)
    assert not offenders, (
        f"process-wide caches outside the allowlist: {sorted(offenders)}; "
        "give the cache an owner (a Session, a PlanRegistry or the "
        "evaluator) or, if it must be process-wide, document why in "
        "ALLOWED_PROCESS_CACHES"
    )


def test_the_process_cache_allowlist_carries_no_stale_entries():
    stale = set(ALLOWED_PROCESS_CACHES) - _process_caches()
    assert not stale, f"allowlist entries for caches that no longer exist: {stale}"


def test_every_process_cache_reason_is_substantive():
    for name, reason in ALLOWED_PROCESS_CACHES.items():
        assert len(reason.split()) >= 5, f"{name}: justification too thin"


# ---------------------------------------------------------------------------
# No test-only API: every public definition in src/ has a caller
# ---------------------------------------------------------------------------

#: The trees whose code counts as a caller of ``src/``.  Tests do not: a
#: helper only tests call belongs in ``tests/``.  Neither does prose: a
#: line in docs/ describes a name, it does not call it.
CALLER_ROOTS = ("src", "examples", "benchmarks", "perfbench")

#: ``file:qualified name`` of every public top-level function, class and
#: method in ``src/`` that nothing in :data:`CALLER_ROOTS` uses, each with
#: the paper result it implements or the user who calls it.  Each has its
#: line in docs/API.md.
ALLOWED_UNREFERENCED = {
    "repro/analysis/diagnostics.py:AnalysisReport.by_rule": (
        "static-analysis users filter a report down to one rule id of the "
        "docs/ANALYSIS.md catalog"
    ),
    "repro/api/pipeline.py:Pipeline.deliverers": (
        "Section 5 pipeline users list every deliverer, the gated ones "
        "included, to read what each sent"
    ),
    "repro/api/pipeline.py:PipelineBuilder.connect": (
        "Section 5 pipeline users add a fan-out edge between two stages "
        "already declared"
    ),
    "repro/api/session.py:Session.query_many": (
        "the facade's batch query entry point for server-style document "
        "streams; the benchmark drives extract_many"
    ),
    "repro/automata/ranked.py:NondeterministicTreeAutomaton": (
        "Theorem 2.5 (MSO equals tree automata): the nondeterministic "
        "bottom-up automaton a user writes before determinising"
    ),
    "repro/automata/ranked.py:NondeterministicTreeAutomaton.determinize": (
        "Theorem 2.5: the subset construction from a nondeterministic to a "
        "deterministic bottom-up tree automaton"
    ),
    "repro/automata/ranked.py:label_reachability_automaton": (
        "Theorem 2.5: the Boolean MSO query 'some node carries this label' "
        "as a deterministic tree automaton"
    ),
    "repro/automata/strings.py:NFABuilder.optional": (
        "MSO over unranked trees: the ? operator of the horizontal "
        "languages a user writes an UnrankedTreeAutomaton with"
    ),
    "repro/automata/strings.py:NFABuilder.plus": (
        "MSO over unranked trees: the + operator of the horizontal "
        "languages a user writes an UnrankedTreeAutomaton with, such as an "
        "even positive number of children"
    ),
    "repro/automata/to_datalog.py:compiled_select": (
        "Theorem 2.5 made executable: users select nodes with an automaton "
        "compiled to monadic datalog in one call"
    ),
    "repro/automata/unranked.py:automaton_from_child_pattern": (
        "MSO over unranked trees: the child-pattern query family as an "
        "automaton with regular horizontal languages"
    ),
    "repro/cq/acyclic.py:evaluate_acyclic": (
        "Section 4: Yannakakis' algorithm, polynomial-time evaluation of "
        "acyclic conjunctive queries over trees"
    ),
    "repro/cq/evaluator.py:boolean_answer": (
        "Section 4: users ask a Boolean conjunctive query over a tree for "
        "its truth value"
    ),
    "repro/datalog/engine.py:query_program": (
        "one-shot datalog evaluation for users holding a program, a "
        "database and one predicate to read"
    ),
    "repro/datalog/ltur.py:GroundHornSolver.atom_count": (
        "Minoux's LTUR, the linear-time Horn step of Theorem 2.4; "
        "datalog/ltur.py stays whole while the benchmark's ltur.solve span "
        "patches it"
    ),
    "repro/datalog/ltur.py:solve_ground_program": (
        "Minoux's LTUR, the linear-time Horn step of Theorem 2.4; "
        "datalog/ltur.py stays whole while the benchmark's ltur.solve span "
        "patches it"
    ),
    "repro/datalog/options.py:EngineOptions.derive": (
        "users tune the one options object by copy, as "
        "options.derive(cache_size=32)"
    ),
    "repro/datalog/tree_edb.py:tree_signature": (
        "Section 2.2: the tau_ur predicate names of a document, for users "
        "writing a program over it"
    ),
    "repro/mdatalog/program.py:italic_program": (
        "Example 2.1 of the paper: the monadic program selecting the nodes "
        "rendered in italics"
    ),
    "repro/mdatalog/queries.py:extraction_functions": (
        "Section 2.1: the information extraction functions a monadic "
        "program defines, one per query predicate"
    ),
    "repro/mdatalog/wrap.py:wrap_tree": (
        "Section 2.1: the output tree of a wrapper, built over the nodes "
        "its predicates select"
    ),
    "repro/resilience/faults.py:FaultPlan.add_latency": (
        "resilience users inject latency into matching fetches "
        "(docs/RESILIENCE.md)"
    ),
    "repro/resilience/faults.py:FaultPlan.fail_permanent": (
        "resilience users inject a permanent 404-style error into matching "
        "fetches"
    ),
    "repro/resilience/faults.py:FaultPlan.fetch_count": (
        "resilience users read how many fetches of a URL a fault plan has "
        "judged"
    ),
    "repro/resilience/faults.py:FaultyFetcher": (
        "resilience users wrap a fetcher with it to inject a FaultPlan's "
        "faults; repro.api exports it"
    ),
    "repro/resilience/policy.py:ResiliencePolicy.derive": (
        "users adjust a resilience policy by copy, the same idiom as "
        "EngineOptions.derive"
    ),
    "repro/resilience/policy.py:RetryPolicy.derive": (
        "users adjust a retry policy by copy, the same idiom as "
        "EngineOptions.derive"
    ),
    "repro/resilience/retry.py:CircuitBreaker.state_of": (
        "server operators ask whether a host's circuit breaker is closed, "
        "open or half-open"
    ),
    "repro/server/pipeline.py:InformationPipe.deliverers": (
        "Section 5 pipe users list the deliverer components of one "
        "information pipe"
    ),
    "repro/server/pipeline.py:TransformationServer.run_all": (
        "Section 5: the Transformation Server runs every registered pipe "
        "once, its batch entry point"
    ),
    "repro/tree/builder.py:figure1_tree": (
        "Figure 1 of the paper: the six-node example tree the tests and "
        "documents walk through"
    ),
    "repro/visual/generalize.py:suggest_conditions": (
        "Section 3.2 visual wrapper design: the attribute conditions the "
        "Pattern Builder offers its user"
    ),
    "repro/visual/pattern_builder.py:PatternBuilderSession.refine_with_attribute": (
        "Section 3.2: the user's visual restrict action, an attribute "
        "condition added to a filter"
    ),
    "repro/visual/region.py:RenderedPage.highlight": (
        "Section 3.2: the rendered text a Pattern Builder user sees marked "
        "for a selected node"
    ),
    "repro/web/fetcher.py:StaticDocumentFetcher": (
        "users who time extraction over already-parsed documents, with no "
        "revalidation between runs"
    ),
    "repro/xmlgen/serializer.py:parse_xml": (
        "Section 5: users read XML markup into the server's element model, "
        "the inverse of to_xml"
    ),
    "repro/xpath/core.py:evaluate_xpath": (
        "Theorem 4.6: the linear-time Core XPath evaluator as a one-shot "
        "call over a document"
    ),
    "repro/xpath/full.py:evaluate_full": (
        "the extended XPath fragment (attributes, text comparisons) as a "
        "one-shot call over a document"
    ),
    "repro/xpath/naive.py:evaluate_naive": (
        "the naive XPath baseline that Section 4's polynomial bound is "
        "measured against, as a one-shot call"
    ),
}


#: One token per match: a triple-quoted string (docstrings: prose, skipped),
#: a one-line string (its text is a use when it is a bare identifier, such
#: as ``setattr(x, "f", ...)``, or when it is an f-string, such as the
#: generated join executors), a comment or a ``def`` / ``class`` head
#: (skipped: a definition is not a use of itself), or a name.
_TOKEN = re.compile(
    r"""[A-Za-z]{0,2}(?:'''[\s\S]*?'''|\"\"\"[\s\S]*?\"\"\")"""
    r"""|(?P<prefix>[A-Za-z]{0,2})(?P<quote>['"])"""
    r"""(?P<text>(?:\\.|(?!(?P=quote))[^\\\n])*)(?P=quote)"""
    r"""|\#[^\n]*|\b(?:def|class)\s+\w+"""
    r"""|(?P<name>[A-Za-z_]\w*)"""
)
_NAME = re.compile(r"[A-Za-z_]\w*")


def _used_names(text: str):
    """The names a module's code uses (see :data:`_TOKEN`)."""
    for token in _TOKEN.finditer(text):
        if token["name"]:
            yield token["name"]
        elif token["text"] is not None:
            if "f" in token["prefix"].lower():
                yield from _NAME.findall(token["text"])
            elif token["text"].isidentifier():
                yield token["text"]


def _public_definitions(path: Path):
    """``(qualified name, name)`` of every public top-level function and
    class and every public method of a top-level class."""
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, definitions) or node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, definitions) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member.name


@functools.lru_cache(maxsize=None)
def _unreferenced_definitions(repo: Path = REPO):
    # A package ``__init__`` only re-exports names: that is no use of them.
    uses = Counter()
    for root in CALLER_ROOTS:
        for path in sorted((repo / root).rglob("*.py")):
            if path.name != "__init__.py":
                uses.update(_used_names(path.read_text(encoding="utf-8")))
    src = repo / "src"
    return frozenset(
        f"{path.relative_to(src)}:{qualified}"
        for path in sorted(src.rglob("*.py"))
        for qualified, name in _public_definitions(path)
        if not uses[name]
    )


@pytest.mark.parametrize(
    "source, used, unused",
    [
        ('"""helper is prose."""\n', set(), {"helper", "is", "prose"}),
        ('"""say "helper"\nnow"""\n', set(), {"say", "helper", "now"}),
        ("r'''helper'''\n", set(), {"helper"}),
        ("x = 1  # helper\n", {"x"}, {"helper"}),
        ("def helper(arg):\n    return arg\n", {"arg"}, {"helper"}),
        ("class Helper(Base):\n    pass\n", {"Base"}, {"Helper"}),
        ("obj.helper()\n", {"obj", "helper"}, set()),
        ('setattr(obj, "helper", 1)\n', {"setattr", "helper"}, set()),
        ('f"{helper(x)}: {other}"\n', {"helper", "x", "other"}, set()),
        ('"not a helper"\n', set(), {"not", "helper"}),
        ("'it\\'s helper'\n", set(), {"it", "helper"}),
        ('"C:\\\\" + helper\n', {"helper"}, {"C"}),
    ],
    ids=[
        "docstring",
        "docstring-with-quotes",
        "prefixed-docstring",
        "comment",
        "def-head",
        "class-head",
        "attribute",
        "identifier-string",
        "f-string",
        "prose-string",
        "escaped-quote",
        "escaped-backslash",
    ],
)
def test_used_names_reads_code_not_prose(source, used, unused):
    names = set(_used_names(source))
    assert used <= names
    assert not unused & names


def test_public_definitions_are_top_level_and_class_members(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def helper():\n"
        "    def nested():\n"
        "        pass\n"
        "def _private():\n"
        "    pass\n"
        "async def fetch():\n"
        "    pass\n"
        "class Box:\n"
        "    def open(self):\n"
        "        pass\n"
        "    def _hidden(self):\n"
        "        pass\n"
        "    class Inner:\n"
        "        def deep(self):\n"
        "            pass\n"
        "class _Secret:\n"
        "    def visible(self):\n"
        "        pass\n",
        encoding="utf-8",
    )
    assert list(_public_definitions(module)) == [
        ("helper", "helper"),
        ("fetch", "fetch"),
        ("Box", "Box"),
        ("Box.open", "open"),
        ("Box.Inner", "Inner"),
    ]


def test_unreferenced_definitions_ignore_tests_and_reexports(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from .mod import exported, used_by_example, used_by_test\n", encoding="utf-8"
    )
    (package / "mod.py").write_text(
        "def used_by_example():\n    return used_inside()\n"
        "def used_inside():\n    pass\n"
        "def used_by_test():\n    pass\n"
        "def exported():\n    pass\n",
        encoding="utf-8",
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from pkg import used_by_example\nused_by_example()\n", encoding="utf-8"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg import used_by_test\nused_by_test()\n", encoding="utf-8"
    )
    assert _unreferenced_definitions(tmp_path) == {
        "pkg/mod.py:used_by_test",
        "pkg/mod.py:exported",
    }


def test_every_public_definition_has_a_caller_or_a_reason():
    offenders = _unreferenced_definitions() - set(ALLOWED_UNREFERENCED)
    assert not offenders, (
        f"public definitions in src/ that nothing outside tests/ uses: "
        f"{sorted(offenders)}; call them, move a helper only tests need "
        "into tests/, delete the rest, or, for a paper result or a call a "
        "user makes, give the reason in ALLOWED_UNREFERENCED"
    )


def test_the_unreferenced_allowlist_carries_no_stale_entries():
    stale = set(ALLOWED_UNREFERENCED) - _unreferenced_definitions()
    assert not stale, (
        f"allowlist entries for definitions that are gone or now have a "
        f"caller: {sorted(stale)}"
    )


def test_every_unreferenced_reason_is_substantive():
    for name, reason in ALLOWED_UNREFERENCED.items():
        assert len(reason.split()) >= 5, f"{name}: justification too thin"


def test_every_unreferenced_definition_is_documented():
    api = (REPO / "docs" / "API.md").read_text(encoding="utf-8")
    undocumented = sorted(
        entry
        for entry in ALLOWED_UNREFERENCED
        if f"`{entry.partition(':')[2]}" not in api
    )
    assert not undocumented, f"allowlisted but missing from docs/API.md: {undocumented}"


# ---------------------------------------------------------------------------
# One key owner: only document_key fingerprints a document, only
# tree_fingerprint builds its tau_ur encoding, and only
# wrapper_fingerprint stores a program's key
# ---------------------------------------------------------------------------

#: The one ``(file, function)`` that may use ``tree_fingerprint``.
FINGERPRINT_OWNER = ("repro/datalog/tree_edb.py", "document_key")
#: The one ``(file, function)`` that may call ``TreeRelations(...)``: the
#: key's content is the document's only tau_ur encoding.
ENCODING_OWNER = ("repro/datalog/tree_edb.py", "tree_fingerprint")


def _name_uses(path: Path, name: str, calls_only: bool = False):
    """``(lineno, enclosing function)`` of every reference to ``name``: a
    call, or (unless ``calls_only``) the function passed along to be
    called later."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    uses = []
    kinds = (ast.Call,) if calls_only else (ast.Name, ast.Attribute)

    def walk(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, kinds):
            if _called_name(node) == name:
                uses.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            walk(child, function)

    walk(tree, None)
    return uses


def _src_uses(name: str, calls_only: bool = False):
    return {
        (str(path.relative_to(SRC)), function, lineno)
        for path in sorted(SRC.rglob("*.py"))
        for lineno, function in _name_uses(path, name, calls_only)
    }


def test_only_document_key_fingerprints_a_document():
    uses = _src_uses("tree_fingerprint")
    offenders = sorted(use for use in uses if use[:2] != FINGERPRINT_OWNER)
    assert not offenders, (
        f"tree_fingerprint used outside {FINGERPRINT_OWNER}: {offenders}; a "
        "built Document is immutable, so key it with document_key(document), "
        "which fingerprints it once"
    )
    assert any(use[:2] == FINGERPRINT_OWNER for use in uses), "the owner no longer fingerprints"


def test_only_tree_fingerprint_builds_tree_relations():
    uses = _src_uses("TreeRelations", calls_only=True)
    offenders = sorted(use for use in uses if use[:2] != ENCODING_OWNER)
    assert not offenders, (
        f"TreeRelations built outside {ENCODING_OWNER}: {offenders}; a "
        "document has one tau_ur encoding, read it as document_key(document).content"
    )
    assert any(use[:2] == ENCODING_OWNER for use in uses), "the owner no longer builds it"


#: The one ``(file, function)`` that may write ``ElogProgram._fingerprint``.
WRAPPER_KEY_OWNER = ("repro/elog/extractor.py", "wrapper_fingerprint")
_WRAPPER_KEY = "_fingerprint"


def _wrapper_key_writes(path: Path):
    """``(lineno, enclosing function)`` of every write of a stored wrapper
    key: an assignment to ``x._fingerprint``, or a ``setattr`` /
    ``object.__setattr__`` call naming ``"_fingerprint"`` (the way past a
    frozen dataclass)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    writes = []

    def walk(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == _WRAPPER_KEY
            and isinstance(node.ctx, (ast.Store, ast.Del))
        ):
            writes.append((node.lineno, function))
        elif (
            isinstance(node, ast.Call)
            and _called_name(node) in ("setattr", "__setattr__")
            and any(
                isinstance(argument, ast.Constant) and argument.value == _WRAPPER_KEY
                for argument in node.args
            )
        ):
            writes.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            walk(child, function)

    walk(tree, None)
    return writes


def test_only_wrapper_fingerprint_stores_a_program_key():
    writes = {
        (str(path.relative_to(SRC)), function, lineno)
        for path in sorted(SRC.rglob("*.py"))
        for lineno, function in _wrapper_key_writes(path)
    }
    offenders = sorted(write for write in writes if write[:2] != WRAPPER_KEY_OWNER)
    assert not offenders, (
        f"a program's stored key written outside {WRAPPER_KEY_OWNER}: "
        f"{offenders}; a built ElogProgram is frozen, so key it with "
        "wrapper_fingerprint(program), which renders it once"
    )
    assert any(write[:2] == WRAPPER_KEY_OWNER for write in writes), (
        "the owner no longer stores the key"
    )


# ---------------------------------------------------------------------------
# No process-wide collector switch: nothing in src/ imports gc
# ---------------------------------------------------------------------------


def _gc_imports(path: Path):
    """Line numbers of every ``import gc`` / ``from gc import ...``."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            if any(alias.name == "gc" for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "gc" and not node.level:
            lines.append(node.lineno)
    return lines


def test_no_source_module_imports_gc():
    # Engines run on server and batch threads; gc.disable, gc.freeze or a
    # new threshold would change the collector under every other thread.
    # A fixpoint keeps out of the collector's way through what it holds
    # (tuples of int tuples, which the collector untracks), not by a switch.
    offenders = sorted(
        (str(path.relative_to(SRC)), lineno)
        for path in sorted(SRC.rglob("*.py"))
        for lineno in _gc_imports(path)
    )
    assert not offenders, f"gc imported in src/: {offenders}"


def _tracked_files():
    completed = subprocess.run(
        ["git", "ls-files"],
        cwd=REPO,
        capture_output=True,
        text=True,
        check=True,
    )
    return completed.stdout.splitlines()


def test_no_compiled_artifacts_are_tracked():
    tracked = _tracked_files()
    offenders = [
        name
        for name in tracked
        if name.endswith((".pyc", ".pyo")) or "__pycache__" in name
    ]
    assert not offenders, f"compiled artifacts tracked by git: {offenders}"


def test_the_gitignore_keeps_them_out():
    ignored = (REPO / ".gitignore").read_text(encoding="utf-8")
    assert "__pycache__" in ignored
    assert "*.pyc" in ignored or "*.py[cod]" in ignored
