"""Repo hygiene gates.

Five classes of slip have already cost a PR each:

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
  document.  A built ``ElogProgram`` is frozen too, so only
  ``extractor.wrapper_fingerprint`` may write the key kept on the program.
* compiled artifacts committed to the index (``.pyc`` files rode along
  with the seed until PR 6).
"""

from __future__ import annotations

import ast
import subprocess
from pathlib import Path

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
    "repro/tree/document.py": (
        "ancestor set local to one range computation over a live "
        "document"
    ),
    "repro/tree/encoding.py": (
        "source->binary mapping built and consumed inside one encoding "
        "pass; it strongly references both trees"
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
# One key owner: only document_key fingerprints a document, and only
# wrapper_fingerprint stores a program's key
# ---------------------------------------------------------------------------

#: The one ``(file, function)`` that may use ``tree_fingerprint``.
FINGERPRINT_OWNER = ("repro/datalog/tree_edb.py", "document_key")


def _fingerprint_uses(path: Path):
    """``(lineno, enclosing function)`` of every ``tree_fingerprint``
    reference: a call, or the function passed along to be called later."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    uses = []

    def walk(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, (ast.Name, ast.Attribute)):
            if _called_name(node) == "tree_fingerprint":
                uses.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            walk(child, function)

    walk(tree, None)
    return uses


def test_only_document_key_fingerprints_a_document():
    uses = {
        (str(path.relative_to(SRC)), function, lineno)
        for path in sorted(SRC.rglob("*.py"))
        for lineno, function in _fingerprint_uses(path)
    }
    offenders = sorted(use for use in uses if use[:2] != FINGERPRINT_OWNER)
    assert not offenders, (
        f"tree_fingerprint used outside {FINGERPRINT_OWNER}: {offenders}; a "
        "built Document is immutable, so key it with document_key(document), "
        "which fingerprints it once"
    )
    assert any(use[:2] == FINGERPRINT_OWNER for use in uses), "the owner no longer fingerprints"


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
