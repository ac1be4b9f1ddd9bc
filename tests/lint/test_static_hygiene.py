"""Repo hygiene gates.

Three classes of slip have already cost a PR each:

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
