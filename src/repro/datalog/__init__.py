"""Function-free datalog: AST, parser, stratification, and evaluation."""

from .ast import (
    Atom,
    Constant,
    Database,
    Literal,
    Program,
    Rule,
    Variable,
    atom,
    const,
    fact,
    neg,
    rule,
    var,
)
from .cache import CacheInfo, ContentKey, LruMap, database_content_hash
from .columns import ColumnarDatabase, ColumnarRelation, ColumnarWindow, StorageStats
from .engine import (
    EngineInfo,
    EvaluationError,
    EvaluationResult,
    SemiNaiveEngine,
    aggregate_engine_info,
    evaluate_program,
    query_program,
)
from .ltur import GroundHornSolver, solve_ground_program
from .options import DEFAULT_OPTIONS, EngineOptions
from .parser import DatalogSyntaxError, parse_atom_text, parse_program, parse_rules
from .plan import RulePlan, compile_stratum
from .registry import (
    CompiledProgram,
    PlanRegistry,
    clear_plan_registry,
    plan_registry_info,
    shared_compiled_program,
    shared_registry,
)
from .stratify import StratificationError, is_stratifiable, stratify
from .tree_edb import (
    label_predicate,
    nodes_for_indexes,
    tree_database,
    tree_fingerprint,
    tree_signature,
)

__all__ = [
    "Atom",
    "CacheInfo",
    "ColumnarDatabase",
    "ColumnarRelation",
    "ColumnarWindow",
    "CompiledProgram",
    "ContentKey",
    "Constant",
    "Database",
    "DatalogSyntaxError",
    "DEFAULT_OPTIONS",
    "EngineInfo",
    "EngineOptions",
    "EvaluationError",
    "EvaluationResult",
    "GroundHornSolver",
    "StorageStats",
    "Literal",
    "LruMap",
    "PlanRegistry",
    "Program",
    "Rule",
    "RulePlan",
    "SemiNaiveEngine",
    "StratificationError",
    "Variable",
    "clear_plan_registry",
    "compile_stratum",
    "database_content_hash",
    "plan_registry_info",
    "shared_compiled_program",
    "shared_registry",
    "aggregate_engine_info",
    "atom",
    "const",
    "evaluate_program",
    "fact",
    "is_stratifiable",
    "label_predicate",
    "neg",
    "nodes_for_indexes",
    "parse_atom_text",
    "parse_program",
    "parse_rules",
    "query_program",
    "rule",
    "solve_ground_program",
    "stratify",
    "tree_database",
    "tree_fingerprint",
    "tree_signature",
    "var",
]
