"""Function-free datalog: AST, parser, stratification, and evaluation."""

from .ast import (
    Atom,
    Constant,
    Database,
    Literal,
    Program,
    Rule,
    Variable,
)
from .cache import CacheInfo, ContentKey, LruMap, database_content_hash
from .columns import ColumnarDatabase, ColumnarRelation, ColumnarWindow, StorageStats
from .engine import (
    EngineInfo,
    EvaluationError,
    EvaluationResult,
    SemiNaiveEngine,
    aggregate_engine_info,
    query_program,
)
from .ltur import GroundHornSolver, solve_ground_program
from .options import DEFAULT_OPTIONS, EngineOptions
from .parser import DatalogSyntaxError, parse_program, parse_rules
from .plan import RulePlan, compile_stratum
from .registry import (
    CompiledProgram,
    PlanRegistry,
    clear_plan_registry,
    plan_registry_info,
    shared_registry,
)
from .stratify import StratificationError, is_stratifiable, stratify
from .tree_edb import (
    document_key,
    label_predicate,
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
    "document_key",
    "plan_registry_info",
    "shared_registry",
    "aggregate_engine_info",
    "is_stratifiable",
    "label_predicate",
    "parse_program",
    "parse_rules",
    "query_program",
    "solve_ground_program",
    "stratify",
    "tree_database",
    "tree_fingerprint",
    "tree_signature",
]
