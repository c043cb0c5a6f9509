"""Robust T-private information retrieval over replicated databases.

A user fetches one of K messages from M databases (any N of which suffice)
without revealing which message to any coalition of up to T databases, at
the optimal download rate (1 - T/N) / (1 - (T/N)^K).
"""

from .audit import AuditReport, CheckResult, capacity, run_audit
from .layout import BlockLayout, SchemeParams, build_layout, total_download
from .scheme import (
    Answer,
    Decoder,
    MessageStore,
    QueryPlan,
    SchemeSecrets,
    achieved_rate,
    answer_query,
    build_queries,
    query_segments,
    sample_secrets,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "CheckResult",
    "capacity",
    "run_audit",
    "BlockLayout",
    "SchemeParams",
    "build_layout",
    "total_download",
    "Answer",
    "Decoder",
    "MessageStore",
    "QueryPlan",
    "SchemeSecrets",
    "achieved_rate",
    "answer_query",
    "build_queries",
    "query_segments",
    "sample_secrets",
    "__version__",
]
