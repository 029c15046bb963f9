"""Core WCG abstraction: domain model, graph, construction, annotations."""

from repro.core.builder import WCGBuilder, build_wcg
from repro.core.model import (
    Headers,
    HttpMethod,
    HttpRequest,
    HttpResponse,
    HttpTransaction,
    Trace,
    TraceLabel,
)
from repro.core.payloads import PayloadClass, PayloadType, classify, is_exploit_type
from repro.core.redirects import (
    Redirect,
    RedirectInferencer,
    RedirectKind,
    deobfuscate,
    infer_redirects,
    longest_chain_length,
    redirect_chains,
)
from repro.core.sessions import extract_session_id
from repro.core.stages import Stage, assign_stages
from repro.core.wcg import EdgeData, EdgeKind, NodeKind, WebConversationGraph

__all__ = [
    "EdgeData",
    "EdgeKind",
    "Headers",
    "HttpMethod",
    "HttpRequest",
    "HttpResponse",
    "HttpTransaction",
    "NodeKind",
    "PayloadClass",
    "PayloadType",
    "Redirect",
    "RedirectInferencer",
    "RedirectKind",
    "Stage",
    "Trace",
    "TraceLabel",
    "WCGBuilder",
    "WebConversationGraph",
    "assign_stages",
    "build_wcg",
    "classify",
    "deobfuscate",
    "extract_session_id",
    "infer_redirects",
    "is_exploit_type",
    "longest_chain_length",
    "redirect_chains",
]
