"""Resilience rule: RES001 (worker channels must be timeout-guarded).

The fault-tolerance layer of :mod:`repro.parallel` only works if no code
path can block forever on a dead or hung peer.  The enforceable invariant:
every inter-process channel read in the parallel package goes through the
deadline-aware helpers of :mod:`repro.resilience.channel`
(:func:`~repro.resilience.channel.recv_message`,
:func:`~repro.resilience.channel.recv_frame`,
:func:`~repro.resilience.channel.wait_readable`), never through a bare
``Connection.recv()`` / ``Connection.recv_bytes()`` or an untimed
``multiprocessing.connection.wait()``.
The same rule bans ``except: pass`` / ``except Exception: pass`` handlers in
the package — a swallowed worker error turns a diagnosable fault into a
silent hang, which is exactly what the resilience layer exists to prevent.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.contracts.engine import ModuleContext, resolved_call_name
from repro.contracts.findings import Finding
from repro.contracts.rules import ContractRule

__all__ = ["ResilientChannelRule"]

#: Package whose channel reads must be deadline-aware.
_SCOPE_PREFIX = "repro.parallel"

#: ``Connection`` methods that block until a whole message arrives.
_RECV_METHODS = {"recv", "recv_bytes"}

#: Fully qualified names of the untimed multi-connection wait.
_WAIT_NAMES = {"multiprocessing.connection.wait"}

#: Exception names an except-and-ignore handler is never allowed to catch.
_BLANKET_EXCEPTIONS = {"Exception", "BaseException"}


def _is_blanket_handler(handler: ast.ExceptHandler) -> bool:
    """Whether ``handler`` catches everything (bare / Exception / BaseException)."""
    if handler.type is None:
        return True
    if isinstance(handler.type, ast.Name):
        return handler.type.id in _BLANKET_EXCEPTIONS
    if isinstance(handler.type, ast.Tuple):
        return any(
            isinstance(item, ast.Name) and item.id in _BLANKET_EXCEPTIONS
            for item in handler.type.elts
        )
    return False


class ResilientChannelRule(ContractRule):
    """RES001 — no unbounded channel reads or swallowed errors in the pool.

    Three patterns are flagged inside :mod:`repro.parallel`:

    * ``connection.recv()`` or ``connection.recv_bytes()`` — blocks forever
      on a hung peer; route the read through
      :func:`repro.resilience.channel.recv_message` (deadline poll loop) or
      :func:`~repro.resilience.channel.recv_frame` (post-``wait`` drain of an
      already-readable connection);
    * ``multiprocessing.connection.wait(...)`` without a ``timeout=`` —
      same unbounded block across many connections; use
      :func:`repro.resilience.channel.wait_readable`, whose timeout is
      mandatory;
    * ``except``/``except Exception``/``except BaseException`` whose body is
      a single ``pass`` — swallowing an unexpected worker error converts a
      diagnosable crash into a silent hang or a wrong result.
    """

    rule_id = "RES001"
    title = "parallel channel reads must carry deadlines (no swallowed errors)"
    node_types = (ast.Call, ast.ExceptHandler)

    def applies_to(self, context: ModuleContext) -> bool:
        if context.is_test_code:
            return False
        module = context.module or ""
        return module == _SCOPE_PREFIX or module.startswith(_SCOPE_PREFIX + ".")

    def visit_node(self, node: ast.AST, context: ModuleContext) -> Iterable[Finding]:
        if isinstance(node, ast.ExceptHandler):
            yield from self._visit_handler(node, context)
            return
        assert isinstance(node, ast.Call)
        callee = node.func
        if isinstance(callee, ast.Attribute) and callee.attr in _RECV_METHODS:
            yield self.found(
                context,
                node,
                f"bare Connection.{callee.attr}() blocks forever on a hung or "
                "dead peer; read through repro.resilience.channel.recv_message "
                "(deadline poll loop) or recv_frame (post-wait drain)",
            )
            return
        name = resolved_call_name(node, context)
        if name in _WAIT_NAMES and not any(
            keyword.arg == "timeout" for keyword in node.keywords
        ):
            yield self.found(
                context,
                node,
                "multiprocessing.connection.wait() without timeout= blocks "
                "forever when every worker hangs; use "
                "repro.resilience.channel.wait_readable (mandatory timeout)",
            )

    def _visit_handler(
        self, handler: ast.ExceptHandler, context: ModuleContext
    ) -> Iterable[Finding]:
        if not _is_blanket_handler(handler):
            return
        if len(handler.body) == 1 and isinstance(handler.body[0], ast.Pass):
            caught = "bare except" if handler.type is None else "except Exception"
            yield self.found(
                context,
                handler,
                f"{caught}: pass in the parallel package swallows worker "
                "errors, turning diagnosable faults into silent hangs; "
                "handle, record on PoolHealth, or re-raise",
            )
