"""Concurrency rules: FORK001 (fork-safe locks), MSG001 (worker-task purity).

Both encode invariants the worker-pool architecture depends on:

* the worker pool ``fork()``s its workers, and a ``threading.Lock`` held by
  another parent thread at fork time stays locked forever in the child —
  every module that creates locks outliving a function call must re-arm them
  with an ``os.register_at_fork`` ``after_in_child`` hook that replaces them;
* the worker protocol is pure message passing — the task callables are
  shipped by pickle once per run, so they must be
  module-level objects; a closure or lambda drags its enclosing frame (live
  operators, locks, open files) into the workers and breaks both
  picklability and the purity the bit-identical re-execution relies on.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.contracts.engine import ModuleContext, resolved_call_name
from repro.contracts.findings import Finding
from repro.contracts.rules import ContractRule

__all__ = ["ForkSafeLockRule", "WorkerTaskPurityRule"]

_LOCK_CONSTRUCTORS = {"threading.Lock", "threading.RLock"}
_REARM_HOOK = "os.register_at_fork"


class ForkSafeLockRule(ContractRule):
    """FORK001 — every lock-creating module must register a fork re-arm.

    A module that creates ``threading.Lock`` / ``threading.RLock`` objects
    (at module scope, class scope or as instance attributes) without calling
    ``os.register_at_fork`` anywhere in the same module is flagged at each
    creation site.  The check is per module on purpose: the re-arm handler
    must live next to the locks it resets.  The pattern: the module keeps a
    ``weakref.WeakSet`` of the instances that own locks, and a module-level
    function registered with ``os.register_at_fork(after_in_child=...)``
    replaces the module's locks and every tracked instance's lock with fresh,
    open ones.
    """

    rule_id = "FORK001"
    title = "locks require the os.register_at_fork re-arm pattern"
    node_types = (ast.Call,)

    def applies_to(self, context: ModuleContext) -> bool:
        if context.is_test_code:
            return False
        # One pass over the file decides everything: a module that registers
        # the re-arm hook is trusted to reset the locks it creates.
        return not context.module_calls(_REARM_HOOK)

    def visit_node(self, node: ast.Call, context: ModuleContext) -> Iterable[Finding]:
        name = resolved_call_name(node, context)
        if name in _LOCK_CONSTRUCTORS:
            yield self.found(
                context,
                node,
                f"{name}() created in a module without an os.register_at_fork "
                "re-arm: a lock held at fork time deadlocks the forked worker; "
                "register an after_in_child handler that replaces the module's "
                "locks and those of the instances it tracks in a weakref.WeakSet",
            )


#: Callees whose call sites dispatch task callables to worker processes.
_DISPATCH_ATTRIBUTES = {"run_partition", "submit"}
_DISPATCH_CONSTRUCTORS = {"ScheduledExecutor", "run_scheduled_tasks", "PoolJob"}
#: Keyword arguments that carry task callables at those sites.
_TASK_KEYWORDS = {"task", "task_fn", "batch_fn", "fn"}


class WorkerTaskPurityRule(ContractRule):
    """MSG001 — worker tasks must be module-level callables, not closures.

    At every dispatch site (``ScheduledExecutor(...)``,
    ``*.run_partition(...)``, ``*.submit(...)``, ``run_scheduled_tasks(...)``
    and every ``PoolJob(...)`` request yielded to a pool driver) the task/batch
    callables must not be lambdas or functions defined inside the enclosing
    function: such closures capture their defining frame — live operators,
    locks, open files — which the fork inherits invisibly and pickling
    rejects.  Ship module-level functions or instances of module-level task
    classes whose payloads are plain arrays/tuples/dataclasses (the runtime
    worker-pool suite asserts the payload side of the contract).
    """

    rule_id = "MSG001"
    title = "worker-task callables must be module-level (no closures)"
    node_types = (ast.Call,)

    def _candidate_arguments(self, call: ast.Call) -> list[ast.AST]:
        """The argument expressions that carry task callables, if this is a
        dispatch site (empty list otherwise)."""
        callee = call.func
        is_dispatch = False
        first_positional_is_task = False
        if isinstance(callee, ast.Attribute) and callee.attr in _DISPATCH_ATTRIBUTES:
            # pool.run_partition(task, shards, ...) and pool.submit(task,
            # shards, ...) pass the task first and the batch callable as a
            # keyword.  A plain partition argument is neither a lambda nor a
            # nested def, so inspecting every candidate stays correct.
            is_dispatch = True
            first_positional_is_task = True
        elif isinstance(callee, ast.Name) and callee.id in _DISPATCH_CONSTRUCTORS:
            is_dispatch = True
            first_positional_is_task = True
        if not is_dispatch:
            return []
        candidates: list[ast.AST] = []
        if first_positional_is_task and call.args:
            candidates.append(call.args[0])
        for keyword in call.keywords:
            if keyword.arg in _TASK_KEYWORDS:
                candidates.append(keyword.value)
        return candidates

    @staticmethod
    def _locally_defined(name: str, scopes: list[ast.AST]) -> bool:
        """Whether ``name`` is a function/lambda defined inside ``scopes``."""
        for scope in scopes:
            for node in ast.walk(scope):
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node is not scope
                    and node.name == name
                ):
                    return True
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
                    for target in node.targets:
                        if isinstance(target, ast.Name) and target.id == name:
                            return True
        return False

    def visit_node(self, node: ast.Call, context: ModuleContext) -> Iterable[Finding]:
        candidates = self._candidate_arguments(node)
        if not candidates:
            return
        scopes = context.enclosing_functions(node)
        for argument in candidates:
            if isinstance(argument, ast.Lambda):
                yield self.found(
                    context,
                    argument,
                    "lambda dispatched as a worker task: closures capture their "
                    "frame and cannot cross the process boundary as pure "
                    "messages; define a module-level task callable",
                )
            elif isinstance(argument, ast.Name) and self._locally_defined(
                argument.id, scopes
            ):
                yield self.found(
                    context,
                    argument,
                    f"'{argument.id}' is defined inside the enclosing function "
                    "and dispatched as a worker task: move it (or a task class) "
                    "to module level so it is picklable and closure-free",
                )
