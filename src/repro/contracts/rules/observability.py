"""Observability rule: OBS001 (phase bookkeeping through the sanctioned layer).

PR after PR, elapsed-time bookkeeping used to accrete as hand-rolled dicts:
``timings = {...}`` literals seeded with ``*_seconds`` keys and
``timings["phase"] += wall_clock() - start`` deltas scattered through the
pipeline layers.  :mod:`repro.observe` (and the :class:`repro.timing.Timer` /
:class:`repro.timing.PhaseTimer` helpers) replaced that idiom with one
runtime; **OBS001** keeps it replaced by flagging the two shapes that start a
new ad-hoc accumulator inside ``repro.bem``, ``repro.cluster``,
``repro.solvers``, ``repro.parallel`` and ``repro.campaign``:

* a dict *literal* assigned to a ``timings`` / ``stats`` / ``_stats`` /
  ``cache_stats`` name that already carries ``*_seconds`` keys — phase tables
  belong in a :class:`~repro.timing.PhaseTimer` (or a
  :class:`~repro.observe.MetricsRegistry`) so they export uniformly;
* an assignment (or ``+=``) into a subscript of one of those names — or into
  any ``...["*_seconds"]`` slot — whose right-hand side folds a
  :func:`repro.timing.wall_clock` call directly, i.e. raw
  ``d[k] = wall_clock() - start`` delta bookkeeping.

No module is allowlisted: the measurement studies live in
:mod:`repro.experiments.scaling`, outside the scoped packages, and a module
that deliberately keeps a legacy stats payload can carry a
``# contracts: disable-file=OBS001 -- <why>`` pragma.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.contracts.engine import ModuleContext, resolved_call_name
from repro.contracts.findings import Finding
from repro.contracts.rules import ContractRule

__all__ = ["PhaseBookkeepingRule"]

#: Accumulator names whose dict literals / subscript stores are scrutinised.
_BOOKKEEPING_NAMES = ("timings", "stats", "_stats", "cache_stats")


def _target_name(node: ast.AST) -> str | None:
    """The bare name of an assignment target (``x`` or ``obj.x``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _seconds_key(node: ast.AST | None) -> bool:
    """Whether a dict key / subscript slice is a ``*_seconds`` string."""
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.endswith("_seconds")
    )


class PhaseBookkeepingRule(ContractRule):
    """OBS001 — no new ad-hoc timing dicts outside ``repro.observe``."""

    rule_id = "OBS001"
    title = "phase/stat bookkeeping goes through repro.observe or repro.timing helpers"
    node_types = (ast.Assign, ast.AnnAssign, ast.AugAssign)

    SCOPED_PACKAGES = (
        "repro.bem",
        "repro.cluster",
        "repro.solvers",
        "repro.parallel",
        "repro.campaign",
    )

    def applies_to(self, context: ModuleContext) -> bool:
        if context.is_test_code or context.module is None:
            return False
        return any(
            context.module == package or context.module.startswith(package + ".")
            for package in self.SCOPED_PACKAGES
        )

    def visit_node(self, node: ast.AST, context: ModuleContext) -> Iterable[Finding]:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            yield from self._check_dict_literal(node, context)
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            yield from self._check_clock_delta(node, context)

    # -- finding 1: timing-table dict literals ------------------------------

    def _check_dict_literal(
        self, node: ast.Assign | ast.AnnAssign, context: ModuleContext
    ) -> Iterable[Finding]:
        value = node.value
        if not isinstance(value, ast.Dict):
            return
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = {_target_name(target) for target in targets}
        if not names.intersection(_BOOKKEEPING_NAMES):
            return
        if not any(_seconds_key(key) for key in value.keys):
            return
        yield self.found(
            context,
            node,
            "dict literal seeds an ad-hoc phase-timing table (*_seconds keys); "
            "accumulate through repro.timing.PhaseTimer or a repro.observe "
            "MetricsRegistry so timings export uniformly",
        )

    # -- finding 2: raw wall_clock deltas stored by subscript ---------------

    def _check_clock_delta(
        self,
        node: ast.Assign | ast.AnnAssign | ast.AugAssign,
        context: ModuleContext,
    ) -> Iterable[Finding]:
        targets: list[ast.expr] = (
            list(node.targets) if isinstance(node, ast.Assign) else [node.target]
        )
        value = node.value
        if value is None:  # annotation-only AnnAssign
            return
        for target in targets:
            if not isinstance(target, ast.Subscript):
                continue
            base = _target_name(target.value)
            if base not in _BOOKKEEPING_NAMES and not _seconds_key(target.slice):
                continue
            if not self._contains_clock_call(value, context):
                continue
            yield self.found(
                context,
                node,
                "raw wall_clock() delta folded straight into a bookkeeping "
                "dict; time the block with repro.timing.Timer/PhaseTimer or "
                "MetricsRegistry.timer() instead",
            )
            return

    #: Every import path the sanctioned clock facade is reachable under.
    _CLOCK_CALLS = frozenset(
        {
            "repro.timing.wall_clock",
            "repro.observe.wall_clock",
        }
    )

    @classmethod
    def _contains_clock_call(cls, value: ast.AST, context: ModuleContext) -> bool:
        for child in ast.walk(value):
            if isinstance(child, ast.Call):
                name = resolved_call_name(child, context)
                if name in cls._CLOCK_CALLS:
                    return True
        return False
