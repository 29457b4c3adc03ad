"""Static determinism / fork-safety contract analyzer.

The library's core promise — bit-identical solutions for any worker count,
pool size or backend (the deterministic-reduction contract of
:mod:`repro.parallel.block_backend`) — rests on a handful of coding
invariants that the runtime golden/hypothesis suites can only *sample*:

* no unseeded randomness in library code (**DET001**),
* no wall-clock or entropy sources inside the numeric packages — timing goes
  through the sanctioned :func:`repro.timing.wall_clock` facade (**DET002**),
* no accumulation over unordered (dict/set) iteration in the operator /
  matvec modules, where summation order is the determinism contract itself
  (**DET003**),
* every long-lived :class:`threading.Lock` re-armed after ``fork()`` by an
  ``os.register_at_fork`` ``after_in_child`` hook in the module that creates
  it (**FORK001**),
* worker tasks dispatched to :class:`~repro.parallel.pool.WorkerPool` /
  :class:`~repro.parallel.executor.ScheduledExecutor` must be module-level
  callables, never closures (**MSG001**) — both ship their task to the
  workers by pickle, so a closure also fails at runtime, before any chunk
  runs,
* no exact floating-point ``==`` / ``!=`` outside tests (**API001**).

:mod:`repro.contracts` enforces them *statically*, at CI time, over the whole
tree: an AST pass with a :class:`~repro.contracts.engine.Rule` battery,
``# contracts: disable=RULE-ID -- justification`` pragmas (the justification
is mandatory), JSON + human reporters and exit-code gating::

    python -m repro.contracts check src

The analyzer itself honours the determinism contract: findings are reported
sorted by ``(path, line, column, rule id)`` regardless of filesystem walk
order or the order paths are given in.
"""

from __future__ import annotations

from repro.contracts.engine import ModuleContext, Rule, analyze_paths, analyze_source
from repro.contracts.findings import Finding, Report
from repro.contracts.report import render_human, render_json, report_from_json
from repro.contracts.rules import default_rules

__all__ = [
    "Finding",
    "ModuleContext",
    "Report",
    "Rule",
    "analyze_paths",
    "analyze_source",
    "default_rules",
    "render_human",
    "render_json",
    "report_from_json",
]
