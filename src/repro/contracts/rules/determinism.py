"""Determinism rules: DET001 (RNG), DET002 (wall clock), DET003 (reductions).

These encode the invariants behind the deterministic-reduction contract: the
numeric pipeline must be a pure function of its inputs (no entropy, no
clock-dependent values feeding results) and every floating-point reduction
must run in a canonical order (the pairwise tree-sum of
:func:`repro.cluster.operator.pairwise_tree_sum`), because summation
order is exactly what the bit-identical-for-any-worker-count promise pins
down.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.contracts.engine import ModuleContext, resolved_call_name
from repro.contracts.findings import Finding
from repro.contracts.rules import ContractRule

__all__ = ["AccumulationOrderRule", "UnseededRandomRule", "WallClockRule"]


def _first_argument(call: ast.Call) -> ast.AST | None:
    if call.args:
        return call.args[0]
    return None


def _is_none(node: ast.AST | None) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


class UnseededRandomRule(ContractRule):
    """DET001 — no unseeded randomness in library code.

    Flags the legacy module-level ``numpy.random`` samplers (they draw from
    hidden global state), ``default_rng()`` / ``RandomState()`` without an
    explicit seed, the stdlib ``random`` module samplers and
    ``random.SystemRandom`` (OS entropy).  Test and benchmark code is exempt;
    library code must thread an explicitly seeded generator.
    """

    rule_id = "DET001"
    title = "no unseeded randomness outside tests/ and benchmarks/"
    node_types = (ast.Call,)

    #: numpy.random attributes that are fine to call (seedable constructors
    #: and state plumbing) — everything else on the module is a global-state
    #: sampler.
    _NUMPY_ALLOWED = {"default_rng", "Generator", "RandomState", "SeedSequence"}
    #: seedable constructors checked for a missing/None seed argument.
    _SEEDABLE = {"numpy.random.default_rng", "numpy.random.RandomState"}
    _STDLIB_SAMPLERS = {
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample", "seed",
        "shuffle", "triangular", "uniform", "vonmisesvariate",
        "weibullvariate",
    }  # fmt: skip

    def visit_node(self, node: ast.Call, context: ModuleContext) -> Iterable[Finding]:
        name = resolved_call_name(node, context)
        if name is None:
            return
        if name in self._SEEDABLE:
            seed = _first_argument(node)
            if seed is None:
                for keyword in node.keywords:
                    if keyword.arg == "seed":
                        seed = keyword.value
                        break
            if seed is None or _is_none(seed):
                yield self.found(
                    context,
                    node,
                    f"{name.rsplit('.', 1)[-1]}() without an explicit seed is "
                    "nondeterministic; thread a seeded generator instead",
                )
            return
        if name.startswith("numpy.random."):
            attribute = name.rsplit(".", 1)[-1]
            if attribute not in self._NUMPY_ALLOWED:
                yield self.found(
                    context,
                    node,
                    f"module-level numpy.random.{attribute}() draws from hidden "
                    "global state; use an explicitly seeded "
                    "numpy.random.default_rng(seed)",
                )
            return
        root, _, attribute = name.partition(".")
        if root == "random" and context.imports.get("random") == "random":
            if attribute in self._STDLIB_SAMPLERS:
                yield self.found(
                    context,
                    node,
                    f"stdlib random.{attribute}() draws from hidden global state; "
                    "use an explicitly seeded generator",
                )
            elif attribute == "SystemRandom":
                yield self.found(
                    context,
                    node,
                    "random.SystemRandom draws OS entropy and can never be "
                    "seeded; results would be irreproducible",
                )


class WallClockRule(ContractRule):
    """DET002 — no wall-clock / entropy sources inside the numeric packages.

    Within ``repro.bem``, ``repro.cluster``, ``repro.kernels`` and
    ``repro.parallel``, calls to the clock and entropy primitives are
    forbidden: a clock-dependent value that leaks into a numeric result (or
    into work partitioning) silently breaks the bit-identical contract.
    Observability timing goes through the sanctioned facade
    :func:`repro.timing.wall_clock`; only ``repro.timing`` itself (and
    benchmark code) may read the clock.
    """

    rule_id = "DET002"
    title = "no wall-clock/entropy sources inside numeric packages"
    node_types = (ast.Call,)

    SCOPED_PACKAGES = ("repro.bem", "repro.cluster", "repro.kernels", "repro.parallel")
    ALLOWED_MODULES = ("repro.timing",)

    _FORBIDDEN = {
        "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
        "time.monotonic", "time.monotonic_ns", "time.process_time",
        "time.process_time_ns", "time.clock_gettime", "time.clock_gettime_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
        "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
        "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
        "secrets.randbelow", "secrets.choice",
    }  # fmt: skip

    def applies_to(self, context: ModuleContext) -> bool:
        if context.is_test_code or context.module is None:
            return False
        if context.module in self.ALLOWED_MODULES:
            return False
        return any(
            context.module == package or context.module.startswith(package + ".")
            for package in self.SCOPED_PACKAGES
        )

    def visit_node(self, node: ast.Call, context: ModuleContext) -> Iterable[Finding]:
        name = resolved_call_name(node, context)
        if name in self._FORBIDDEN:
            yield self.found(
                context,
                node,
                f"{name}() inside numeric package {context.module}: clock/entropy "
                "values must not exist where they could feed results; route "
                "observability timing through repro.timing.wall_clock()",
            )


def _is_unordered_iterable(node: ast.AST) -> str | None:
    """A label when ``node`` iterates in dict/set (unordered-contract) order."""
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "values",
            "items",
            "keys",
        ):
            return f"dict .{node.func.attr}()"
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return node.func.id + "(...)"
    if isinstance(node, ast.SetComp):
        return "set comprehension"
    if isinstance(node, ast.Set):
        return "set literal"
    return None


class AccumulationOrderRule(ContractRule):
    """DET003 — canonical accumulation order in operator/matvec modules.

    In the modules whose floating-point summation order *is* the determinism
    contract (the hierarchical operator and its block builder), flags
    ``sum()`` over dict/set iteration, ``+=`` accumulation inside loops over
    dict/set iteration, and ``numpy.add.reduce`` — all of which tie the
    result to insertion/hash order or to a non-canonical reduction tree.
    Reductions there must run over explicitly ordered sequences, pairwise via
    :func:`repro.cluster.operator.pairwise_tree_sum`.
    """

    rule_id = "DET003"
    title = "no accumulation over unordered iteration in operator/matvec modules"
    node_types = (ast.Call, ast.For)

    SCOPED_PREFIXES = ("repro.cluster",)
    SCOPED_MODULES = (
        "repro.parallel.block_backend",
        "repro.parallel.pool",
    )

    def applies_to(self, context: ModuleContext) -> bool:
        if context.is_test_code or context.module is None:
            return False
        return context.module in self.SCOPED_MODULES or any(
            context.module == prefix or context.module.startswith(prefix + ".")
            for prefix in self.SCOPED_PREFIXES
        )

    def visit_node(self, node: ast.AST, context: ModuleContext) -> Iterable[Finding]:
        if isinstance(node, ast.Call):
            name = resolved_call_name(node, context)
            if name == "numpy.add.reduce":
                yield self.found(
                    context,
                    node,
                    "numpy.add.reduce applies a non-canonical reduction tree; "
                    "use repro.cluster.operator.pairwise_tree_sum so the "
                    "summation order is part of the contract",
                )
                return
            if name == "sum" and node.args:
                target = node.args[0]
                if isinstance(target, (ast.GeneratorExp, ast.ListComp)):
                    target = target.generators[0].iter
                label = _is_unordered_iterable(target)
                if label is not None:
                    yield self.found(
                        context,
                        node,
                        f"sum() over {label} accumulates in dict/set order; "
                        "iterate an explicitly ordered sequence (sorted keys) "
                        "or reduce with repro.cluster.operator.pairwise_tree_sum",
                    )
            return
        # ast.For: += accumulation inside a loop over unordered iteration.
        assert isinstance(node, ast.For)
        label = _is_unordered_iterable(node.iter)
        if label is None:
            return
        for child in ast.walk(node):
            if isinstance(child, ast.AugAssign) and isinstance(child.op, ast.Add):
                yield self.found(
                    context,
                    child,
                    f"'+=' accumulation inside a loop over {label} depends on "
                    "dict/set order; iterate an explicitly ordered sequence or "
                    "reduce with repro.cluster.operator.pairwise_tree_sum",
                )
