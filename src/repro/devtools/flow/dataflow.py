"""Interprocedural dataflow over the project graph.

Two engines live here, both deliberately small:

* a **provenance lattice** with a per-expression classifier.  Every
  expression is abstracted to one of four values — ``SEEDED`` (derives
  from an explicit seed parameter, a ``*seed*``-named binding, or a
  ``mix(...)`` derivation), ``CONST`` (a literal with no seed in its
  history), ``PARAM`` (flows unchanged from one or more named
  parameters of the enclosing function — the interprocedural handoff),
  and ``UNKNOWN`` (anything the classifier refuses to guess about).
  The join is pessimistic-for-CONST: mixing a constant with a seeded
  value stays seeded, mixing it with an unknown becomes unknown, so
  only a *provably* constant expression can ever raise SEED001.

* a **backward parameter-taint solver**: given "parameter ``p`` of
  function ``f`` must be seed-derived", walk every caller, classify
  the argument bound to ``p``, report the ``CONST`` ones with their
  call chain, and recurse through the ``PARAM`` ones.  A visited set
  on ``(function, parameter)`` makes recursion through call-graph
  cycles terminate.

A forward reachability closure (:func:`reachable_from`) supports scope
gating: SEED001 only fires on code that can run on a path into the
scanner/topology/net packages.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.devtools.flow.graph import FunctionInfo, ProjectGraph

#: Names that *carry seed provenance by convention*: ``seed``, ``seeds``,
#: ``shuffle_seed``, ``seed_material`` — any identifier with a ``seed``
#: word-segment.  The repo threads determinism through exactly this
#: naming discipline, so the lattice trusts it.
_SEEDISH = re.compile(r"(?:^|_)seeds?(?:$|_)")

#: Pure integer-shaped builtins through which provenance passes.
_TRANSPARENT_CALLS = frozenset(
    {"int", "abs", "ord", "hash", "len", "min", "max", "sum", "zlib.crc32"}
)


def is_seedish(name: str) -> bool:
    """True when a binding name carries seed provenance by convention."""
    return _SEEDISH.search(name.lower()) is not None


@dataclass(frozen=True)
class Provenance:
    """One point in the lattice; ``params`` only populated for PARAM."""

    seeded: bool = False
    const: bool = False
    unknown: bool = False
    params: "frozenset[str]" = frozenset()

    @property
    def kind(self) -> str:
        if self.seeded:
            return "SEEDED"
        if self.unknown:
            return "UNKNOWN"
        if self.params:
            return "PARAM"
        return "CONST"


SEEDED = Provenance(seeded=True)
CONST = Provenance(const=True)
UNKNOWN = Provenance(unknown=True)


def param(name: str) -> Provenance:
    return Provenance(params=frozenset({name}))


def join(values: "Iterable[Provenance]") -> Provenance:
    """Lattice join: seeded wins, then unknown, then params, then const."""
    seeded = const = unknown = False
    params: "set[str]" = set()
    for value in values:
        seeded = seeded or value.seeded
        const = const or value.const
        unknown = unknown or value.unknown
        params.update(value.params)
    if seeded:
        return SEEDED
    if unknown:
        return UNKNOWN
    if params:
        return Provenance(params=frozenset(params))
    return CONST


class ExpressionClassifier:
    """Classify expressions inside one function against the lattice."""

    def __init__(self, graph: ProjectGraph, fn: FunctionInfo) -> None:
        self._graph = graph
        self._fn = fn
        self._assignments = self._collect_assignments(fn)

    @staticmethod
    def _collect_assignments(fn: FunctionInfo) -> "dict[str, list[ast.expr]]":
        table: "dict[str, list[ast.expr]]" = {}
        for node in ast.walk(fn.node):  # type: ignore[arg-type]
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        table.setdefault(target.id, []).append(node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    table.setdefault(node.target.id, []).append(node.value)
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Name):
                    table.setdefault(node.target.id, []).append(node.value)
        return table

    def classify(self, expr: ast.expr, _depth: int = 0) -> Provenance:
        if _depth > 12:
            return UNKNOWN
        if isinstance(expr, ast.Constant):
            return CONST
        if isinstance(expr, ast.Name):
            return self._classify_name(expr.id, _depth)
        if isinstance(expr, ast.Attribute):
            # ``self.seed``, ``config.shuffle_seed`` — a seed-suffixed
            # attribute is seeded by the naming discipline; anything
            # else reaching through an object is beyond this lattice.
            return SEEDED if is_seedish(expr.attr) else UNKNOWN
        if isinstance(expr, ast.BinOp):
            return join(
                (self.classify(expr.left, _depth + 1),
                 self.classify(expr.right, _depth + 1))
            )
        if isinstance(expr, ast.UnaryOp):
            return self.classify(expr.operand, _depth + 1)
        if isinstance(expr, ast.IfExp):
            return join(
                (self.classify(expr.body, _depth + 1),
                 self.classify(expr.orelse, _depth + 1))
            )
        if isinstance(expr, ast.Call):
            return self._classify_call(expr, _depth)
        if isinstance(expr, (ast.Tuple, ast.List)):
            return join(self.classify(e, _depth + 1) for e in expr.elts)
        if isinstance(expr, ast.Starred):
            return self.classify(expr.value, _depth + 1)
        return UNKNOWN

    def _classify_name(self, name: str, depth: int) -> Provenance:
        if name in self._fn.params:
            # Even a parameter *named* ``seed`` is only as good as what
            # callers pass into it — PARAM hands the question to the
            # interprocedural solver instead of trusting the name.
            return param(name)
        if is_seedish(name):
            return SEEDED
        bindings = self._assignments.get(name)
        if bindings:
            # Join over every assignment to the name; self-referential
            # bindings (``x = x + 1``) terminate via the depth guard.
            return join(self.classify(value, depth + 1) for value in bindings)
        return UNKNOWN

    def _classify_call(self, call: ast.Call, depth: int) -> Provenance:
        resolved = self._graph.resolve_call_target(self._fn, call)
        target = resolved[0] if resolved else None
        tail = target.rsplit(".", 1)[-1] if target else ""
        if tail == "mix" or (target and target.endswith(".mix")):
            # ``mix(seed, *parts)`` confers provenance iff any ingredient
            # already has it.
            return join(self.classify(arg, depth + 1) for arg in call.args)
        if target in _TRANSPARENT_CALLS or tail in ("crc32", "int", "abs", "ord"):
            joined = join(self.classify(arg, depth + 1) for arg in call.args)
            return joined if call.args else CONST
        return UNKNOWN


@dataclass(frozen=True)
class TaintViolation:
    """A constant reached a seed-demanding sink through ``chain``."""

    function: str
    parameter: str
    line: int
    col: int
    #: Qualnames from the offending call site down to the sink.
    chain: "tuple[str, ...]"


@dataclass
class ParamTaintSolver:
    """Backward must-be-seeded propagation over the call graph."""

    graph: ProjectGraph
    _visited: "set[tuple[str, str]]" = field(default_factory=set)

    def solve(
        self,
        function: FunctionInfo,
        parameter: str,
        chain: "tuple[str, ...]",
        *,
        in_scope: "Callable[[str], bool]",
    ) -> "list[TaintViolation]":
        """Demand that ``parameter`` of ``function`` is seed-derived.

        Walks every caller: a ``CONST`` argument in scope is a
        violation, a ``PARAM`` argument pushes the demand one frame up,
        ``SEEDED``/``UNKNOWN`` arguments discharge it.
        """
        key = (function.qualname, parameter)
        if key in self._visited:
            return []
        self._visited.add(key)
        violations: "list[TaintViolation]" = []
        for site in self.graph.callers_of(function.qualname):
            caller = self.graph.functions.get(site.caller)
            if caller is None or site.dynamic:
                continue
            bound = self.graph.bind_arguments(function, site.node)
            argument = bound.get(parameter)
            if argument is None:
                argument = function.defaults.get(parameter)
                if argument is None:
                    continue  # *args/**kwargs forwarding: stay quiet
            classifier = ExpressionClassifier(self.graph, caller)
            verdict = classifier.classify(argument)
            next_chain = (site.caller,) + chain
            if verdict.kind == "CONST":
                if in_scope(site.caller):
                    violations.append(
                        TaintViolation(
                            function=site.caller,
                            parameter=parameter,
                            line=site.node.lineno,
                            col=site.node.col_offset,
                            chain=next_chain,
                        )
                    )
            elif verdict.kind == "PARAM":
                for upstream in sorted(verdict.params):
                    violations.extend(
                        self.solve(
                            caller, upstream, next_chain, in_scope=in_scope
                        )
                    )
        return violations


def reachable_from(graph: ProjectGraph, roots: "Iterable[str]") -> "set[str]":
    """Forward closure: every function reachable from ``roots`` edges."""
    seen: "set[str]" = set()
    frontier = [root for root in roots if root in graph.functions]
    while frontier:
        current = frontier.pop()
        if current in seen:
            continue
        seen.add(current)
        for site in graph.callees_of(current):
            callee = site.callee
            if callee in graph.classes:
                init = graph.init_of(callee)
                if init is not None:
                    callee = init.qualname
            if callee in graph.functions and callee not in seen:
                frontier.append(callee)
    return seen


def scope_predicate(
    graph: ProjectGraph, packages: "tuple[str, ...]"
) -> "Callable[[str], bool]":
    """``in_scope(qualname)``: defined in, or reachable from, ``packages``.

    A helper in ``repro.util`` is in scope exactly when some function or
    module body inside the scoped packages can reach it — that is the
    "anywhere on a path into scanner/topology/net" condition.
    """
    roots = [
        qualname
        for qualname, fn in graph.functions.items()
        if any(
            fn.module == pkg or fn.module.startswith(pkg + ".")
            for pkg in packages
        )
    ]
    closure = reachable_from(graph, roots)

    def in_scope(qualname: str) -> bool:
        fn = graph.functions.get(qualname)
        if fn is None:
            return False
        if any(
            fn.module == pkg or fn.module.startswith(pkg + ".")
            for pkg in packages
        ):
            return True
        return qualname in closure

    return in_scope


__all__ = [
    "CONST",
    "SEEDED",
    "UNKNOWN",
    "ExpressionClassifier",
    "ParamTaintSolver",
    "Provenance",
    "TaintViolation",
    "is_seedish",
    "join",
    "param",
    "reachable_from",
    "scope_predicate",
]
