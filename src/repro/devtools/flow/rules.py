"""The three flow rule families: SEED001, FORK001, RES001.

Unlike the per-file lint rules, each of these walks the whole
:class:`~repro.devtools.flow.graph.ProjectGraph`:

* **SEED001** — seed-provenance taint.  Every ``random.Random(...)``
  and ``mix(...)`` stream on a path into ``repro.scanner`` /
  ``repro.topology`` / ``repro.net`` must trace back to an explicit
  seed parameter or a ``(seed, slot)`` derivation.  A provably-constant
  seed is flagged where the constant enters, with the full call chain
  down to the RNG; the no-argument form is DET001's business and is
  deliberately not re-reported here.

* **FORK001** — fork/IPC safety.  Values captured into ``WorkerPool``
  runners (and anything they transitively construct, ``self`` of the
  constructing campaign included) must be free of open handles,
  ``threading`` locks, and references to mutable module globals: all
  three either break under copy-on-write fork semantics or silently
  fork shared state.  Arguments handed to the ``repro.scanner.wire``
  codec get the same shallow audit.

* **RES001** — resource lifecycle.  Handles (``open``, sockets,
  multiprocessing queues/pools, temp files) and project resource
  classes (anything whose ``__init__`` acquires such a handle into an
  attribute) must be released on every path: locals never released,
  locals released only on the fall-through path, constructors that can
  raise after acquiring, and resource attributes no method ever
  releases are each distinct findings.

Findings do not support inline suppression comments — the ratcheting
baseline (:mod:`repro.devtools.flow.baseline`) is the only escape
hatch, and it may only shrink.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.devtools.flow.dataflow import (
    ExpressionClassifier,
    ParamTaintSolver,
    join,
    scope_predicate,
)
from repro.devtools.flow.graph import (
    MODULE_BODY,
    ClassInfo,
    FunctionInfo,
    ProjectGraph,
)
from repro.devtools.lint.rules import dotted_name

#: Packages whose reachable code demands threaded seeds (SEED001 scope).
SEED_SCOPE: "tuple[str, ...]" = ("repro.scanner", "repro.topology", "repro.net")

#: Fully qualified callables whose *result* is an acquired resource.
_ACQUIRING_CALLS = frozenset(
    {
        "open",
        "socket.socket",
        "socket.create_connection",
        "tempfile.TemporaryFile",
        "tempfile.NamedTemporaryFile",
        "tempfile.mkstemp",
    }
)

#: Attribute tails that acquire regardless of the receiver: a
#: ``.open(...)``, ``.SimpleQueue()``, ``.Pool()`` on anything.
_ACQUIRING_TAILS = frozenset({"open", "SimpleQueue", "Pool", "Queue", "JoinableQueue"})

#: Receiver tails that make ``.open`` / ``.Queue`` style calls benign —
#: archives and in-process queue modules are not leaked OS handles.
_BENIGN_TAIL_RECEIVERS = frozenset({"queue", "gzip", "tarfile", "zipfile"})

#: Method names accepted as releasing a resource.
_RELEASE_METHODS = frozenset(
    {"close", "terminate", "shutdown", "release", "stop", "cancel", "__exit__"}
)

#: Constructors whose instances must never cross a fork boundary.
_LOCK_LIKE = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Event",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
    }
)

#: Wire-codec entry points whose payloads FORK001 audits.
_WIRE_FUNCTIONS = ("repro.scanner.wire.encode_observations",)

#: Transitive-audit depth for FORK001 captured object graphs.
_CAPTURE_DEPTH = 4


@dataclass(frozen=True)
class FlowFinding:
    """One analyzer finding, position-resolved to a source location."""

    rule: str
    path: str
    line: int
    col: int
    symbol: str
    message: str
    #: Call chain (outermost first) for interprocedural findings.
    chain: "tuple[str, ...]" = ()

    def fingerprint(self) -> "tuple[str, str, str]":
        """Line-insensitive identity used by the ratcheting baseline."""
        return (self.rule, self.path, self.symbol)


FLOW_RULES: "dict[str, str]" = {
    "SEED001": "RNG streams on scanner/topology/net paths must derive from "
    "an explicit seed parameter or (seed, slot) derivation",
    "FORK001": "state captured into WorkerPool runners or the wire codec "
    "must be free of handles, locks, and mutable module globals",
    "RES001": "acquired resources must be released on all paths, "
    "exceptional ones included",
}


def _assignment_pairs(
    stmt: ast.stmt,
) -> "Iterator[tuple[ast.expr, ast.expr]]":
    """``(target, value)`` pairs for plain and annotated assignments."""
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            yield target, stmt.value
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        yield stmt.target, stmt.value


def _self_attr(target: ast.expr) -> "str | None":
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return target.attr
    return None


def _finding(
    graph: ProjectGraph,
    rule: str,
    fn: FunctionInfo,
    node: ast.AST,
    message: str,
    chain: "tuple[str, ...]" = (),
) -> FlowFinding:
    module = graph.modules.get(fn.module)
    return FlowFinding(
        rule=rule,
        path=module.path if module is not None else "<unknown>",
        line=getattr(node, "lineno", fn.line()),
        col=getattr(node, "col_offset", 0),
        symbol=fn.qualname,
        message=message,
        chain=chain,
    )


def _iter_functions(graph: ProjectGraph) -> "Iterator[FunctionInfo]":
    yield from graph.functions.values()


# ---------------------------------------------------------------------------
# SEED001 — seed-provenance taint
# ---------------------------------------------------------------------------


def _seed_expression(call: ast.Call) -> "ast.expr | None":
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg in ("x", "seed"):
            return keyword.value
    return None


def check_seed_provenance(graph: ProjectGraph) -> "list[FlowFinding]":
    in_scope = scope_predicate(graph, SEED_SCOPE)
    findings: "list[FlowFinding]" = []
    solver = ParamTaintSolver(graph)
    for fn in _iter_functions(graph):
        sites = graph.callees_of(fn.qualname)
        # A ``mix(...)`` feeding directly into a Random call is covered
        # by the Random site's classification; don't report it twice.
        absorbed: "set[int]" = set()
        for site in sites:
            if site.callee in ("random.Random", "numpy.random.default_rng"):
                for nested in ast.walk(site.node):
                    if isinstance(nested, ast.Call) and nested is not site.node:
                        absorbed.add(id(nested))
        for site in sites:
            target = site.callee
            is_random = target in ("random.Random", "numpy.random.default_rng")
            is_mix = target.endswith(".mix") and target in graph.functions
            if not (is_random or is_mix):
                continue
            if is_random:
                seed_expr = _seed_expression(site.node)
                if seed_expr is None:
                    continue  # unseeded form: DET001 territory
                verdict = ExpressionClassifier(graph, fn).classify(seed_expr)
            else:
                if not site.node.args or id(site.node) in absorbed:
                    continue
                classifier = ExpressionClassifier(graph, fn)
                verdict = join(
                    classifier.classify(arg) for arg in site.node.args
                )
            what = target.rsplit(".", 1)[-1]
            if verdict.kind == "CONST":
                if in_scope(fn.qualname):
                    findings.append(
                        _finding(
                            graph,
                            "SEED001",
                            fn,
                            site.node,
                            f"{what}(...) seeded from a constant with no "
                            f"seed-parameter provenance; thread the campaign "
                            f"seed (or a mix(seed, slot) derivation) instead",
                            chain=(fn.qualname,),
                        )
                    )
            elif verdict.kind == "PARAM":
                for parameter in sorted(verdict.params):
                    for violation in solver.solve(
                        fn, parameter, (fn.qualname,), in_scope=in_scope
                    ):
                        offender = graph.functions.get(violation.function)
                        if offender is None:
                            continue
                        findings.append(
                            _finding(
                                graph,
                                "SEED001",
                                offender,
                                _at(violation.line, violation.col),
                                f"constant flows into parameter "
                                f"'{violation.parameter}' and reaches "
                                f"{what}(...) via "
                                f"{' -> '.join(violation.chain)}; derive it "
                                f"from an explicit seed",
                                chain=violation.chain,
                            )
                        )
    return findings


def _at(line: int, col: int) -> ast.AST:
    marker = ast.Pass()
    marker.lineno = line
    marker.col_offset = col
    return marker


# ---------------------------------------------------------------------------
# FORK001 — fork/IPC capture safety
# ---------------------------------------------------------------------------


def _is_acquiring_call(graph: ProjectGraph, fn: FunctionInfo, call: ast.Call) -> bool:
    resolved = graph.resolve_call_target(fn, call)
    if resolved is None or resolved[1]:
        # Unresolved or dynamic-attr receiver: fall back to the spelled
        # name — ``anything.open(...)`` acquires unless the receiver is
        # a known-benign module.
        name = dotted_name(call.func)
        if name is None:
            return False
        parts = name.split(".")
        if len(parts) >= 2 and parts[-1] in _ACQUIRING_TAILS:
            return parts[-2] not in _BENIGN_TAIL_RECEIVERS
        return False
    target = resolved[0]
    if target in _ACQUIRING_CALLS:
        return True
    head, _, tail = target.rpartition(".")
    if tail in _ACQUIRING_TAILS and target not in graph.functions:
        return head.rsplit(".", 1)[-1] not in _BENIGN_TAIL_RECEIVERS
    return False


def _is_lock_like(graph: ProjectGraph, fn: FunctionInfo, call: ast.Call) -> bool:
    resolved = graph.resolve_call_target(fn, call)
    return resolved is not None and not resolved[1] and resolved[0] in _LOCK_LIKE


@dataclass
class _CaptureAuditor:
    """Transitively audit state captured into a fork-crossing object."""

    graph: ProjectGraph
    findings: "list[FlowFinding]"
    _visited: "set[str]" = field(default_factory=set)

    def audit_class(
        self, cls_info: ClassInfo, chain: "tuple[str, ...]", depth: int
    ) -> None:
        if depth > _CAPTURE_DEPTH or cls_info.qualname in self._visited:
            return
        self._visited.add(cls_info.qualname)
        init = self.graph.init_of(cls_info.qualname)
        if init is None:
            return
        for stmt in ast.walk(init.node):  # type: ignore[arg-type]
            for target, value in _assignment_pairs(stmt):
                attr = _self_attr(target)
                if attr is None:
                    continue
                self.audit_value(
                    value,
                    init,
                    chain + (f"{cls_info.qualname}.{attr}",),
                    depth,
                    attr=attr,
                )

    def audit_value(
        self,
        expr: ast.expr,
        fn: FunctionInfo,
        chain: "tuple[str, ...]",
        depth: int,
        *,
        attr: "str | None" = None,
    ) -> None:
        where = f"attribute '{attr}'" if attr else "captured value"
        if isinstance(expr, ast.Call):
            if _is_lock_like(self.graph, fn, expr):
                self._flag(fn, expr, chain, f"{where} holds a threading lock")
                return
            if _is_acquiring_call(self.graph, fn, expr):
                self._flag(fn, expr, chain, f"{where} holds an open handle")
                return
            resolved = self.graph.resolve_call_target(fn, expr)
            if resolved is not None and not resolved[1]:
                cls_info = self.graph.classes.get(resolved[0])
                if cls_info is not None:
                    self.audit_class(cls_info, chain, depth + 1)
                    self._audit_constructor_args(expr, fn, cls_info, chain, depth)
            return
        if isinstance(expr, ast.Name):
            module = self.graph.modules.get(fn.module)
            if module is not None and expr.id in module.mutable_globals:
                self._flag(
                    fn,
                    expr,
                    chain,
                    f"{where} references mutable module global '{expr.id}'",
                )
            elif expr.id == "self" and fn.class_name is not None:
                owner = self.graph.classes.get(f"{fn.module}.{fn.class_name}")
                if owner is not None:
                    self.audit_class(owner, chain + (owner.qualname,), depth + 1)
            return
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for element in expr.elts:
                self.audit_value(element, fn, chain, depth, attr=attr)
        elif isinstance(expr, ast.Dict):
            for value in expr.values:
                if value is not None:
                    self.audit_value(value, fn, chain, depth, attr=attr)

    def _audit_constructor_args(
        self,
        call: ast.Call,
        fn: FunctionInfo,
        cls_info: ClassInfo,
        chain: "tuple[str, ...]",
        depth: int,
    ) -> None:
        for argument in list(call.args) + [
            kw.value for kw in call.keywords if kw.arg is not None
        ]:
            self.audit_value(
                argument, fn, chain + (cls_info.qualname,), depth + 1
            )

    def _flag(
        self,
        fn: FunctionInfo,
        node: ast.AST,
        chain: "tuple[str, ...]",
        message: str,
    ) -> None:
        self.findings.append(
            _finding(
                self.graph,
                "FORK001",
                fn,
                node,
                # The capture chain is carried structurally (and shown
                # by the reporters); keeping it out of the message lets
                # the same defect found via two pool sites deduplicate.
                f"{message}; it crosses the fork/IPC boundary and will "
                f"not survive it",
                chain=chain,
            )
        )


def check_fork_safety(graph: ProjectGraph) -> "list[FlowFinding]":
    findings: "list[FlowFinding]" = []
    pool_class = graph.resolve_class("repro.scanner.pool.WorkerPool")
    pool_targets = {"repro.scanner.pool.WorkerPool"}
    if pool_class is not None:
        pool_targets.add(pool_class.qualname)
    for fn in _iter_functions(graph):
        for site in graph.callees_of(fn.qualname):
            if site.callee in pool_targets and not site.dynamic:
                runner_expr: "ast.expr | None" = None
                for keyword in site.node.keywords:
                    if keyword.arg == "runner":
                        runner_expr = keyword.value
                if runner_expr is None and site.node.args:
                    runner_expr = site.node.args[0]
                if runner_expr is None:
                    continue
                auditor = _CaptureAuditor(graph, findings)
                auditor.audit_value(
                    runner_expr, fn, (fn.qualname, "WorkerPool(runner=...)"), 0
                )
            elif site.callee in _WIRE_FUNCTIONS and not site.dynamic:
                auditor = _CaptureAuditor(graph, findings)
                for argument in site.node.args:
                    auditor.audit_value(
                        argument, fn, (fn.qualname, "wire codec"), 0
                    )
    return findings


# ---------------------------------------------------------------------------
# RES001 — resource lifecycle
# ---------------------------------------------------------------------------


def resource_classes(graph: ProjectGraph) -> "dict[str, list[str]]":
    """Class qualname -> attributes its ``__init__`` acquires directly."""
    table: "dict[str, list[str]]" = {}
    for cls_info in graph.classes.values():
        init = cls_info.methods.get("__init__")
        if init is None:
            continue
        acquired: "list[str]" = []
        for stmt in ast.walk(init.node):  # type: ignore[arg-type]
            for target, value in _assignment_pairs(stmt):
                if not isinstance(value, ast.Call):
                    continue
                if not _is_acquiring_call(graph, init, value):
                    continue
                attr = _self_attr(target)
                if attr is not None and attr not in acquired:
                    acquired.append(attr)
        if acquired:
            table[cls_info.qualname] = acquired
    return table


def _release_sites(
    body: "Sequence[ast.stmt]", names: "set[str]"
) -> "list[tuple[ast.Call, bool]]":
    """``(call, in_finally_or_with)`` for every release of ``names``."""
    sites: "list[tuple[ast.Call, bool]]" = []

    def visit(stmts: "Sequence[ast.stmt]", protected: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Try):
                visit(stmt.body, protected)
                for handler in stmt.handlers:
                    visit(handler.body, True)
                visit(stmt.orelse, protected)
                visit(stmt.finalbody, True)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                visit(stmt.body, protected)
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _RELEASE_METHODS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in names
                ):
                    sites.append((node, protected))
            for child_body in _nested_bodies(stmt):
                visit(child_body, protected)

    visit(body, False)
    return sites


def _nested_bodies(stmt: ast.stmt) -> "Iterator[Sequence[ast.stmt]]":
    if isinstance(stmt, (ast.If, ast.For, ast.AsyncFor, ast.While)):
        yield stmt.body
        yield stmt.orelse
    elif isinstance(stmt, ast.Match):
        for case in stmt.cases:
            yield case.body


def _escapes(fn: FunctionInfo, name: str) -> bool:
    """True when ``name`` outlives the function: returned, yielded,
    stored into an attribute/container, aliased, or handed to a call
    other than its own release."""
    for node in ast.walk(fn.node):  # type: ignore[arg-type]
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            value = node.value
            if value is not None and _mentions(value, name):
                return True
        elif isinstance(node, ast.Assign):
            if _mentions(node.value, name):
                for target in node.targets:
                    if not isinstance(target, ast.Name):
                        return True  # self.x = h, d[k] = h
                    if target.id != name:
                        return True  # alias: other = h
        elif isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == name
            ):
                continue  # h.write(...), h.close(...)
            for argument in list(node.args) + [kw.value for kw in node.keywords]:
                if _mentions(argument, name):
                    return True
    return False


def _mentions(expr: ast.expr, name: str) -> bool:
    return any(
        isinstance(node, ast.Name)
        and node.id == name
        and isinstance(node.ctx, ast.Load)
        for node in ast.walk(expr)
    )


def _with_bound_names(fn: FunctionInfo) -> "set[int]":
    """ids() of acquisition calls used as ``with`` context expressions."""
    managed: "set[int]" = set()
    for node in ast.walk(fn.node):  # type: ignore[arg-type]
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                for call in ast.walk(item.context_expr):
                    if isinstance(call, ast.Call):
                        managed.add(id(call))
    return managed


def check_resource_lifecycle(graph: ProjectGraph) -> "list[FlowFinding]":
    findings: "list[FlowFinding]" = []
    project_resources = resource_classes(graph)
    findings.extend(_check_unreleased_attrs(graph, project_resources))
    findings.extend(_check_constructor_leaks(graph, project_resources))
    findings.extend(_check_local_lifecycles(graph, project_resources))
    return findings


def _acquires(
    graph: ProjectGraph,
    fn: FunctionInfo,
    call: ast.Call,
    project_resources: "dict[str, list[str]]",
) -> bool:
    if _is_acquiring_call(graph, fn, call):
        return True
    resolved = graph.resolve_call_target(fn, call)
    return (
        resolved is not None
        and not resolved[1]
        and resolved[0] in project_resources
    )


def _check_unreleased_attrs(
    graph: ProjectGraph, project_resources: "dict[str, list[str]]"
) -> "list[FlowFinding]":
    """A class that acquires into ``self.x`` must have *some* method
    releasing ``self.x`` (close/__exit__/__del__/...)."""
    findings: "list[FlowFinding]" = []
    for class_qual, attrs in sorted(project_resources.items()):
        cls_info = graph.classes[class_qual]
        released: "set[str]" = set()
        for method in cls_info.methods.values():
            for node in ast.walk(method.node):  # type: ignore[arg-type]
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _RELEASE_METHODS
                    and isinstance(node.func.value, ast.Attribute)
                    and isinstance(node.func.value.value, ast.Name)
                    and node.func.value.value.id == "self"
                ):
                    released.add(node.func.value.attr)
        init = cls_info.methods["__init__"]
        for attr in attrs:
            if attr not in released:
                findings.append(
                    _finding(
                        graph,
                        "RES001",
                        init,
                        init.node,
                        f"{cls_info.name} acquires 'self.{attr}' but no "
                        f"method ever releases it; every handle the class "
                        f"opens must have a release path",
                    )
                )
    return findings


def _check_constructor_leaks(
    graph: ProjectGraph, project_resources: "dict[str, list[str]]"
) -> "list[FlowFinding]":
    """After ``self.x = acquire()`` the rest of ``__init__`` can raise —
    and no ``__exit__`` will ever run for a half-built object — so any
    risky statement after the acquisition must sit in a try whose
    handler or finally releases the attribute."""
    findings: "list[FlowFinding]" = []
    for class_qual, attrs in sorted(project_resources.items()):
        cls_info = graph.classes[class_qual]
        init = cls_info.methods["__init__"]
        body = list(init.node.body)  # type: ignore[union-attr]
        for position, stmt in enumerate(body):
            acquired_attr: "str | None" = None
            for target, value in _assignment_pairs(stmt):
                attr = _self_attr(target)
                if (
                    attr in attrs
                    and isinstance(value, ast.Call)
                    and _is_acquiring_call(graph, init, value)
                ):
                    acquired_attr = attr
            if acquired_attr is None:
                continue
            attr = acquired_attr
            leak_stmt = _first_unguarded_risk(body[position + 1:], attr)
            if leak_stmt is not None:
                findings.append(
                    _finding(
                        graph,
                        "RES001",
                        init,
                        leak_stmt,
                        f"{cls_info.name}.__init__ can raise here after "
                        f"acquiring 'self.{attr}'; a failed constructor "
                        f"leaks the handle (guard with try/except that "
                        f"releases it, then re-raise)",
                    )
                )
    return findings


def _first_unguarded_risk(
    rest: "Sequence[ast.stmt]", attr: str
) -> "ast.stmt | None":
    for stmt in rest:
        if isinstance(stmt, ast.Try):
            if _try_releases_attr(stmt, attr):
                continue  # guarded: its body may raise, the guard cleans up
            inner = _first_unguarded_risk(stmt.body, attr)
            if inner is not None:
                return inner
            continue
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Call, ast.Raise, ast.Assert)):
                return stmt
    return None


def _try_releases_attr(try_stmt: ast.Try, attr: str) -> bool:
    guard_bodies: "list[Sequence[ast.stmt]]" = [try_stmt.finalbody]
    for handler in try_stmt.handlers:
        guard_bodies.append(handler.body)
    for guard in guard_bodies:
        for stmt in guard:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _RELEASE_METHODS
                ):
                    receiver = node.func.value
                    if (
                        isinstance(receiver, ast.Attribute)
                        and receiver.attr == attr
                        and isinstance(receiver.value, ast.Name)
                        and receiver.value.id == "self"
                    ):
                        return True
                    # ``self.close()`` in the guard counts too: the
                    # class-level release path takes over.
                    if (
                        isinstance(receiver, ast.Name)
                        and receiver.id == "self"
                    ):
                        return True
    return False


def _check_local_lifecycles(
    graph: ProjectGraph, project_resources: "dict[str, list[str]]"
) -> "list[FlowFinding]":
    findings: "list[FlowFinding]" = []
    for fn in _iter_functions(graph):
        if fn.name == MODULE_BODY:
            continue
        managed = _with_bound_names(fn)
        for node in ast.walk(fn.node):  # type: ignore[arg-type]
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            pairs = list(_assignment_pairs(node))
            if len(pairs) != 1:
                continue
            target, value = pairs[0]
            if not isinstance(target, ast.Name) or not isinstance(value, ast.Call):
                continue
            if id(value) in managed:
                continue
            name = target.id
            if not _acquires(graph, fn, value, project_resources):
                continue
            if _escapes(fn, name):
                continue
            releases = _release_sites(fn.body, {name})
            if not releases:
                findings.append(
                    _finding(
                        graph,
                        "RES001",
                        fn,
                        node,
                        f"'{name}' acquires a resource that is never "
                        f"released on any path; close it in a finally or "
                        f"use a with-statement",
                    )
                )
            elif not any(protected for _, protected in releases):
                risky = _risky_between(fn.body, node, releases[0][0])
                if risky:
                    findings.append(
                        _finding(
                            graph,
                            "RES001",
                            fn,
                            node,
                            f"'{name}' is only released on the fall-through "
                            f"path; an exception between acquisition and "
                            f"release leaks it (move the release into a "
                            f"finally)",
                        )
                    )
    return findings


def _risky_between(
    body: "Sequence[ast.stmt]", acquisition: ast.stmt, release: ast.Call
) -> bool:
    """Any statement strictly between acquisition and release (by line)
    that contains a call other than the release itself."""
    start = acquisition.lineno
    end = getattr(release, "lineno", start)
    for stmt in ast.walk(ast.Module(body=list(body), type_ignores=[])):
        if not isinstance(stmt, ast.Call) or stmt is release:
            continue
        line = getattr(stmt, "lineno", 0)
        if start < line < end:
            return True
    return False


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

_CHECKERS: "dict[str, Callable[[ProjectGraph], list[FlowFinding]]]" = {
    "SEED001": check_seed_provenance,
    "FORK001": check_fork_safety,
    "RES001": check_resource_lifecycle,
}


def run_rules(
    graph: ProjectGraph, *, select: "Sequence[str] | None" = None
) -> "list[FlowFinding]":
    """Run the requested rule families (all, by default) and sort."""
    selected = list(select) if select is not None else list(_CHECKERS)
    findings: "list[FlowFinding]" = []
    seen: "set[tuple[str, str, int, int, str, str]]" = set()
    for rule_id in selected:
        checker = _CHECKERS.get(rule_id)
        if checker is None:
            raise KeyError(rule_id)
        for finding in checker(graph):
            # Two paths reaching the same defect (e.g. a runner class
            # captured at several pool sites) report it once; the first
            # chain found stands in for the rest.
            key = (
                finding.rule,
                finding.path,
                finding.line,
                finding.col,
                finding.symbol,
                finding.message,
            )
            if key in seen:
                continue
            seen.add(key)
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.symbol))
    return findings


__all__ = [
    "FLOW_RULES",
    "SEED_SCOPE",
    "FlowFinding",
    "check_fork_safety",
    "check_resource_lifecycle",
    "check_seed_provenance",
    "resource_classes",
    "run_rules",
]
