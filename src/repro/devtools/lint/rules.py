"""The repo-specific invariant rules.

Each rule guards one convention the reproduction's results rest on:

========  ==================================================================
DET001    no wall-clock or entropy source in ``src/repro`` — randomness
          flows through an explicitly seeded ``random.Random`` and elapsed
          time through ``time.perf_counter`` / an injected clock
DET002    no mutable module-level state in the fork-pool-shared packages
          (``scanner``/``net``/``snmp``): shard purity / race surface
PROTO001  protocol decoders may not let ``IndexError``/``KeyError``/
          ``struct.error`` escape — garbage on the wire is data, not a crash
API001    blessed ``repro.api`` re-exports take keyword-only constructor
          arguments (the PR-1 facade convention)
API002    the facade's flat keyword surface is frozen — new execution
          knobs go on ``ExecutionOptions``, not ``Session``/
          ``run_campaign`` keyword lists
OID001    OID string literals must parse as valid dotted OIDs
IMP001    layering: core packages never import ``tests``,
          ``repro.experiments`` or ``repro.devtools``
========  ==================================================================

Suppress a deliberate exception inline with
``# repro-lint: disable=RULE`` and a comment explaining why; blanket
per-file excludes are not supported on purpose.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator, Sequence

from repro.devtools.lint.engine import Diagnostic, FileContext, Rule

# ---------------------------------------------------------------------------
# shared AST helpers
# ---------------------------------------------------------------------------

def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain; ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local binding -> fully qualified imported name.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from datetime import datetime`` -> ``{"datetime": "datetime.datetime"}``;
    ``import os.path`` binds ``os`` -> ``{"os": "os"}``.
    """
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    head = alias.name.split(".", 1)[0]
                    table[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


def resolve_call_name(func: ast.expr, aliases: dict[str, str]) -> str | None:
    """Fully qualified dotted name of a call target, through import aliases."""
    name = dotted_name(func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    resolved_head = aliases.get(head, head)
    return f"{resolved_head}.{rest}" if rest else resolved_head


def local_bindings(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound inside a function: parameters plus simple stores."""
    bound = {a.arg for a in (
        fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
    )}
    if fn.args.vararg:
        bound.add(fn.args.vararg.arg)
    if fn.args.kwarg:
        bound.add(fn.args.kwarg.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
    return bound


def functions_in(tree: ast.Module) -> Iterator["ast.FunctionDef | ast.AsyncFunctionDef"]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def module_level_mutables(tree: ast.Module) -> dict[str, int]:
    """Module-scope names assigned a mutable container literal/constructor."""
    mutable_calls = {
        "dict", "list", "set", "bytearray",
        "collections.defaultdict", "collections.Counter", "collections.deque",
        "collections.OrderedDict", "defaultdict", "Counter", "deque", "OrderedDict",
    }
    found: dict[str, int] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
            value = stmt.value
        else:
            continue
        is_mutable = isinstance(
            value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
        )
        if not is_mutable and isinstance(value, ast.Call):
            name = dotted_name(value.func)
            is_mutable = name in mutable_calls
        if not is_mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                found[target.id] = stmt.lineno
    return found


# ---------------------------------------------------------------------------
# DET001 — wall-clock and entropy sources
# ---------------------------------------------------------------------------

_RANDOM_DRAWS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle", "sample",
    "uniform", "gauss", "normalvariate", "lognormvariate", "expovariate",
    "betavariate", "gammavariate", "paretovariate", "triangular",
    "vonmisesvariate", "weibullvariate", "getrandbits", "randbytes", "seed",
}

_NUMPY_DRAWS = {
    "rand", "randn", "randint", "random", "random_sample", "ranf", "sample",
    "choice", "shuffle", "permutation", "seed", "standard_normal", "uniform",
    "normal", "bytes",
}

_BANNED_CALLS = (
    {"time.time", "time.time_ns", "time.ctime", "time.asctime", "time.localtime",
     "datetime.datetime.now", "datetime.datetime.utcnow", "datetime.datetime.today",
     "datetime.date.today",
     "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
     "random.SystemRandom"}
    | {f"random.{fn}" for fn in _RANDOM_DRAWS}
    | {f"numpy.random.{fn}" for fn in _NUMPY_DRAWS}
)

_BANNED_PREFIXES = ("secrets.",)


class WallClockEntropyRule(Rule):
    """DET001: no ambient time or randomness — results must be replayable."""

    rule_id = "DET001"
    summary = ("wall-clock/entropy source in core code; inject a seeded "
               "random.Random or a Clock instead")

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        aliases = import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call_name(node.func, aliases)
            if name is None:
                continue
            if name in _BANNED_CALLS or name.startswith(_BANNED_PREFIXES):
                yield ctx.diagnostic(
                    self.rule_id, node,
                    f"call to {name}() is a wall-clock/entropy source; use an "
                    f"explicitly seeded random.Random / injected clock "
                    f"(time.perf_counter is whitelisted for durations)",
                )
            elif name in ("random.Random", "numpy.random.default_rng") and not (
                node.args or node.keywords
            ):
                yield ctx.diagnostic(
                    self.rule_id, node,
                    f"{name}() without a seed falls back to OS entropy; "
                    f"pass an explicit seed",
                )


# ---------------------------------------------------------------------------
# DET002 — mutable module-level state in fork-pool-shared packages
# ---------------------------------------------------------------------------

_MUTATOR_METHODS = {
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "clear", "remove", "discard", "sort", "reverse",
}

_DET002_SCOPES = ("repro.scanner", "repro.net", "repro.snmp")


def _in_scope(module: str, prefixes: Sequence[str]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


class SharedStateRule(Rule):
    """DET002: fork-pool-shared modules keep no mutable module globals.

    A dict/list/set assigned at module scope is fine as a frozen lookup
    table; *mutating* it from a function turns it into cross-shard
    hidden state — results would depend on worker layout and fork
    timing.  State belongs on objects threaded through the executor.
    """

    rule_id = "DET002"
    summary = "module-level mutable container mutated from a function (shard purity)"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not _in_scope(ctx.module, _DET002_SCOPES):
            return
        shared = module_level_mutables(ctx.tree)
        if not shared:
            return
        seen: set[tuple[int, int]] = set()  # nested defs are walked twice
        for fn in functions_in(ctx.tree):
            bound = local_bindings(fn)
            globals_declared: set[str] = set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Global):
                    globals_declared.update(node.names)
            for name, def_line in shared.items():
                if name in bound and name not in globals_declared:
                    continue  # shadowed by a local of the same name
                for node in ast.walk(fn):
                    if self._mutates(node, name, globals_declared):
                        key = (node.lineno, node.col_offset)
                        if key in seen:
                            continue
                        seen.add(key)
                        yield ctx.diagnostic(
                            self.rule_id, node,
                            f"function {fn.name}() mutates module-level "
                            f"{name!r} (defined at line {def_line}); "
                            f"fork-pool workers share this module — thread "
                            f"the state through the executor instead",
                        )

    @staticmethod
    def _mutates(node: ast.AST, name: str, globals_declared: set[str]) -> bool:
        def is_target(expr: ast.expr) -> bool:
            return isinstance(expr, ast.Name) and expr.id == name

        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            return is_target(node.func.value) and node.func.attr in _MUTATOR_METHODS
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript) and is_target(target.value):
                    return True
                if is_target(target) and name in globals_declared:
                    return True
        if isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and is_target(target.value):
                    return True
        return False


# ---------------------------------------------------------------------------
# PROTO001 — decoder exception hygiene
# ---------------------------------------------------------------------------

_PROTO_SCOPES = ("repro.asn1",)
_PROTO_MODULES = (
    "repro.net.packet", "repro.snmp.client", "repro.snmp.messages", "repro.snmp.pdu",
)
_BUFFERISH = {"buf", "content", "data", "payload", "body", "packet", "raw", "wire"}
_RAW_EXCEPTIONS = {"IndexError", "KeyError", "struct.error", "error"}
_CONTAINING_CATCHES = _RAW_EXCEPTIONS | {"ValueError", "Exception"}


def _handler_names(handler: ast.ExceptHandler) -> list[str]:
    if handler.type is None:
        return ["<bare>"]
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    names = []
    for node in types:
        name = dotted_name(node)
        if name:
            names.append(name)
    return names


def _is_decode_error(name: str) -> bool:
    return "DecodeError" in name.split(".")[-1]


class DecoderHygieneRule(Rule):
    """PROTO001: garbage on the wire is data, never a crash.

    Every ``decode*`` function in the protocol modules must contain
    malformed input by discipline visible to the AST: either wrap risky
    operations (subscripts into buffers, ``struct.unpack``) in a
    ``try`` that catches the raw exception, or guard explicitly with a
    bounds check that raises the repo's ``*DecodeError`` type.  Handlers
    that *catch* a raw ``IndexError``/``KeyError``/``struct.error`` must
    translate (re-raise a ``*DecodeError``), not swallow.
    """

    rule_id = "PROTO001"
    summary = "protocol decoder may leak IndexError/KeyError/struct.error"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not (_in_scope(ctx.module, _PROTO_SCOPES) or ctx.module in _PROTO_MODULES):
            return
        tables = set(module_level_mutables(ctx.tree))
        yield from self._audit_handlers(ctx)
        for fn in functions_in(ctx.tree):
            if not fn.name.lstrip("_").startswith("decode"):
                continue
            yield from self._audit_decoder(ctx, fn, tables)

    # -- swallowed raw exceptions -----------------------------------------

    def _audit_handlers(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            names = _handler_names(node)
            raw = [n for n in names
                   if n.split(".")[-1] in _RAW_EXCEPTIONS or n == "<bare>"]
            if not raw:
                continue
            raises = [n for n in ast.walk(node) if isinstance(n, ast.Raise)]
            translated = any(
                r.exc is not None
                and (name := dotted_name(
                    r.exc.func if isinstance(r.exc, ast.Call) else r.exc
                )) is not None
                and _is_decode_error(name)
                for r in raises
            )
            if not translated:
                yield ctx.diagnostic(
                    self.rule_id, node,
                    f"handler catches {', '.join(raw)} without translating to "
                    f"the decode-error type; raise BerDecodeError(...) so "
                    f"malformed input stays diagnosable",
                )

    # -- unprotected risky operations in decode*() -------------------------

    def _audit_decoder(
        self,
        ctx: FileContext,
        fn: "ast.FunctionDef | ast.AsyncFunctionDef",
        tables: set[str],
    ) -> Iterator[Diagnostic]:
        watched = {a.arg for a in (
            fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        )}
        watched |= _BUFFERISH | tables
        watched.discard("self")
        guarded = self._has_bounds_guard(fn)
        protected = self._nodes_under_containing_try(fn)
        for node in ast.walk(fn):
            risky = self._risk_of(node, watched)
            if risky is None or guarded or id(node) in protected:
                continue
            yield ctx.diagnostic(
                self.rule_id, node,
                f"{risky} in decoder {fn.name}() has no bounds guard and no "
                f"containing try/except; malformed input would escape as a "
                f"raw exception — guard with an explicit length check that "
                f"raises the decode-error type, or catch-and-translate",
            )

    @staticmethod
    def _risk_of(node: ast.AST, watched: set[str]) -> str | None:
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            if isinstance(node.slice, ast.Slice):
                return None  # slicing cannot raise IndexError
            if isinstance(node.value, ast.Name) and node.value.id in watched:
                return f"unguarded subscript {node.value.id}[...]"
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name in ("struct.unpack", "struct.unpack_from"):
                return f"unguarded {name}()"
        return None

    @staticmethod
    def _has_bounds_guard(fn: "ast.FunctionDef | ast.AsyncFunctionDef") -> bool:
        """True when the function raises a ``*DecodeError`` under an ``if``.

        That is the codec's guard discipline (``if offset >= len(buf):
        raise BerDecodeError(...)``); one such guard marks the function
        as validating its input explicitly.
        """
        for node in ast.walk(fn):
            if not isinstance(node, ast.If):
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Raise) and sub.exc is not None:
                    target = sub.exc.func if isinstance(sub.exc, ast.Call) else sub.exc
                    name = dotted_name(target)
                    if name is not None and _is_decode_error(name):
                        return True
        return False

    @staticmethod
    def _nodes_under_containing_try(
        fn: "ast.FunctionDef | ast.AsyncFunctionDef",
    ) -> set[int]:
        """IDs of nodes inside a ``try`` whose handlers contain raw errors."""
        protected: set[int] = set()
        for node in ast.walk(fn):
            if not isinstance(node, ast.Try):
                continue
            catches = {
                name.split(".")[-1]
                for handler in node.handlers
                for name in _handler_names(handler)
            }
            if not (catches & _CONTAINING_CATCHES or "<bare>" in catches):
                continue
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    protected.add(id(sub))
        return protected


# ---------------------------------------------------------------------------
# API001 — keyword-only constructors on the blessed facade
# ---------------------------------------------------------------------------

class ApiKeywordOnlyRule(Rule):
    """API001: blessed re-exports construct with keyword arguments only.

    Classes re-exported through :mod:`repro.api` or ``repro.__all__``
    with a hand-written ``__init__`` must accept no named positional
    parameters after ``self``.  A bare ``*args`` deprecation shim (the
    PR-1 migration idiom) is allowed; dataclass-generated constructors
    are data records and exempt.
    """

    rule_id = "API001"
    summary = "blessed repro.api re-export has a positional constructor"

    def __init__(self, blessed: dict[str, set[str]] | None = None) -> None:
        #: module -> class names blessed from that module
        self._blessed = blessed
        self._load_failed = False

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        blessed = self._blessed_table(ctx)
        names = blessed.get(ctx.module)
        if not names:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef) or node.name not in names:
                continue
            init = next(
                (item for item in node.body
                 if isinstance(item, ast.FunctionDef) and item.name == "__init__"),
                None,
            )
            if init is None:
                continue
            positional = init.args.posonlyargs + init.args.args
            extra = [a.arg for a in positional if a.arg not in ("self", "cls")]
            if extra:
                yield ctx.diagnostic(
                    self.rule_id, init,
                    f"{node.name}.__init__ takes positional parameter(s) "
                    f"{', '.join(extra)}; blessed API constructors are "
                    f"keyword-only — declare them after '*' (a bare *args "
                    f"deprecation shim is allowed)",
                )

    # -- blessed-surface discovery ----------------------------------------

    def _blessed_table(self, ctx: FileContext) -> dict[str, set[str]]:
        if self._blessed is not None or self._load_failed:
            return self._blessed or {}
        root = ctx.package_root
        if root is None or root.name != "repro":
            self._load_failed = True
            return {}
        table: dict[str, set[str]] = {}
        self._collect(root / "api.py", None, table)
        self._collect(root / "__init__.py", self._all_of(root / "__init__.py"), table)
        self._blessed = self._resolve_reexports(root, table)
        return self._blessed

    @staticmethod
    def _all_of(path: Path) -> set[str] | None:
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except (OSError, SyntaxError):
            return None
        for stmt in tree.body:
            if (isinstance(stmt, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in stmt.targets)
                    and isinstance(stmt.value, (ast.List, ast.Tuple))):
                return {elt.value for elt in stmt.value.elts
                        if isinstance(elt, ast.Constant) and isinstance(elt.value, str)}
        return None

    def _collect(
        self, path: Path, only: set[str] | None, table: dict[str, set[str]]
    ) -> None:
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except (OSError, SyntaxError):
            self._load_failed = True
            return
        for stmt in tree.body:
            if not (isinstance(stmt, ast.ImportFrom) and stmt.module
                    and stmt.level == 0):
                continue
            for alias in stmt.names:
                exported = alias.asname or alias.name
                if alias.name == "*" or (only is not None and exported not in only):
                    continue
                table.setdefault(stmt.module, set()).add(alias.name)

    def _resolve_reexports(
        self, root: Path, table: dict[str, set[str]]
    ) -> dict[str, set[str]]:
        """Follow package re-export chains down to the defining module.

        ``repro/__init__.py`` blesses ``SnmpClient`` from ``repro.snmp``,
        whose ``__init__.py`` in turn imports it from
        ``repro.snmp.client`` — the rule must fire on the class
        definition, wherever it lives.
        """
        resolved: dict[str, set[str]] = {}
        queue = [(module, name) for module, names in table.items() for name in names]
        for _hop in range(8):  # bounded: re-export chains are short
            deferred: list[tuple[str, str]] = []
            for module, name in queue:
                tree = self._parse_module(root, module)
                if tree is None:
                    continue
                defines = any(
                    isinstance(stmt, ast.ClassDef) and stmt.name == name
                    for stmt in tree.body
                )
                if defines:
                    resolved.setdefault(module, set()).add(name)
                    continue
                for stmt in tree.body:
                    if (isinstance(stmt, ast.ImportFrom) and stmt.module
                            and stmt.level == 0
                            and any((a.asname or a.name) == name for a in stmt.names)):
                        original = next(
                            a.name for a in stmt.names if (a.asname or a.name) == name
                        )
                        deferred.append((stmt.module, original))
                        break
            if not deferred:
                break
            queue = deferred
        return resolved

    @staticmethod
    def _parse_module(root: Path, module: str) -> "ast.Module | None":
        parts = module.split(".")
        if parts[0] != root.name:
            return None
        relative = Path(*parts[1:]) if len(parts) > 1 else Path()
        for candidate in (root / relative.with_suffix(".py") if parts[1:] else None,
                          root / relative / "__init__.py"):
            if candidate is not None and candidate.is_file():
                try:
                    return ast.parse(candidate.read_text(encoding="utf-8"))
                except (OSError, SyntaxError):
                    return None
        return None


# ---------------------------------------------------------------------------
# API002 — no new flat kwargs on the facade
# ---------------------------------------------------------------------------

#: The frozen flat keyword surface of the facade.  Execution knobs belong
#: on :class:`~repro.scanner.executor.ExecutionOptions`; these sets hold
#: the non-execution parameters only and must never grow.
_FACADE_FROZEN_KWARGS: "dict[tuple[str, str], frozenset[str]]" = {
    ("Session", "__init__"): frozenset({
        "scale", "seed", "config", "options",
        # filter-pipeline and storage knobs
        "reboot_threshold", "skip", "store",
        # topology shaping goes through one blessed object, like execution
        "topology",
    }),
    ("Session", "run_campaign"): frozenset({"round_id", "options"}),
}


class ApiFlatKwargGrowthRule(Rule):
    """API002: the facade's flat keyword surface is frozen.

    ``Session`` and ``run_campaign`` accept a fixed set of non-execution
    keyword arguments; every way to shape *how* a campaign executes is a
    field on :class:`~repro.scanner.executor.ExecutionOptions`, so
    callers use one blessed object instead of an ever-growing keyword
    list.
    """

    rule_id = "API002"
    summary = "new flat keyword argument on the repro.api facade"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.module != "repro.api":
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                allowed = _FACADE_FROZEN_KWARGS.get((node.name, item.name))
                if allowed is None:
                    continue
                params = (
                    item.args.posonlyargs + item.args.args + item.args.kwonlyargs
                )
                for arg in params:
                    if arg.arg in ("self", "cls") or arg.arg in allowed:
                        continue
                    yield ctx.diagnostic(
                        self.rule_id, item,
                        f"{node.name}.{item.name} grew flat keyword argument "
                        f"{arg.arg!r}; execution knobs belong on "
                        f"ExecutionOptions — the flat keyword list is frozen",
                    )


# ---------------------------------------------------------------------------
# OID001 — OID literals must be valid
# ---------------------------------------------------------------------------

_OID_SHAPED = re.compile(r"\.?\d+(\.\d+){4,}")  # >= 5 arcs: IPv4 stays out of scope


def oid_literal_error(text: str) -> str | None:
    """Why ``text`` is not a valid dotted OID, or ``None`` if it is."""
    stripped = text.strip().lstrip(".")
    if not stripped:
        return "empty OID string"
    parts = stripped.split(".")
    if not all(part.isdigit() for part in parts):
        bad = next(part for part in parts if not part.isdigit())
        return f"arc {bad!r} is not a non-negative integer"
    if any(part != "0" and part.startswith("0") for part in parts):
        bad = next(p for p in parts if p != "0" and p.startswith("0"))
        return f"arc {bad!r} has a leading zero"
    arcs = [int(part) for part in parts]
    if arcs[0] > 2:
        return f"first arc must be 0..2, got {arcs[0]}"
    if len(arcs) >= 2 and arcs[0] < 2 and arcs[1] > 39:
        return f"second arc must be 0..39 when the first is {arcs[0]}, got {arcs[1]}"
    return None


class OidLiteralRule(Rule):
    """OID001: a malformed OID constant is a typo the runtime finds too late."""

    rule_id = "OID001"
    summary = "OID string literal does not parse as a valid dotted OID"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        flagged: set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func) or ""
                if name.split(".")[-1] in ("Oid", "parse_oid") and node.args:
                    arg = node.args[0]
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                        error = oid_literal_error(arg.value)
                        if error and id(arg) not in flagged:
                            flagged.add(id(arg))
                            yield ctx.diagnostic(
                                self.rule_id, arg,
                                f"invalid OID literal {arg.value!r}: {error}",
                            )
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and _OID_SHAPED.fullmatch(node.value.strip())
                  and id(node) not in flagged):
                error = oid_literal_error(node.value)
                if error:
                    flagged.add(id(node))
                    yield ctx.diagnostic(
                        self.rule_id, node,
                        f"invalid OID literal {node.value!r}: {error}",
                    )


# ---------------------------------------------------------------------------
# IMP001 — layering
# ---------------------------------------------------------------------------

#: (prefix scopes, exact module names) allowed to import each upper layer.
#: ``repro`` itself appears as an *exact* name: the package ``__init__``
#: re-exports the facade, but that must not whitelist every submodule.
_EXPERIMENTS_ALLOWED = (("repro.experiments",), ("repro", "repro.cli", "repro.__main__"))
_DEVTOOLS_ALLOWED = (("repro.devtools",), ())


class LayeringRule(Rule):
    """IMP001: the dependency graph points strictly downward.

    Core measurement packages may not reach up into ``tests``, the
    ``repro.experiments`` analysis layer, or ``repro.devtools`` —
    otherwise a unit import drags the whole evaluation stack (or the
    linter) into every fork-pool worker.
    """

    rule_id = "IMP001"
    summary = "core package imports an upper layer (tests/experiments/devtools)"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not (ctx.module == "repro" or ctx.module.startswith("repro.")):
            return
        for node in ast.walk(ctx.tree):
            targets: list[str] = []
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                targets = [self._absolute(ctx, node)]
            for target in targets:
                if target is None:
                    continue
                yield from self._check_target(ctx, node, target)

    @staticmethod
    def _absolute(ctx: FileContext, node: ast.ImportFrom) -> str:
        if node.level == 0:
            return node.module or ""
        parts = ctx.module.split(".")
        # level 1 resolves to the current package for __init__ modules
        # and to the parent package for plain modules
        keep = len(parts) - node.level + (1 if ctx.is_package else 0)
        base = parts[:max(keep, 0)]
        return ".".join(base + ([node.module] if node.module else []))

    def _check_target(
        self, ctx: FileContext, node: ast.AST, target: str
    ) -> Iterator[Diagnostic]:
        if target == "tests" or target.startswith("tests."):
            yield ctx.diagnostic(
                self.rule_id, node,
                f"src/repro must never import {target!r}; move shared helpers "
                f"into the package",
            )
            return
        for layer, (prefixes, exact) in (
            ("repro.experiments", _EXPERIMENTS_ALLOWED),
            ("repro.devtools", _DEVTOOLS_ALLOWED),
        ):
            if target == layer or target.startswith(layer + "."):
                if not _in_scope(ctx.module, prefixes) and ctx.module not in exact:
                    yield ctx.diagnostic(
                        self.rule_id, node,
                        f"{ctx.module} imports {target}; the "
                        f"{layer} layer sits above core packages and may "
                        f"only be imported by {', '.join(prefixes + exact)}",
                    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def default_rules() -> list[Rule]:
    """Fresh instances of every repo rule, in report order."""
    return [
        WallClockEntropyRule(),
        SharedStateRule(),
        DecoderHygieneRule(),
        ApiKeywordOnlyRule(),
        ApiFlatKwargGrowthRule(),
        OidLiteralRule(),
        LayeringRule(),
    ]


DEFAULT_RULES: tuple[str, ...] = tuple(r.rule_id for r in default_rules())
