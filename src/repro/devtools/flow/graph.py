"""Project-wide module/import graph and name-resolved call graph.

The linter of :mod:`repro.devtools.lint` sees one file at a time; the
flow analyzer's rules are *interprocedural* — an unseeded RNG three
calls away from the scanner, a file handle acquired by a helper and
leaked by its caller — so they need a picture of the whole program.
:class:`ProjectGraph` provides it, built purely from the AST:

* every module under the analysis roots is parsed once and indexed:
  top-level functions, classes with their methods, import aliases
  (absolute *and* relative), and module-level mutable containers;
* module bodies become pseudo-functions (``pkg.mod.<module>``) so
  import-time calls participate in the call graph like any other code;
* a **name-resolved call graph**: each call site is resolved through
  local bindings, ``self``/``cls`` method dispatch, import aliases and
  re-export chains (``repro.io.ScanJsonlWriter`` resolves to the class
  defined in ``repro.io.exports``) down to the defining symbol.  Calls
  whose receiver cannot be resolved fall back to a *dynamic-attr* match
  on the method name when the project defines few enough candidates —
  marked ``dynamic`` so rules can weigh them appropriately.

The graph is deterministic (sorted file discovery, insertion-ordered
indexes) and makes no attempt to import or execute anything.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from repro.devtools.lint.engine import iter_python_files, module_name_for
from repro.devtools.lint.rules import dotted_name, module_level_mutables

#: Pseudo-function name for a module's top-level statements.
MODULE_BODY = "<module>"

#: Cap on dynamic-attr fallback candidates: an attribute call that could
#: dispatch to more methods than this is treated as unresolvable rather
#: than fanning the call graph out to everything with that name.
DYNAMIC_CANDIDATE_CAP = 4


@dataclass(frozen=True)
class SourceModule:
    """One in-memory module for graph construction (tests, fixtures)."""

    name: str
    source: str
    path: str = "<memory>"


@dataclass
class FunctionInfo:
    """One function, method, or module-body pseudo-function."""

    qualname: str
    module: str
    name: str
    node: "ast.FunctionDef | ast.AsyncFunctionDef | ast.Module"
    class_name: "str | None" = None
    #: Named parameters in declaration order (``self``/``cls`` included).
    params: "tuple[str, ...]" = ()
    #: Parameter name -> default-value expression, for trailing defaults.
    defaults: "dict[str, ast.expr]" = field(default_factory=dict)

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    @property
    def body(self) -> "Sequence[ast.stmt]":
        return self.node.body

    def line(self) -> int:
        return getattr(self.node, "lineno", 1)


@dataclass
class ClassInfo:
    """One class definition with its directly defined methods."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    methods: "dict[str, FunctionInfo]" = field(default_factory=dict)
    #: Dotted base-class names as written (resolved lazily by the graph).
    bases: "tuple[str, ...]" = ()


@dataclass
class ModuleInfo:
    """Everything the graph knows about one parsed module."""

    name: str
    path: str
    tree: ast.Module
    is_package: bool
    #: Local binding -> fully qualified imported name (relative imports
    #: resolved against the module's own dotted name).
    aliases: "dict[str, str]" = field(default_factory=dict)
    functions: "dict[str, FunctionInfo]" = field(default_factory=dict)
    classes: "dict[str, ClassInfo]" = field(default_factory=dict)
    #: Module-scope names assigned a mutable container literal/call.
    mutable_globals: "dict[str, int]" = field(default_factory=dict)
    body: "FunctionInfo | None" = None


@dataclass(frozen=True)
class CallSite:
    """One resolved call: ``caller`` invokes ``callee`` at ``node``."""

    caller: str
    callee: str
    node: ast.Call
    #: True when the callee was matched by dynamic-attr fallback rather
    #: than name resolution; rules treat these edges conservatively.
    dynamic: bool = False


def _build_aliases(module: str, is_package: bool, tree: ast.Module) -> "dict[str, str]":
    """Local binding -> fully qualified name, with relative imports resolved."""
    table: "dict[str, str]" = {}
    parts = module.split(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    head = alias.name.split(".", 1)[0]
                    table[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                keep = len(parts) - node.level + (1 if is_package else 0)
                prefix = parts[: max(keep, 0)]
                base = ".".join(prefix + ([node.module] if node.module else []))
            for alias in node.names:
                if alias.name == "*" or not base:
                    continue
                table[alias.asname or alias.name] = f"{base}.{alias.name}"
    return table


def _function_info(
    fn: "ast.FunctionDef | ast.AsyncFunctionDef",
    *,
    module: str,
    class_name: "str | None",
) -> FunctionInfo:
    named = fn.args.posonlyargs + fn.args.args
    params = tuple(a.arg for a in named) + tuple(a.arg for a in fn.args.kwonlyargs)
    defaults: "dict[str, ast.expr]" = {}
    trailing = fn.args.defaults
    if trailing:
        for arg, default in zip(named[-len(trailing):], trailing):
            defaults[arg.arg] = default
    for arg, kw_default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if kw_default is not None:
            defaults[arg.arg] = kw_default
    prefix = f"{module}.{class_name}." if class_name else f"{module}."
    return FunctionInfo(
        qualname=prefix + fn.name,
        module=module,
        name=fn.name,
        node=fn,
        class_name=class_name,
        params=params,
        defaults=defaults,
    )


def _local_names(fn: FunctionInfo) -> "set[str]":
    """Names bound inside a function: parameters plus simple stores."""
    bound = set(fn.params)
    for node in ast.walk(fn.node):  # type: ignore[arg-type]
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bound.add(node.name)
    return bound


class ProjectGraph:
    """The whole-program view: modules, symbols, and the call graph."""

    def __init__(self) -> None:
        self.modules: "dict[str, ModuleInfo]" = {}
        #: Every function/method/module-body by qualified name.
        self.functions: "dict[str, FunctionInfo]" = {}
        self.classes: "dict[str, ClassInfo]" = {}
        self.call_sites: "list[CallSite]" = []
        self._callees: "dict[str, list[CallSite]]" = {}
        self._callers: "dict[str, list[CallSite]]" = {}
        #: Bare method name -> methods defined with that name, for the
        #: dynamic-attr fallback.
        self._method_index: "dict[str, list[FunctionInfo]]" = {}
        #: Files that failed to parse: display path -> (line, message).
        self.syntax_errors: "dict[str, tuple[int, str]]" = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, paths: "Sequence[Path]") -> "ProjectGraph":
        """Parse every module under ``paths`` and wire the call graph."""
        sources: "list[SourceModule]" = []
        graph = cls()
        for file_path in iter_python_files(paths):
            try:
                text = file_path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                graph.syntax_errors[str(file_path)] = (1, f"cannot read file: {exc}")
                continue
            module, _root = module_name_for(file_path)
            sources.append(SourceModule(name=module, source=text, path=str(file_path)))
        graph._ingest(sources)
        return graph

    @classmethod
    def build_from_sources(
        cls, sources: "Sequence[SourceModule] | Mapping[str, str]"
    ) -> "ProjectGraph":
        """Build a graph from in-memory modules (the test entry point)."""
        if isinstance(sources, Mapping):
            sources = [
                SourceModule(name=name, source=text, path=f"<{name}>")
                for name, text in sources.items()
            ]
        graph = cls()
        graph._ingest(list(sources))
        return graph

    def _ingest(self, sources: "list[SourceModule]") -> None:
        for src in sources:
            self._index_module(src)
        for module in self.modules.values():
            self._extract_calls(module)

    def _index_module(self, src: SourceModule) -> None:
        try:
            tree = ast.parse(src.source)
        except SyntaxError as exc:
            self.syntax_errors[src.path] = (
                exc.lineno or 1,
                f"file does not parse: {exc.msg}",
            )
            return
        is_package = src.path.endswith("__init__.py")
        info = ModuleInfo(
            name=src.name,
            path=src.path,
            tree=tree,
            is_package=is_package,
            aliases=_build_aliases(src.name, is_package, tree),
            mutable_globals=module_level_mutables(tree),
        )
        body_statements: "list[ast.stmt]" = []
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = _function_info(stmt, module=src.name, class_name=None)
                info.functions[fn.name] = fn
                self.functions[fn.qualname] = fn
            elif isinstance(stmt, ast.ClassDef):
                cls_info = ClassInfo(
                    qualname=f"{src.name}.{stmt.name}",
                    module=src.name,
                    name=stmt.name,
                    node=stmt,
                    bases=tuple(
                        base for base in map(dotted_name, stmt.bases) if base
                    ),
                )
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        method = _function_info(
                            item, module=src.name, class_name=stmt.name
                        )
                        cls_info.methods[method.name] = method
                        self.functions[method.qualname] = method
                        self._method_index.setdefault(method.name, []).append(method)
                info.classes[stmt.name] = cls_info
                self.classes[cls_info.qualname] = cls_info
            else:
                body_statements.append(stmt)
        body = FunctionInfo(
            qualname=f"{src.name}.{MODULE_BODY}",
            module=src.name,
            name=MODULE_BODY,
            node=ast.Module(body=body_statements, type_ignores=[]),
        )
        info.body = body
        self.functions[body.qualname] = body
        self.modules[src.name] = info

    # -- resolution --------------------------------------------------------

    def canonical(self, target: str) -> str:
        """Follow re-export chains down to the defining symbol.

        ``repro.io.ScanJsonlWriter`` -> ``repro.io.exports.ScanJsonlWriter``
        when the package ``__init__`` re-exports it.  Cycles are broken by
        a visited set; unknown names come back unchanged.
        """
        seen: "set[str]" = set()
        while (
            target not in self.functions
            and target not in self.classes
            and target not in seen
        ):
            seen.add(target)
            module, _, name = target.rpartition(".")
            info = self.modules.get(module)
            if info is None or not name:
                break
            forwarded = info.aliases.get(name)
            if forwarded is None or forwarded == target:
                break
            target = forwarded
        return target

    def resolve_class(self, name: str) -> "ClassInfo | None":
        return self.classes.get(self.canonical(name))

    def init_of(self, class_qualname: str) -> "FunctionInfo | None":
        """The ``__init__`` a constructor call runs, searching one base hop."""
        cls_info = self.classes.get(class_qualname)
        if cls_info is None:
            return None
        init = cls_info.methods.get("__init__")
        if init is not None:
            return init
        module = self.modules.get(cls_info.module)
        for base in cls_info.bases:
            resolved = base
            if module is not None:
                head, _, rest = base.partition(".")
                resolved_head = module.aliases.get(head, head)
                if resolved_head != head:
                    resolved = f"{resolved_head}.{rest}" if rest else resolved_head
                elif head in module.classes:
                    resolved = f"{module.name}.{base}"
            base_cls = self.classes.get(self.canonical(resolved))
            if base_cls is not None and "__init__" in base_cls.methods:
                return base_cls.methods["__init__"]
        return None

    def _resolve_method(
        self, module: ModuleInfo, class_name: str, attr: str
    ) -> "str | None":
        cls_info = module.classes.get(class_name)
        hops = 0
        while cls_info is not None and hops < 8:
            if attr in cls_info.methods:
                return cls_info.methods[attr].qualname
            if not cls_info.bases:
                return None
            head, _, rest = cls_info.bases[0].partition(".")
            resolved_head = module.aliases.get(head, head)
            base = f"{resolved_head}.{rest}" if rest else resolved_head
            if rest == "" and head in module.classes:
                base = f"{module.name}.{head}"
            next_cls = self.classes.get(self.canonical(base))
            if next_cls is None:
                return None
            module = self.modules.get(next_cls.module, module)
            cls_info = next_cls
            hops += 1
        return None

    def resolve_call_target(
        self, fn: FunctionInfo, call: ast.Call
    ) -> "tuple[str, bool] | None":
        """``(qualname-or-external-name, via_dynamic_fallback)`` for a call.

        Returns ``None`` when the target is genuinely unresolvable (a
        call on a call result, an over-ambiguous attribute).  External
        names (``open``, ``random.Random``) come back as written, alias-
        expanded, so rules can match them against registries.
        """
        name = dotted_name(call.func)
        if name is None:
            return None
        module = self.modules[fn.module]
        parts = name.split(".")
        head = parts[0]
        if head in ("self", "cls") and fn.class_name is not None and len(parts) >= 2:
            resolved = self._resolve_method(module, fn.class_name, parts[1])
            if resolved is not None:
                return resolved, False
            return self._dynamic_fallback(parts[-1])
        locals_ = self._locals_of(fn)
        if head in locals_:
            if len(parts) == 1:
                return None
            return self._dynamic_fallback(parts[-1])
        if len(parts) == 1:
            if head in module.functions:
                return module.functions[head].qualname, False
            if head in module.classes:
                return module.classes[head].qualname, False
            if head in module.aliases:
                return self.canonical(module.aliases[head]), False
            return head, False  # builtin or truly external bare name
        if head in module.aliases:
            expanded = module.aliases[head] + "." + ".".join(parts[1:])
            return self.canonical(expanded), False
        if head in module.classes and len(parts) == 2:
            resolved = self._resolve_method(module, head, parts[1])
            if resolved is not None:
                return resolved, False
        if head in module.functions:
            return None  # attribute on a function object: dynamic
        return self._dynamic_fallback(parts[-1])

    def _dynamic_fallback(self, attr: str) -> "tuple[str, bool] | None":
        candidates = self._method_index.get(attr, [])
        if 0 < len(candidates) <= DYNAMIC_CANDIDATE_CAP:
            # The edge extractor fans this out to every candidate.
            return f"<dynamic:{attr}>", True
        return None

    def _locals_of(self, fn: FunctionInfo) -> "set[str]":
        cache = getattr(fn, "_locals_cache", None)
        if cache is None:
            cache = _local_names(fn) if fn.name != MODULE_BODY else set()
            object.__setattr__(fn, "_locals_cache", cache)
        return cache

    # -- call-graph wiring -------------------------------------------------

    def _extract_calls(self, module: ModuleInfo) -> None:
        owners: "list[FunctionInfo]" = []
        if module.body is not None:
            owners.append(module.body)
        owners.extend(module.functions.values())
        for cls_info in module.classes.values():
            owners.extend(cls_info.methods.values())
        for fn in owners:
            for call in self._calls_in(fn):
                resolved = self.resolve_call_target(fn, call)
                if resolved is None:
                    continue
                target, dynamic = resolved
                if dynamic:
                    attr = target[len("<dynamic:"):-1]
                    for candidate in self._method_index.get(attr, []):
                        self._add_site(
                            CallSite(
                                caller=fn.qualname,
                                callee=candidate.qualname,
                                node=call,
                                dynamic=True,
                            )
                        )
                else:
                    self._add_site(
                        CallSite(caller=fn.qualname, callee=target, node=call)
                    )

    @staticmethod
    def _calls_in(fn: FunctionInfo) -> "Iterator[ast.Call]":
        for node in ast.walk(fn.node):  # type: ignore[arg-type]
            if isinstance(node, ast.Call):
                yield node

    def _add_site(self, site: CallSite) -> None:
        self.call_sites.append(site)
        self._callees.setdefault(site.caller, []).append(site)
        self._callers.setdefault(site.callee, []).append(site)

    # -- queries -----------------------------------------------------------

    def callees_of(self, qualname: str) -> "list[CallSite]":
        return self._callees.get(qualname, [])

    def callers_of(self, qualname: str) -> "list[CallSite]":
        """Call sites targeting ``qualname``; constructors included.

        For an ``__init__`` method this also returns the construction
        sites of its class (``C(...)`` resolves to the class symbol).
        """
        sites = list(self._callers.get(qualname, []))
        if qualname.endswith(".__init__"):
            fn = self.functions.get(qualname)
            if fn is not None and fn.class_name is not None:
                class_qual = f"{fn.module}.{fn.class_name}"
                sites.extend(self._callers.get(class_qual, []))
        return sites

    def bind_arguments(
        self, callee: FunctionInfo, call: ast.Call
    ) -> "dict[str, ast.expr]":
        """Map a call's arguments onto the callee's parameter names.

        Methods and constructors skip their leading ``self``/``cls``;
        ``*args``/``**kwargs`` forwarding is left unbound (rules treat
        unbound parameters leniently).
        """
        params = list(callee.params)
        if callee.is_method and params and params[0] in ("self", "cls"):
            params = params[1:]
        bound: "dict[str, ast.expr]" = {}
        for param, arg in zip(params, call.args):
            bound[param] = arg
        for keyword in call.keywords:
            if keyword.arg is not None:
                bound[keyword.arg] = keyword.value
        return bound


__all__ = [
    "DYNAMIC_CANDIDATE_CAP",
    "MODULE_BODY",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectGraph",
    "SourceModule",
]
