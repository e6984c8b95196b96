"""The reprolint rules: this project's invariants as source-level checks.

Every headline guarantee of the reproduction — synchronous walk equals
event engine, trie equals linear oracle, incremental churn equals fresh
rebuild — rests on determinism and broker-local purity.  These rules encode the
source-level discipline those guarantees assume:

* :class:`UnseededRandomRule` (RL001) — all randomness flows through an
  injected, seeded :class:`random.Random`;
* :class:`WallClockRule` (RL002) — simulated time never reads the wall
  clock;
* :class:`ProcessHashRule` (RL003) — keys that may cross process or run
  boundaries never use ``PYTHONHASHSEED``-dependent ``hash()`` / ``id()``;
* :class:`UnorderedIterationRule` (RL004) — routing code never iterates
  a set where the iteration order can leak into an observable result;
* :class:`FrozenModelRule` (RL005) — service/link models and policies
  are frozen dataclasses, so engine replay cannot be poisoned by mutable
  policy state;
* :class:`EngineIsolationRule` (RL006) — broker-local step code stays
  engine-agnostic;
* :class:`ExportConsistencyRule` (RL007) — package ``__all__`` listings
  and re-exports agree;
* :class:`DocstringRule` (RL008) — every public API carries a docstring.

Rules are plain objects satisfying :class:`repro.analysis.engine.Rule`;
:func:`default_rules` returns the standard set in code order.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from repro.analysis.engine import Rule, SourceFile, Violation

__all__ = [
    "DocstringRule",
    "EngineIsolationRule",
    "ExportConsistencyRule",
    "FrozenModelRule",
    "ProcessHashRule",
    "UnorderedIterationRule",
    "UnseededRandomRule",
    "WallClockRule",
    "default_rules",
]


class ScopedRule:
    """Shared path scoping: prefix allowlist plus prefix denylist."""

    #: Repo-relative path prefixes the rule runs on ("" matches all).
    scope: tuple[str, ...] = ("",)
    #: Repo-relative path prefixes the rule never runs on.
    excluded: tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        """Prefix match against :attr:`scope` minus :attr:`excluded`."""
        if any(relpath.startswith(prefix) for prefix in self.excluded):
            return False
        return any(relpath.startswith(prefix) for prefix in self.scope)


def _call_name(node: ast.Call) -> str | None:
    """The bare name a call invokes, if the callee is a plain name."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _enclosing_function(
    source: SourceFile, node: ast.AST
) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    """The innermost function definition containing *node*, if any."""
    parents = source.parent_map()
    current = parents.get(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return current
        current = parents.get(current)
    return None


class UnseededRandomRule(ScopedRule):
    """RL001: no ambient or unseeded randomness in library code.

    ``random.random()`` (and every other module-level helper) draws from
    the interpreter-global RNG, and ``random.Random()`` with no arguments
    seeds from the OS — both make clustering, sharding and the event
    engine unrepeatable.  Library code must accept an injected
    ``random.Random(seed)`` (or construct one from an explicit seed).
    """

    code = "RL001"
    name = "unseeded-random"
    description = (
        "randomness must flow through an injected seeded random.Random; "
        "no module-level random.* calls, no unseeded Random()"
    )
    scope = ("src/repro",)

    def check(self, source: SourceFile) -> Iterator[Violation]:
        """Flag ambient ``random.*`` calls and unseeded constructions."""
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                bad = [a.name for a in node.names if a.name not in ("Random",)]
                if bad:
                    yield source.violation(
                        self.code,
                        f"from random import {', '.join(bad)}: import the "
                        "Random class and inject a seeded instance instead",
                        node.lineno,
                    )
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "random"
            ):
                if func.attr == "Random":
                    if not node.args and not node.keywords:
                        yield source.violation(
                            self.code,
                            "random.Random() without a seed is "
                            "OS-entropy-seeded; pass an explicit seed",
                            node.lineno,
                        )
                else:
                    yield source.violation(
                        self.code,
                        f"random.{func.attr}() uses the ambient global RNG; "
                        "route randomness through an injected seeded Random",
                        node.lineno,
                    )
            elif _call_name(node) == "Random" and not node.args and not node.keywords:
                yield source.violation(
                    self.code,
                    "Random() without a seed is OS-entropy-seeded; "
                    "pass an explicit seed",
                    node.lineno,
                )


class WallClockRule(ScopedRule):
    """RL002: simulated time never reads the wall clock.

    The delivery engine's clock is simulation time; a single
    ``time.time()`` or ``datetime.now()`` in library or test code makes
    results machine- and moment-dependent.  Benchmarks are exempt —
    measuring wall-clock there is the point.
    """

    code = "RL002"
    name = "wall-clock"
    description = (
        "no wall-clock reads (time.time/perf_counter/datetime.now) "
        "outside benchmarks/"
    )
    scope = ("",)
    excluded = ("benchmarks/",)

    _TIME_ATTRS = frozenset(
        {
            "time",
            "time_ns",
            "monotonic",
            "monotonic_ns",
            "perf_counter",
            "perf_counter_ns",
            "process_time",
            "process_time_ns",
        }
    )
    _DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

    def check(self, source: SourceFile) -> Iterator[Violation]:
        """Flag wall-clock imports and call sites."""
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    bad = [
                        a.name for a in node.names if a.name in self._TIME_ATTRS
                    ]
                    if bad:
                        yield source.violation(
                            self.code,
                            f"from time import {', '.join(bad)}: wall-clock "
                            "reads are banned outside benchmarks/",
                            node.lineno,
                        )
                continue
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            func = node.func
            owner = func.value
            if (
                isinstance(owner, ast.Name)
                and owner.id == "time"
                and func.attr in self._TIME_ATTRS
            ):
                yield source.violation(
                    self.code,
                    f"time.{func.attr}() reads the wall clock; simulated "
                    "components must take time as an input",
                    node.lineno,
                )
            elif func.attr in self._DATETIME_ATTRS and (
                (isinstance(owner, ast.Name) and owner.id in ("datetime", "date"))
                or (
                    isinstance(owner, ast.Attribute)
                    and owner.attr in ("datetime", "date")
                    and isinstance(owner.value, ast.Name)
                    and owner.value.id == "datetime"
                )
            ):
                yield source.violation(
                    self.code,
                    f"datetime wall-clock read ({func.attr}); simulated "
                    "components must take time as an input",
                    node.lineno,
                )


class ProcessHashRule(ScopedRule):
    """RL003: no ``PYTHONHASHSEED``/address-dependent keys.

    Builtin ``hash()`` of a string is salted per process and ``id()`` is
    an address: either one inside an LSH bucket key, a memo key that is
    compared across runs, or anything pickled to a worker silently breaks
    cross-process bit-identity.  The banding scheme uses ``blake2b``
    precisely for this reason; everything else must too.  ``__hash__``
    implementations are exempt — delegating to ``hash()`` on the
    constituents is what they are for, and those hashes never leave the
    process by construction.
    """

    code = "RL003"
    name = "process-hash"
    description = (
        "builtin hash()/id() are process-dependent; use a stable digest "
        "(e.g. blake2b) for keys that cross process or run boundaries"
    )
    scope = ("src/repro",)

    def check(self, source: SourceFile) -> Iterator[Violation]:
        """Flag ``hash()`` / ``id()`` calls outside ``__hash__`` bodies."""
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name not in ("hash", "id"):
                continue
            enclosing = _enclosing_function(source, node)
            if enclosing is not None and enclosing.name == "__hash__":
                continue
            yield source.violation(
                self.code,
                f"builtin {name}() is process-dependent "
                "(PYTHONHASHSEED / object address); use a stable digest "
                "for anything that crosses a process or run boundary",
                node.lineno,
            )


class UnorderedIterationRule(ScopedRule):
    """RL004: routing code never leaks set iteration order.

    With string elements, set iteration order depends on
    ``PYTHONHASHSEED``; a list built from it, a first-match return, or a
    keyed ``min``/``max`` tie-break then differs between runs.  Routing
    code must wrap such iterations in ``sorted(...)`` (or prove the sink
    order-insensitive and suppress with a justification).

    The check is syntactic: an expression is *set-like* when it is a set
    display/comprehension, a ``set()``/``frozenset()`` call, a set
    operator chain over set-like operands, a name assigned or annotated
    set-like in the same function, or a ``self`` attribute assigned or
    annotated set-like in the same class.  Iterating one is flagged
    except in provably order-insensitive consumers (set builds and
    reductions such as ``sum``/``any``/``all``/``sorted``/keyless
    ``min``/``max``).
    """

    code = "RL004"
    name = "unordered-iteration"
    description = (
        "iteration over a set feeding an ordering-sensitive sink must be "
        "explicitly ordered (sorted(...))"
    )
    scope = ("src/repro/routing",)

    _SET_CALLS = frozenset({"set", "frozenset"})
    _SET_METHODS = frozenset(
        {"intersection", "union", "difference", "symmetric_difference", "copy"}
    )
    _SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    #: Reductions whose result cannot depend on iteration order (keyless
    #: min/max are value-based; ties over totally ordered keys cannot
    #: produce distinct results).
    _ORDER_FREE_CALLS = frozenset({"set", "frozenset", "sum", "any", "all", "len", "sorted", "min", "max"})

    def _is_set_annotation(self, annotation: ast.expr | None) -> bool:
        """Whether a type annotation names a set type."""
        if annotation is None:
            return False
        target = annotation
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute):
            return target.attr in ("Set", "FrozenSet", "AbstractSet", "MutableSet")
        if isinstance(target, ast.Name):
            return target.id in (
                "set",
                "frozenset",
                "Set",
                "FrozenSet",
                "AbstractSet",
                "MutableSet",
            )
        return False

    def _enclosing_scope(
        self, source: SourceFile, node: ast.AST
    ) -> tuple[ast.AST | None, ast.ClassDef | None]:
        """Innermost enclosing function (None = module) and class."""
        parents = source.parent_map()
        function: ast.AST | None = None
        klass: ast.ClassDef | None = None
        current = parents.get(node)
        while current is not None:
            if function is None and isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                function = current
            if klass is None and isinstance(current, ast.ClassDef):
                klass = current
            current = parents.get(current)
        return function, klass

    def _collect_set_names(
        self, source: SourceFile
    ) -> tuple[dict[ast.AST | None, set[str]], dict[ast.ClassDef | None, set[str]]]:
        """Set-like bindings per enclosing function, self-attrs per class.

        One literal pass only: ``a = set(); b = a`` does not mark ``b`` —
        the rule favours precision over transitive inference.
        """
        names: dict[ast.AST | None, set[str]] = {}
        attrs: dict[ast.ClassDef | None, set[str]] = {}
        for node in ast.walk(source.tree):
            value: ast.expr | None = None
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, list(node.targets)
            elif isinstance(node, ast.AnnAssign):
                value, targets = node.value, [node.target]
                if self._is_set_annotation(node.annotation):
                    value = ast.Set(elts=[])  # annotation alone marks it
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    if self._is_set_annotation(arg.annotation):
                        names.setdefault(node, set()).add(arg.arg)
                continue
            if value is None or not self._is_setish(value, set(), set()):
                continue
            function, klass = self._enclosing_scope(source, node)
            for target in targets:
                if isinstance(target, ast.Name):
                    if function is None and klass is not None:
                        # Class-level annotation/assignment: an instance
                        # attribute (e.g. a dataclass field), not a name.
                        attrs.setdefault(klass, set()).add(target.id)
                    else:
                        names.setdefault(function, set()).add(target.id)
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attrs.setdefault(klass, set()).add(target.attr)
        return names, attrs

    def _is_setish(
        self, node: ast.expr, names: set[str], attrs: set[str]
    ) -> bool:
        """Whether *node* syntactically evaluates to a set."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if _call_name(node) in self._SET_CALLS:
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self._SET_METHODS
            ):
                return self._is_setish(node.func.value, names, attrs)
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, self._SET_OPS):
            return self._is_setish(node.left, names, attrs) or self._is_setish(
                node.right, names, attrs
            )
        if isinstance(node, ast.Name):
            return node.id in names
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr in attrs
        return False

    def _consumer_is_order_free(
        self, source: SourceFile, comp: ast.expr
    ) -> bool:
        """Whether the comprehension *comp* feeds an order-free consumer."""
        if isinstance(comp, ast.SetComp):
            return True
        if not isinstance(comp, ast.GeneratorExp):
            return False
        parent = source.parent_map().get(comp)
        if not isinstance(parent, ast.Call):
            return False
        name = _call_name(parent)
        if name not in self._ORDER_FREE_CALLS:
            return False
        return not (
            name in ("min", "max")
            and any(kw.arg == "key" for kw in parent.keywords)
        )

    def check(self, source: SourceFile) -> Iterator[Violation]:
        """Flag order-leaking iteration over set-like expressions."""
        names_by_scope, attrs_by_class = self._collect_set_names(source)
        for node in ast.walk(source.tree):
            iters: list[tuple[ast.expr, int, str]] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append((node.iter, node.lineno, "for loop"))
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                if self._consumer_is_order_free(source, node):
                    continue
                for gen in node.generators:
                    iters.append((gen.iter, node.lineno, "comprehension"))
            elif isinstance(node, ast.Call):
                name = _call_name(node)
                if name in ("list", "tuple", "enumerate", "next") and node.args:
                    iters.append((node.args[0], node.lineno, f"{name}()"))
                elif (
                    name in ("min", "max")
                    and node.args
                    and any(kw.arg == "key" for kw in node.keywords)
                ):
                    iters.append((node.args[0], node.lineno, f"keyed {name}()"))
            if not iters:
                continue
            function, klass = self._enclosing_scope(source, node)
            names = names_by_scope.get(function, set()) | names_by_scope.get(
                None, set()
            )
            attrs = attrs_by_class.get(klass, set())
            for candidate, line, context in iters:
                if self._is_setish(candidate, names, attrs):
                    yield source.violation(
                        self.code,
                        f"{context} iterates a set; wrap in sorted(...) or "
                        "prove the sink order-insensitive and suppress",
                        line,
                    )


class FrozenModelRule(ScopedRule):
    """RL005: service/link models and policies are frozen dataclasses.

    The engine replays workloads assuming model and policy objects it
    holds cannot drift between runs; a mutable field on a
    ``ServiceModel`` or a scheduling policy breaks bit-for-bit replay.
    Every subclass of the model/policy roots must therefore be declared
    ``@dataclass(frozen=True)``.
    """

    code = "RL005"
    name = "frozen-model"
    description = (
        "ServiceModel/LinkModel/QueuePolicy/ClosedLoopSource and "
        "advertisement/scheduling policy subclasses must be "
        "@dataclass(frozen=True)"
    )
    scope = ("src/repro", "tests/", "benchmarks/", "examples/")

    #: Nominal roots whose subclasses (and own definitions, for the
    #: model classes) must be frozen dataclasses.
    _MODEL_NAMES = frozenset(
        {"ServiceModel", "LinkModel", "QueuePolicy", "ClosedLoopSource"}
    )
    _BASE_NAMES = frozenset(
        {
            "ServiceModel",
            "BatchServiceModel",
            "LinkModel",
            "QueuePolicy",
            "ClosedLoopSource",
            "AdvertisementPolicy",
            "PerSubscriptionPolicy",
            "CommunityPolicy",
            "HybridPolicy",
            "SchedulingPolicy",
            "FifoScheduling",
            "PriorityScheduling",
            "DeadlineScheduling",
            "WeightedFairScheduling",
        }
    )

    def _base_name(self, base: ast.expr) -> str | None:
        """The (rightmost) name of one base-class expression."""
        if isinstance(base, ast.Name):
            return base.id
        if isinstance(base, ast.Attribute):
            return base.attr
        return None

    def _is_frozen_dataclass(self, node: ast.ClassDef) -> bool:
        """Whether the class carries ``@dataclass(frozen=True)``."""
        for decorator in node.decorator_list:
            if not isinstance(decorator, ast.Call):
                continue
            name = (
                decorator.func.id
                if isinstance(decorator.func, ast.Name)
                else decorator.func.attr
                if isinstance(decorator.func, ast.Attribute)
                else None
            )
            if name != "dataclass":
                continue
            if any(
                keyword.arg == "frozen"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
                for keyword in decorator.keywords
            ):
                return True
        return False

    def check(self, source: SourceFile) -> Iterator[Violation]:
        """Flag model/policy classes that are not frozen dataclasses."""
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = {self._base_name(base) for base in node.bases}
            is_model_root = node.name in self._MODEL_NAMES and not (
                bases & self._BASE_NAMES
            )
            is_subclass = bool(bases & self._BASE_NAMES)
            if not (is_model_root or is_subclass):
                continue
            if not self._is_frozen_dataclass(node):
                yield source.violation(
                    self.code,
                    f"{node.name} must be @dataclass(frozen=True): mutable "
                    "model/policy state breaks engine replay determinism",
                    node.lineno,
                )


class EngineIsolationRule(ScopedRule):
    """RL006: broker-local step code never reaches into the engine.

    ``overlay.process_at`` / ``process_batch_at``, the trie and the
    routing table are the pure broker-local step shared by the
    synchronous walk and the event engine; the sync == async equivalence
    proof rests on them not observing engine state.  These modules must
    not import :mod:`repro.routing.engine` or name ``DeliveryEngine``.
    """

    code = "RL006"
    name = "engine-isolation"
    description = (
        "broker-local step modules (overlay/table/trie) must not import "
        "or reference the delivery engine"
    )
    scope = (
        "src/repro/routing/overlay.py",
        "src/repro/routing/table.py",
        "src/repro/routing/trie.py",
    )

    def check(self, source: SourceFile) -> Iterator[Violation]:
        """Flag engine imports and ``DeliveryEngine`` references."""
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.endswith("routing.engine"):
                        yield source.violation(
                            self.code,
                            "broker-local step code must not import the "
                            "delivery engine",
                            node.lineno,
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.endswith("engine") and "routing" in (
                    module if "." in module else "routing"
                ):
                    yield source.violation(
                        self.code,
                        "broker-local step code must not import the "
                        "delivery engine",
                        node.lineno,
                    )
            elif isinstance(node, ast.Name) and node.id == "DeliveryEngine":
                yield source.violation(
                    self.code,
                    "broker-local step code must not reference "
                    "DeliveryEngine state",
                    node.lineno,
                )
            elif isinstance(node, ast.Attribute) and node.attr == "DeliveryEngine":
                yield source.violation(
                    self.code,
                    "broker-local step code must not reference "
                    "DeliveryEngine state",
                    node.lineno,
                )


class ExportConsistencyRule(ScopedRule):
    """RL007: package ``__init__`` re-exports and ``__all__`` agree.

    A name listed in ``__all__`` but never bound breaks
    ``from package import *`` and the public-API tests; a public name
    imported into the package namespace but missing from ``__all__`` is
    an accidental API.  Package ``__init__`` modules must keep the two
    in sync, with no duplicates.
    """

    code = "RL007"
    name = "export-consistency"
    description = (
        "package __init__ must declare __all__, every listed name must "
        "be bound, and every public re-export must be listed"
    )
    scope = ("src/repro",)

    def applies_to(self, relpath: str) -> bool:
        """Only package ``__init__`` modules are checked."""
        return super().applies_to(relpath) and relpath.endswith("__init__.py")

    def check(self, source: SourceFile) -> Iterator[Violation]:
        """Cross-check ``__all__`` against the module's bindings."""
        module = source.tree
        exported: list[tuple[str, int]] = []
        all_lineno: int | None = None
        bound: dict[str, int] = {}
        for node in module.body:
            if isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound[node.name] = node.lineno
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if target.id == "__all__":
                            all_lineno = node.lineno
                            if isinstance(node.value, (ast.List, ast.Tuple)):
                                for element in node.value.elts:
                                    if isinstance(
                                        element, ast.Constant
                                    ) and isinstance(element.value, str):
                                        exported.append(
                                            (element.value, element.lineno)
                                        )
                        else:
                            bound[target.id] = node.lineno
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                bound[node.target.id] = node.lineno
        if all_lineno is None:
            yield source.violation(
                self.code, "package __init__ must declare __all__", 1
            )
            return
        seen: set[str] = set()
        for name, lineno in exported:
            if name in seen:
                yield source.violation(
                    self.code, f"duplicate __all__ entry {name!r}", lineno
                )
            seen.add(name)
            if name not in bound:
                yield source.violation(
                    self.code,
                    f"__all__ lists {name!r} but the module never binds it",
                    lineno,
                )
        for name, lineno in sorted(bound.items()):
            if name.startswith("_"):
                continue
            if name not in seen:
                yield source.violation(
                    self.code,
                    f"public re-export {name!r} is missing from __all__",
                    lineno,
                )


class DocstringRule(ScopedRule):
    """RL008: every public API carries a docstring.

    Public modules, classes, functions and methods are the reproduction's
    contract surface; an undocumented one is unreviewable.  Dunder
    methods are exempt (the language defines their contract), as are
    ``@overload`` stubs and property setters/deleters.
    """

    code = "RL008"
    name = "public-docstring"
    description = (
        "public modules, classes, functions and methods must carry a "
        "docstring"
    )
    scope = ("src/repro",)

    def _is_exempt(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        """Overload stubs and property setters/deleters are exempt."""
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Name) and decorator.id == "overload":
                return True
            if isinstance(decorator, ast.Attribute) and decorator.attr in (
                "setter",
                "deleter",
            ):
                return True
        return False

    def check(self, source: SourceFile) -> Iterator[Violation]:
        """Flag public definitions without docstrings."""
        if ast.get_docstring(source.tree) is None:
            yield source.violation(
                self.code, "module is missing a docstring", 1
            )
        parents = source.parent_map()
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef):
                if node.name.startswith("_"):
                    continue
                if ast.get_docstring(node) is None:
                    yield source.violation(
                        self.code,
                        f"public class {node.name} is missing a docstring",
                        node.lineno,
                    )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_"):
                    continue
                parent = parents.get(node)
                if isinstance(parent, ast.ClassDef) and parent.name.startswith(
                    "_"
                ):
                    continue
                if not isinstance(parent, (ast.Module, ast.ClassDef)):
                    continue  # nested helpers are not API surface
                if self._is_exempt(node):
                    continue
                if ast.get_docstring(node) is None:
                    kind = (
                        "method" if isinstance(parent, ast.ClassDef) else "function"
                    )
                    yield source.violation(
                        self.code,
                        f"public {kind} {node.name} is missing a docstring",
                        node.lineno,
                    )


def default_rules() -> Sequence[Rule]:
    """The standard reprolint rule set, in code order."""
    return (
        UnseededRandomRule(),
        WallClockRule(),
        ProcessHashRule(),
        UnorderedIterationRule(),
        FrozenModelRule(),
        EngineIsolationRule(),
        ExportConsistencyRule(),
        DocstringRule(),
    )
