"""The initial rule pack: this repo's concurrency/protocol invariants.

Every rule here encodes an invariant the serving stack already states
in prose — and whose violation has already cost a debugging session in
an earlier PR (the ``rationale`` on each rule names it).  See
``src/repro/analysis/README.md`` for the rule table.
"""

from __future__ import annotations

import ast
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .engine import Finding, Module, Rule

__all__ = ["RULES", "all_rules", "get_rule", "select_rules"]


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
#: Name fragments that mark an expression as "a lock" (heuristic, by
#: convention: this repo names every lock/condition attribute with one).
_LOCK_TOKENS = ("lock", "mutex", "cond", "wakeup", "sem")
#: Constructors whose result is a lock whatever it is named.
_LOCK_FACTORIES = {
    "Lock",
    "RLock",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
}
_FILE_METHODS = {"read_bytes", "write_bytes", "read_text", "write_text"}
_SOCKET_METHODS = {
    "sendall",
    "recv",
    "recv_into",
    "sendto",
    "accept",
    "create_connection",
}
_THREADISH_TOKENS = ("thread", "flusher", "proc", "pool")


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted text of a Name/Attribute chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    if isinstance(node, ast.Call):
        return f"{_dotted(node.func)}()"
    return "<expr>"


def _last_segment(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Call):
        return _last_segment(node.func)
    return ""


def _is_lockish(node: ast.AST) -> bool:
    if isinstance(node, ast.Call):
        return _last_segment(node.func) in _LOCK_FACTORIES
    segment = _last_segment(node).lower()
    return bool(segment) and any(token in segment for token in _LOCK_TOKENS)


def _lock_label(node: ast.AST) -> str:
    if isinstance(node, ast.Call):
        return f"{_last_segment(node.func)}()"
    return _last_segment(node) or "<lock>"


def _blocking_call(node: ast.Call) -> Optional[str]:
    """A human label when ``node`` is a known-blocking call, else None."""
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        return "open(...)"
    if not isinstance(func, ast.Attribute):
        return None
    attr = func.attr
    receiver = _dotted(func.value)
    receiver_last = receiver.rsplit(".", 1)[-1].lower()
    if attr == "sleep" and receiver_last == "time":
        return "time.sleep(...)"
    if attr in _FILE_METHODS:
        return f"{receiver}.{attr}(...)"
    if attr in _SOCKET_METHODS:
        return f"{receiver}.{attr}(...)"
    if attr == "connect" and "sock" in receiver_last:
        return f"{receiver}.connect(...)"
    if attr == "acquire" and _is_lockish(func.value):
        return f"{receiver}.acquire()"
    if attr == "join" and any(token in receiver_last for token in _THREADISH_TOKENS):
        return f"{receiver}.join(...)"
    return None


def _walk_same_scope(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root``'s body without entering nested function scopes."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(root))[::-1]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(list(ast.iter_child_nodes(node))[::-1])


def _functions(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# ----------------------------------------------------------------------
# RA001 — no blocking calls inside async def bodies
# ----------------------------------------------------------------------
class NoBlockingInAsync(Rule):
    rule_id = "RA001"
    name = "no-blocking-in-async"
    title = "async def bodies must not call blocking primitives directly"
    rationale = (
        "PR 7 review: the cache server's HELLO/LEN/STATS handlers did "
        "backend disk I/O on the event loop thread, stalling every "
        "connection behind one slow GET batch."
    )
    explain = (
        "Inside `async def` bodies, calls that block the thread — "
        "open(), time.sleep(), Path.read_bytes()/write_bytes(), socket "
        "sendall/recv/connect, lock.acquire(), thread/pool join(), and "
        "synchronous `with <lock>:` blocks — stall the entire event "
        "loop, not just the current task.  Push the work to a thread "
        "with asyncio.to_thread(...) (passing the function, not calling "
        "it), or use the asyncio-native primitive.  Nested non-async "
        "helper functions are not scanned: they run wherever they are "
        "called from."
    )

    def check_module(self, module: Module) -> Iterable[Finding]:
        for function in _functions(module.tree):
            if not isinstance(function, ast.AsyncFunctionDef):
                continue
            for node in _walk_same_scope(function):
                if isinstance(node, ast.Call):
                    label = _blocking_call(node)
                    if label is not None:
                        yield self.finding(
                            module,
                            node,
                            f"blocking call {label} inside async def "
                            f"{function.name!r}; wrap the work in "
                            "asyncio.to_thread(...)",
                        )
                elif isinstance(node, ast.With):
                    for item in node.items:
                        if _is_lockish(item.context_expr):
                            yield self.finding(
                                module,
                                item.context_expr,
                                f"synchronous lock "
                                f"{_lock_label(item.context_expr)!r} "
                                f"taken inside async def "
                                f"{function.name!r}; it blocks the "
                                "event loop if contended",
                            )


# ----------------------------------------------------------------------
# RA002 — no lock held across an await or blocking I/O
# ----------------------------------------------------------------------
class _HeldLockWalker(ast.NodeVisitor):
    """With-block/acquire scope model for one function body."""

    def __init__(self, rule: Rule, module: Module, is_async: bool) -> None:
        self.rule = rule
        self.module = module
        self.is_async = is_async
        self.held: List[str] = []
        self.acquired: Dict[str, int] = {}
        self.findings: List[Finding] = []

    # -- scope bookkeeping ---------------------------------------------
    def _innermost(self) -> str:
        if self.held:
            return self.held[-1]
        return next(reversed(self.acquired))

    def _holding(self) -> bool:
        return bool(self.held or self.acquired)

    # -- skips ----------------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return  # nested scope: scanned on its own

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return

    # -- lock scopes ----------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        labels = []
        for item in node.items:
            self.visit(item.context_expr)
            if _is_lockish(item.context_expr):
                labels.append(_lock_label(item.context_expr))
        self.held.extend(labels)
        for statement in node.body:
            self.visit(statement)
        if labels:
            del self.held[-len(labels) :]

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and _is_lockish(func.value):
            label = _lock_label(func.value)
            if func.attr == "acquire":
                self.acquired[label] = node.lineno
            elif func.attr == "release":
                self.acquired.pop(label, None)
        if self._holding():
            label = _blocking_call(node)
            if label is not None and not label.endswith(".acquire()"):
                self.findings.append(
                    self.rule.finding(
                        self.module,
                        node,
                        f"lock {self._innermost()!r} held across "
                        f"blocking call {label}",
                    )
                )
        self.generic_visit(node)

    # -- yields ---------------------------------------------------------
    def _check_yield(self, node: ast.AST, what: str) -> None:
        if self.is_async and self._holding():
            self.findings.append(
                self.rule.finding(
                    self.module,
                    node,
                    f"lock {self._innermost()!r} held across {what}; "
                    "the task suspends with the lock still held",
                )
            )

    def visit_Await(self, node: ast.Await) -> None:
        self._check_yield(node, "an await")
        self.generic_visit(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._check_yield(node, "an async with")
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_yield(node, "an async for")
        self.generic_visit(node)


class NoLockAcrossAwait(Rule):
    rule_id = "RA002"
    name = "no-lock-across-await"
    title = "no lock held across an await or across blocking I/O"
    rationale = (
        "PR 7 review: RemoteCache.flush() slept inside the state lock "
        "while the background flusher needed it, turning an outage "
        "retry into a stall; the fix moved every sleep outside the "
        "lock."
    )
    explain = (
        "The engine builds a with-block/acquire scope model per "
        "function: inside a held `with <lock>:` scope (or after a bare "
        "lock.acquire()), an `await`/`async with`/`async for` suspends "
        "the task while other tasks or threads queue on the lock — the "
        "single-flight deadlock shape — and a blocking call "
        "(time.sleep, socket ops, file reads) stretches the critical "
        "section over I/O latency for every waiter.  Condition.wait() "
        "is exempt: it releases the lock while waiting."
    )

    def check_module(self, module: Module) -> Iterable[Finding]:
        for function in _functions(module.tree):
            walker = _HeldLockWalker(
                self, module, isinstance(function, ast.AsyncFunctionDef)
            )
            for statement in function.body:
                walker.visit(statement)
            yield from walker.findings


# ----------------------------------------------------------------------
# RA003 — lock-ordering consistency
# ----------------------------------------------------------------------
class _LockOrderWalker(ast.NodeVisitor):
    """Collects (outer, inner) acquisition pairs for one function."""

    def __init__(self) -> None:
        self.held: List[str] = []
        self.edges: List[Tuple[str, str, int]] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return

    def _enter(self, labels: List[str], line: int) -> None:
        for label in labels:
            for outer in self.held:
                self.edges.append((outer, label, line))
            self.held.append(label)

    def visit_With(self, node: ast.With) -> None:
        labels = [
            _lock_label(item.context_expr)
            for item in node.items
            if _is_lockish(item.context_expr)
        ]
        self._enter(labels, node.lineno)
        for statement in node.body:
            self.visit(statement)
        if labels:
            del self.held[-len(labels) :]

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "acquire"
            and _is_lockish(func.value)
        ):
            label = _lock_label(func.value)
            for outer in self.held:
                self.edges.append((outer, label, node.lineno))
        self.generic_visit(node)


class LockOrderConsistency(Rule):
    rule_id = "RA003"
    name = "lock-order-consistency"
    title = "nested lock acquisitions must form a consistent partial order"
    rationale = (
        "PR 6: Explorer.close() racing evaluate_many took the pool "
        "lock and the cache lock from opposite directions until the "
        "close path was rewritten to swap-then-shutdown outside the "
        "lock."
    )
    explain = (
        "Every `with a: with b:` (and acquire() under a held with) "
        "contributes an a-before-b edge, keyed by the lock attribute's "
        "name and collected across all analyzed files — the engine's "
        "cache lock, the cache server's counters lock and the remote "
        "client's io/state locks all flow through here.  A cycle in "
        "that graph means two code paths take the same locks in "
        "opposite orders: a deadlock waiting for the right "
        "interleaving.  The finding lists the cycle and one location "
        "per edge."
    )

    def check_project(self, modules: Sequence[Module]) -> Iterable[Finding]:
        edges: Dict[Tuple[str, str], Tuple[str, int]] = {}
        for module in modules:
            for function in _functions(module.tree):
                walker = _LockOrderWalker()
                for statement in function.body:
                    walker.visit(statement)
                for outer, inner, line in walker.edges:
                    edges.setdefault((outer, inner), (module.display, line))
        graph: Dict[str, Set[str]] = {}
        for outer, inner in edges:
            graph.setdefault(outer, set()).add(inner)
            graph.setdefault(inner, set())
        for cycle in self._cycles(graph):
            first_edge = (cycle[0], cycle[1])
            path, line = edges[first_edge]
            sites = ", ".join(
                f"{edges[(a, b)][0]}:{edges[(a, b)][1]} takes {a!r} then {b!r}"
                for a, b in zip(cycle, cycle[1:])
            )
            order = " -> ".join(repr(name) for name in cycle)
            yield Finding(
                rule=self.rule_id,
                path=path,
                line=line,
                col=1,
                message=f"inconsistent lock order {order}: {sites}",
            )

    @staticmethod
    def _cycles(graph: Dict[str, Set[str]]) -> List[List[str]]:
        """Shortest cycle through each offending node, deduplicated."""
        cycles: List[List[str]] = []
        seen: Set[Tuple[str, ...]] = set()
        for start in sorted(graph):
            # BFS from start back to start.
            queue: List[List[str]] = [[start]]
            found: Optional[List[str]] = None
            while queue and found is None:
                path = queue.pop(0)
                for successor in sorted(graph.get(path[-1], ())):
                    if successor == start:
                        found = path + [start]
                        break
                    if successor not in path:
                        queue.append(path + [successor])
            if found is None:
                continue
            canonical = tuple(sorted(found[:-1]))
            if canonical not in seen:
                seen.add(canonical)
                cycles.append(found)
        return cycles


# ----------------------------------------------------------------------
# RA004 — protocol/codec cross-consistency
# ----------------------------------------------------------------------
def _constant_table(module: Module) -> Dict[str, Tuple[str, object]]:
    """Module-level NAME = <literal | struct.Struct("fmt")> bindings."""
    table: Dict[str, Tuple[str, object]] = {}
    for statement in module.tree.body:
        if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
            target, value = statement.targets[0], statement.value
        elif isinstance(statement, ast.AnnAssign) and statement.value:
            target, value = statement.target, statement.value
        else:
            continue
        if not isinstance(target, ast.Name):
            continue
        if isinstance(value, ast.Constant) and isinstance(
            value.value, (int, str, bytes)
        ):
            table[target.id] = ("const", value.value)
        elif (
            isinstance(value, ast.Call)
            and _last_segment(value.func) == "Struct"
            and value.args
            and isinstance(value.args[0], ast.Constant)
        ):
            table[target.id] = ("struct", value.args[0].value)
    return table


class ProtocolConsistency(Rule):
    rule_id = "RA004"
    name = "protocol-codec-consistency"
    title = "wire constants in costs/report.py and cacheserver/protocol.py agree"
    rationale = (
        "PR 7: the cache wire protocol reuses the PR 5 record codec; a "
        "struct format or magic edited on one side but not the other "
        "decodes garbage instead of failing the handshake."
    )
    explain = (
        "The codec (costs/report.py) and its wire consumer "
        "(cacheserver/protocol.py) each declare constant tables: "
        "opcodes, status bytes, magic prefixes, struct.Struct formats.  "
        "This rule parses both files and diffs them: a name bound in "
        "both modules must have the same value; OP_*/STATUS_* values "
        "must be unique within their module (two opcodes sharing a "
        "byte silently route requests to the wrong handler); *_MAGIC "
        "prefixes must be pairwise distinct so format sniffing can "
        "never confuse a record for a handshake.  The rule activates "
        "only when both files are in the analyzed set."
    )

    DECLARING = ("costs", "report.py")
    CONSUMING = ("cacheserver", "protocol.py")

    @staticmethod
    def _locate(modules: Sequence[Module], suffix: Tuple[str, ...]) -> Optional[Module]:
        for module in modules:
            if module.path.parts[-len(suffix) :] == suffix:
                return module
        return None

    def check_project(self, modules: Sequence[Module]) -> Iterable[Finding]:
        declaring = self._locate(modules, self.DECLARING)
        consuming = self._locate(modules, self.CONSUMING)
        if declaring is None or consuming is None:
            return
        decl_table = _constant_table(declaring)
        cons_table = _constant_table(consuming)
        for name in sorted(set(decl_table) & set(cons_table)):
            if decl_table[name] != cons_table[name]:
                yield Finding(
                    rule=self.rule_id,
                    path=consuming.display,
                    line=1,
                    col=1,
                    message=(
                        f"constant {name} disagrees with "
                        f"{declaring.display}: "
                        f"{cons_table[name][1]!r} != {decl_table[name][1]!r}"
                    ),
                )
        for module, table in (
            (declaring, decl_table),
            (consuming, cons_table),
        ):
            for prefix in ("OP_", "STATUS_"):
                yield from self._unique_within(module, table, prefix)
        magics = {
            name: (module, value)
            for module, table in (
                (declaring, decl_table),
                (consuming, cons_table),
            )
            for name, (kind, value) in table.items()
            if name.endswith("_MAGIC") and kind == "const"
        }
        by_value: Dict[object, str] = {}
        for name in sorted(magics):
            module, value = magics[name]
            clash = by_value.setdefault(value, name)
            if clash != name:
                yield Finding(
                    rule=self.rule_id,
                    path=module.display,
                    line=1,
                    col=1,
                    message=(
                        f"magic {name} reuses {clash}'s byte prefix "
                        f"{value!r}; format sniffing cannot tell them "
                        "apart"
                    ),
                )

    def _unique_within(
        self,
        module: Module,
        table: Dict[str, Tuple[str, object]],
        prefix: str,
    ) -> Iterator[Finding]:
        by_value: Dict[object, str] = {}
        for name in sorted(table):
            if not name.startswith(prefix):
                continue
            kind, value = table[name]
            if kind != "const":
                continue
            clash = by_value.setdefault(value, name)
            if clash != name:
                yield Finding(
                    rule=self.rule_id,
                    path=module.display,
                    line=1,
                    col=1,
                    message=(
                        f"{name} and {clash} share value {value!r}; "
                        f"{prefix}* codes must be unique"
                    ),
                )


# ----------------------------------------------------------------------
# RA005 — CacheBackend implementer contract
# ----------------------------------------------------------------------
class BackendContract(Rule):
    rule_id = "RA005"
    name = "cache-backend-contract"
    title = "CacheBackend implementers define bulk hooks, never the oracle"
    rationale = (
        "PR 4/7: a backend without lookup_many/store_many silently "
        "degrades every warm sweep to per-key probes (the exact "
        "regression the bulk hooks were added to kill), and a backend "
        "that reaches into the oracle inverts the layering the "
        "single-flight table depends on."
    )
    explain = (
        "Any class defining the full backend surface (get, put, clear, "
        "__len__) is held to the repo contract: it must also define "
        "the bulk hooks lookup_many and store_many (the engine and the "
        "cache server probe whole sweeps through them), and no method "
        "of it may call oracle entry points (run_pmm, PmmRequest, "
        "request.run()) — backends store payloads; the explorer owns "
        "evaluation.  The hooks are CacheBackend Protocol members, and "
        "the engine calls them with no per-key fallback.  The Protocol "
        "class itself is exempt: it declares the surface, it does not "
        "implement it."
    )

    REQUIRED = {"get", "put", "clear", "__len__"}
    BULK = ("lookup_many", "store_many")

    def check_module(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if any(_last_segment(base) == "Protocol" for base in node.bases):
                continue
            methods = {
                statement.name
                for statement in node.body
                if isinstance(
                    statement, (ast.FunctionDef, ast.AsyncFunctionDef)
                )
            }
            if not self.REQUIRED <= methods:
                continue
            for hook in self.BULK:
                if hook not in methods:
                    yield self.finding(
                        module,
                        node,
                        f"cache backend {node.name!r} does not define "
                        f"{hook}(); bulk probes degrade to per-key "
                        "calls",
                    )
            yield from self._oracle_calls(module, node)

    def _oracle_calls(self, module: Module, node: ast.ClassDef) -> Iterator[Finding]:
        for child in ast.walk(node):
            if not isinstance(child, ast.Call):
                continue
            func = child.func
            name = _last_segment(func)
            oracle = name in {"run_pmm", "PmmRequest"} or (
                isinstance(func, ast.Attribute)
                and func.attr == "run"
                and "request" in _dotted(func.value).lower()
            )
            if oracle:
                yield self.finding(
                    module,
                    child,
                    f"cache backend {node.name!r} calls the oracle "
                    f"({_dotted(func)}); backends store payloads, the "
                    "explorer evaluates",
                )


# ----------------------------------------------------------------------
# RA006 — no silently swallowed exceptions
# ----------------------------------------------------------------------
class NoSwallowedExceptions(Rule):
    rule_id = "RA006"
    name = "no-swallowed-exceptions"
    title = "broad except handlers must log, re-raise, or count"
    rationale = (
        "PR 7 review: the cache server lost requests_total/errors "
        "increments and served torn stats because failures vanished in "
        "broad handlers instead of being counted; a flusher thread "
        "that swallows everything dies invisibly."
    )
    explain = (
        "A bare `except:`, `except Exception:` or `except "
        "BaseException:` whose body is only pass/.../continue/break "
        "discards the error and every trace of it — fatal in daemon "
        "and flusher threads, where the next symptom is a queue that "
        "silently stops draining.  Handle it: log, re-raise, set an "
        "error counter, or narrow the exception types to the ones the "
        "code genuinely expects.  Narrow handlers (OSError, "
        "ConnectionError, ...) are exempt: tolerating a *specific* "
        "failure silently is often the documented design."
    )

    _BROAD = {"Exception", "BaseException"}

    def _is_broad(self, node: Optional[ast.expr]) -> bool:
        if node is None:
            return True  # bare except
        if isinstance(node, ast.Tuple):
            return any(self._is_broad(element) for element in node.elts)
        return _last_segment(node) in self._BROAD

    @staticmethod
    def _is_trivial(body: Sequence[ast.stmt]) -> bool:
        for statement in body:
            if isinstance(statement, (ast.Pass, ast.Continue, ast.Break)):
                continue
            if isinstance(statement, ast.Expr) and isinstance(
                statement.value, ast.Constant
            ):
                continue  # docstring or ellipsis
            return False
        return True

    def check_module(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if self._is_broad(node.type) and self._is_trivial(node.body):
                caught = (
                    _dotted(node.type)
                    if node.type is not None
                    else "everything (bare except)"
                )
                yield self.finding(
                    module,
                    node,
                    f"over-broad handler catches {caught} and swallows "
                    "it; log, re-raise, count, or narrow the types",
                )


# ----------------------------------------------------------------------
# RA007 — search strategies never evaluate inside propose()
# ----------------------------------------------------------------------
class StrategyProposePurity(Rule):
    rule_id = "RA007"
    name = "strategy-propose-purity"
    title = "search strategies never evaluate inside propose()"
    rationale = (
        "PR 10: the propose/observe refactor moved evaluation, budget "
        "charging and progress accounting into the SearchDriver; a "
        "strategy that calls the oracle or the cache backend from "
        "propose() evaluates outside the driver — its points are "
        "invisible to budgets, round snapshots and the service's "
        "single-flight table (the RA005 layering inversion, one layer "
        "up)."
    )
    explain = (
        "Any class defining both propose and observe is held to the "
        "strategy protocol: propose() only *nominates* points — the "
        "driver evaluates them, charges the budget and feeds the "
        "records back through observe().  Inside propose() (and any "
        "same-class helper it reaches) the rule flags oracle entry "
        "points (run_pmm, PmmRequest, request.run()), "
        "evaluation-engine calls (evaluate, evaluate_many, "
        "evaluate_program) and cache-backend surfaces (lookup/"
        "lookup_many/store/store_many, or get/put on a cache-named "
        "receiver).  observe() may log and decide freely; it never "
        "needs the oracle either, but decision logs and sessions live "
        "there by design."
    )

    _ORACLE = {"run_pmm", "PmmRequest"}
    _EVALUATE = {"evaluate", "evaluate_many", "evaluate_program"}
    _BACKEND = {"lookup", "lookup_many", "store", "store_many"}

    def _classify(self, func: ast.expr) -> Optional[str]:
        last = _last_segment(func)
        if last in self._ORACLE:
            return "the oracle"
        if isinstance(func, ast.Attribute):
            receiver = _dotted(func.value).lower()
            if func.attr == "run" and "request" in receiver:
                return "the oracle"
            if func.attr in self._EVALUATE:
                return "the evaluation engine"
            if func.attr in self._BACKEND:
                return "the cache backend"
            if func.attr in {"get", "put"} and "cache" in receiver:
                return "the cache backend"
        return None

    def check_module(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                statement.name: statement
                for statement in node.body
                if isinstance(
                    statement, (ast.FunctionDef, ast.AsyncFunctionDef)
                )
            }
            if "propose" not in methods or "observe" not in methods:
                continue
            yield from self._check_strategy(module, node, methods)

    def _check_strategy(
        self,
        module: Module,
        node: ast.ClassDef,
        methods: Dict[str, ast.AST],
    ) -> Iterator[Finding]:
        seen: Set[str] = set()
        stack = ["propose"]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            for child in ast.walk(methods[name]):
                if not isinstance(child, ast.Call):
                    continue
                func = child.func
                # Follow same-class helpers (self._helper(...)) so the
                # purity check covers propose's whole reachable slice.
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                    and func.attr in methods
                    and func.attr not in seen
                ):
                    stack.append(func.attr)
                label = self._classify(func)
                if label is None:
                    continue
                via = "" if name == "propose" else f" (via helper {name!r})"
                yield self.finding(
                    module,
                    child,
                    f"strategy {node.name!r} calls {label} "
                    f"({_dotted(func)}) inside propose(){via}; "
                    "propose only nominates points — the driver "
                    "evaluates, charges budgets and routes records "
                    "back through observe()",
                )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
RULES: Tuple[Rule, ...] = (
    NoBlockingInAsync(),
    NoLockAcrossAwait(),
    LockOrderConsistency(),
    ProtocolConsistency(),
    BackendContract(),
    NoSwallowedExceptions(),
    StrategyProposePurity(),
)


def all_rules() -> Tuple[Rule, ...]:
    return RULES


def get_rule(rule_id: str) -> Rule:
    for rule in RULES:
        if rule_id in (rule.rule_id, rule.name):
            return rule
    raise KeyError(f"unknown rule {rule_id!r}")


def select_rules(ids: Optional[Sequence[str]]) -> Tuple[Rule, ...]:
    """The full pack, or the subset named by ``ids`` (id or name)."""
    if not ids:
        return RULES
    return tuple(get_rule(rule_id) for rule_id in ids)
