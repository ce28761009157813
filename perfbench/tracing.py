"""Span tracing installed from outside the program.

The benchmark wraps the program's public functions at the names the
code looks them up by, so the program itself carries no tracing code.
Each call of a wrapped function records one span: name, start, end,
parent span, operation id, and the work it was handed (points, keys).
Spans stay in memory and are written out when the process ends; the
per-layer metrics are aggregated from them.

A wrap target that no longer exists is reported by name
(``Tracer.missing``), so a refactor that moves a function shows up as
a missing layer instead of as zero time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
import weakref
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: One span: (id, parent id, name, start, end, op id, extra counters).
Span = Tuple[int, int, str, float, float, int, Optional[Dict[str, Any]]]


#: A measure maps (args, kwargs, result, state) to the span's counters;
#: ``state`` is what its optional ``before(args)`` hook returned.
Measure = Callable[..., Dict[str, Any]]


def _len_arg(index: int) -> Measure:
    def measure(args: Sequence[Any], kwargs: Any, result: Any, state: Any) -> Dict[str, Any]:
        return {"n": len(args[index])} if len(args) > index else {"n": 0}

    return measure


def _one(args: Sequence[Any], kwargs: Any, result: Any, state: Any) -> Dict[str, Any]:
    return {"n": 1}


def _count_arg(args: Sequence[Any], kwargs: Any, result: Any, state: Any) -> Dict[str, Any]:
    # EvaluationCache.count_hits / count_misses (self, n=1)
    return {"n": int(args[1]) if len(args) > 1 else int(kwargs.get("n", 1))}


def _build(args: Sequence[Any], kwargs: Any, result: Any, state: Any) -> Dict[str, Any]:
    return {"build": 1}


def _driver_rounds(args: Sequence[Any], kwargs: Any, result: Any, state: Any) -> Dict[str, Any]:
    rounds = getattr(result, "rounds", None)
    return {"n": len(rounds) if rounds is not None else 0}


class _Probe:
    """A cache probe: keys asked for, and decoded-tier hits it absorbed."""

    def __init__(self, bulk: bool) -> None:
        self.bulk = bulk

    def before(self, args: Sequence[Any]) -> int:
        return int(getattr(args[0], "decoded_hits", 0))

    def __call__(self, args: Sequence[Any], kwargs: Any, result: Any, state: int) -> Dict[str, Any]:
        keys = len(set(args[1])) if self.bulk else 1
        return {"n": keys, "decoded_hits": int(getattr(args[0], "decoded_hits", 0)) - state}


class _ProgramBuilds:
    """Marks the ``DesignSpace.program`` calls that produced a new program.

    A space runs a variant's build thunk at most once, and registered
    apps share built programs across spaces, so most calls hand back a
    program the process already has; only a program object never seen
    before is a build.  The programs are held so their ids stay unique.
    """

    def __init__(self) -> None:
        self._seen: Dict[int, Any] = {}

    def __call__(self, args: Sequence[Any], kwargs: Any, result: Any, state: Any) -> Dict[str, Any]:
        if result is None or id(result) in self._seen:
            return {}
        self._seen[id(result)] = result
        return {"build": 1}


class _BalanceKeys:
    """Identity of one ``balance`` call: nest content, budget, off-chip set.

    ``balance(graph, budget, weight_fn, cap_fn)`` depends on the nest,
    the body budget and which of the nest's groups live off-chip (the
    port caps encode that), so two calls with the same key do the same
    work.  The nest signature is computed once per flow-graph object.
    """

    def __init__(self) -> None:
        self._signatures: "weakref.WeakKeyDictionary[Any, Tuple[Any, ...]]" = (
            weakref.WeakKeyDictionary()
        )

    def _signature(self, graph: Any) -> Tuple[Any, ...]:
        try:
            return self._signatures[graph]
        except (KeyError, TypeError):
            pass
        occurrences = tuple(
            (o.label, o.group, str(o.kind), o.probability, o.share, o.exclusive_class)
            for o in graph.occurrences
        )
        signature = (graph.nest_name, graph.iterations, occurrences)
        try:
            self._signatures[graph] = signature
        except TypeError:
            pass
        return signature

    def __call__(self, args: Sequence[Any], kwargs: Any, result: Any, state: Any) -> Dict[str, Any]:
        graph = args[0] if args else kwargs["graph"]
        budget = args[1] if len(args) > 1 else kwargs["budget"]
        cap_fn = args[3] if len(args) > 3 else kwargs.get("cap_fn")
        signature = self._signature(graph)
        groups = sorted({occurrence[1] for occurrence in signature[2]})
        caps = tuple(cap_fn(group) for group in groups) if cap_fn else ()
        return {"key": hash((signature, budget, caps))}


#: (layer span name, "module:attribute.path", measure) for every wrap
#: target.  Names follow the repo's modules; several targets may feed
#: one name (both fingerprint entry points count as one layer).
Target = Tuple[str, str, Optional[Measure]]


def targets() -> List[Target]:
    """Every wrap target, with fresh measure state."""
    return [
        ("dtse.oracle", "repro.dtse.pipeline:run_pmm", None),
        ("dtse.scbd.distribute", "repro.dtse.pipeline:distribute", None),
        ("dtse.scbd.balance", BALANCE_TARGET, _BalanceKeys()),
        ("dtse.allocation.assign", "repro.dtse.pipeline:assign_memories", None),
        ("apps.build", "repro.explore.space:DesignSpace.program", _ProgramBuilds()),
        # BTPC's codec profiling run, at both names it is looked up by.
        ("apps.build", "repro.apps.btpc.spec:profile_btpc", _build),
        ("apps.build", "repro.explore.btpc_study:profile_btpc", _build),
        ("explore.fingerprint", "repro.explore.engine:Explorer.fingerprint_points", _len_arg(1)),
        ("explore.fingerprint", "repro.explore.engine:Explorer.fingerprint_point", _one),
        ("explore.cache.lookup", "repro.explore.engine:EvaluationCache.lookup_many", _Probe(bulk=True)),
        ("explore.cache.lookup", "repro.explore.engine:EvaluationCache.lookup", _Probe(bulk=False)),
        ("explore.cache.store", "repro.explore.engine:EvaluationCache.store", _one),
        ("explore.cache.store", "repro.explore.engine:EvaluationCache.store_many", _len_arg(1)),
        ("explore.cache.store", "repro.explore.engine:EvaluationCache.store_failure", _one),
        ("explore.cache.hits", "repro.explore.engine:EvaluationCache.count_hits", _count_arg),
        ("explore.cache.misses", "repro.explore.engine:EvaluationCache.count_misses", _count_arg),
        ("explore.backend.open", "repro.explore.cache:DiskCache.__init__", None),
        ("explore.backend.lookup", "repro.explore.cache:DiskCache.lookup_many", _len_arg(1)),
        ("explore.backend.lookup", "repro.explore.cache:DiskCache.get", _one),
        ("explore.backend.store", "repro.explore.cache:DiskCache.store_many", _len_arg(1)),
        ("explore.backend.store", "repro.explore.cache:DiskCache.put", _one),
        ("explore.remote.lookup", "repro.explore.cache:RemoteCache.lookup_many", _len_arg(1)),
        ("explore.remote.lookup", "repro.explore.cache:RemoteCache.get", _one),
        ("explore.backend.store", "repro.explore.cache:RemoteCache.store_many", _len_arg(1)),
        ("explore.backend.store", "repro.explore.cache:RemoteCache.put", _one),
        ("costs.decode", "repro.costs.report:CostReport.from_dict", None),
        ("costs.encode", "repro.costs.report:CostReport.to_dict", None),
        ("explore.evaluate_many", "repro.explore.engine:Explorer.evaluate_many", _len_arg(1)),
        ("explore.driver", "repro.explore.engine:SearchDriver.run", _driver_rounds),
    ]


BALANCE_TARGET = "repro.dtse.scbd.distribution:balance"


def _replace(target: str, wrap: Callable[[Callable[..., Any]], Callable[..., Any]]) -> bool:
    """Replace ``module:attribute.path`` by ``wrap(original)``.

    Returns False, changing nothing, when the target does not resolve.
    """
    module_name, _, path = target.partition(":")
    parts = path.split(".")
    try:
        owner: Any = importlib.import_module(module_name)
        for part in parts[:-1]:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, parts[-1])
    except (ImportError, AttributeError):
        return False
    if isinstance(raw, (classmethod, staticmethod)):
        wrapped: Any = type(raw)(wrap(raw.__func__))
    elif callable(raw):
        wrapped = wrap(raw)
    else:
        return False
    setattr(owner, parts[-1], wrapped)
    return True


class CallCounter:
    """Counts the calls of one wrap target, with no timing at all."""

    def __init__(self, target: str) -> None:
        self.calls = 0
        self._taken = 0
        if not _replace(target, self._wrap):
            raise RuntimeError(f"wrap target {target} does not exist")

    def _wrap(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def take(self) -> int:
        """Calls since the previous :meth:`take`."""
        calls, self._taken = self.calls - self._taken, self.calls
        return calls


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        #: Operation id stamped on new spans; -1 outside timed operations.
        self.op = -1
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _wrap(
        self, name: str, fn: Callable[..., Any], measure: Optional[Measure]
    ) -> Callable[..., Any]:
        tracer = self
        local = self._local
        before = getattr(measure, "before", None)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            active = getattr(local, "active", None)
            if active is None:
                active = local.active = set()
                local.stack = []
            if name in active:
                # A layer calling itself (a bulk probe falling back to
                # per-key gets) is one span of that layer, not two.
                return fn(*args, **kwargs)
            span_id = next(tracer._ids)
            stack = local.stack
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            active.add(name)
            info: Dict[str, Any] = {}
            state = before(args) if before is not None else None
            result = None
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                info["error"] = type(exc).__name__
                raise
            finally:
                end = time.monotonic()
                stack.pop()
                active.discard(name)
                if measure is not None:
                    info.update(measure(args, kwargs, result, state))
                tracer.spans.append(
                    (span_id, parent, name, start, end, tracer.op, info or None)
                )

        return wrapper

    def install(self, targets: Sequence[Target]) -> None:
        """Wrap every target; unresolvable ones land in :attr:`missing`."""
        for name, target, measure in targets:
            if not _replace(target, lambda fn: self._wrap(name, fn, measure)):
                self.missing.append(target)

    def write(self, path: str) -> None:
        """Write the recorded spans as JSON lines (one span per line)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"missing": self.missing}, handle)
            handle.write("\n")
            for span in self.spans:
                json.dump(span, handle)
                handle.write("\n")


def read_spans(path: str) -> Tuple[List[Span], List[str]]:
    """Load a span file written by :meth:`Tracer.write`."""
    spans: List[Span] = []
    with open(path, encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        for line in handle:
            span = json.loads(line)
            spans.append(tuple(span))  # type: ignore[arg-type]
    return spans, list(header.get("missing", []))


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
_INFEASIBLE = ("InfeasibleBudget", "AssignmentError")


def aggregate(
    spans: Sequence[Span],
    in_window: Callable[[Span], bool],
) -> Dict[str, float]:
    """Per-layer metrics of the spans ``in_window`` selects.

    ``apps.build`` is the exception: variant programs are built during
    set-up, never inside a timed window, so it aggregates every span.
    Times are inclusive except ``explore.evaluate_many.self_s`` (the
    engine's own time: its duration minus its child spans').
    ``explore.root_s`` is the time of outermost ``explore``/``costs``
    spans: how much of the window the exploration layers hold.
    """
    child_time: Dict[int, float] = {}
    for span in spans:
        if span[1]:
            child_time[span[1]] = child_time.get(span[1], 0.0) + (span[4] - span[3])
    calls: Dict[str, int] = {}
    seconds: Dict[str, float] = {}
    work: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    balance_keys = set()
    infeasible = 0
    decoded_hits = 0
    builds = 0
    build_s = 0.0
    oracle_parents = {span[1] for span in spans if span[2] == "dtse.oracle"}
    cache_only = 0
    explore_root_s = 0.0
    for span in spans:
        span_id, _parent, name, start, end, _op, info = span
        info = info or {}
        if name == "apps.build":
            if info.get("build"):
                builds += 1
                build_s += end - start
            continue
        if not in_window(span):
            continue
        if name == "explore.evaluate_many" and span_id not in oracle_parents:
            cache_only += 1
        if not _parent and name.startswith(("explore.", "costs.")):
            explore_root_s += end - start
        duration = end - start
        calls[name] = calls.get(name, 0) + 1
        seconds[name] = seconds.get(name, 0.0) + duration
        work[name] = work.get(name, 0) + int(info.get("n", 0))
        self_s[name] = self_s.get(name, 0.0) + duration - child_time.get(span_id, 0.0)
        if name == "dtse.scbd.balance" and "key" in info:
            balance_keys.add(info["key"])
        if name == "dtse.oracle" and info.get("error") in _INFEASIBLE:
            infeasible += 1
        decoded_hits += int(info.get("decoded_hits", 0))

    def c(name: str) -> int:
        return calls.get(name, 0)

    def s(name: str) -> float:
        return seconds.get(name, 0.0)

    balance_calls = c("dtse.scbd.balance")
    return {
        "dtse.scbd.balance.calls": balance_calls,
        "dtse.scbd.balance.s": s("dtse.scbd.balance"),
        "dtse.scbd.balance.keys": len(balance_keys),
        "dtse.scbd.balance.reuse": (
            balance_calls / len(balance_keys) if balance_keys else 0.0
        ),
        "dtse.scbd.distribute.calls": c("dtse.scbd.distribute"),
        "dtse.scbd.distribute.s": s("dtse.scbd.distribute"),
        "dtse.allocation.assign.calls": c("dtse.allocation.assign"),
        "dtse.allocation.assign.s": s("dtse.allocation.assign"),
        "dtse.oracle.calls": c("dtse.oracle"),
        "dtse.oracle.s": s("dtse.oracle"),
        "dtse.oracle.infeasible": infeasible,
        "apps.build.calls": builds,
        "apps.build.s": build_s,
        "explore.fingerprint.points": work.get("explore.fingerprint", 0),
        "explore.fingerprint.s": s("explore.fingerprint"),
        "explore.cache.lookup.calls": c("explore.cache.lookup"),
        "explore.cache.lookup.keys": work.get("explore.cache.lookup", 0),
        "explore.cache.lookup.s": s("explore.cache.lookup"),
        "explore.cache.hits": work.get("explore.cache.hits", 0),
        "explore.cache.misses": work.get("explore.cache.misses", 0),
        "explore.cache.decoded_hits": decoded_hits,
        "explore.cache.store.calls": c("explore.cache.store"),
        "explore.cache.store.s": s("explore.cache.store"),
        "explore.backend.open.s": s("explore.backend.open"),
        "explore.backend.lookup.s": s("explore.backend.lookup") + s("explore.remote.lookup"),
        "explore.backend.store.s": s("explore.backend.store"),
        "explore.remote.lookup.s": s("explore.remote.lookup"),
        "costs.decode.calls": c("costs.decode"),
        "costs.decode.s": s("costs.decode"),
        "costs.encode.calls": c("costs.encode"),
        "costs.encode.s": s("costs.encode"),
        "explore.evaluate_many.calls": c("explore.evaluate_many"),
        "explore.evaluate_many.points": work.get("explore.evaluate_many", 0),
        "explore.evaluate_many.self_s": self_s.get("explore.evaluate_many", 0.0),
        "explore.evaluate_many.cache_only": cache_only,
        "explore.root_s": explore_root_s,
        "explore.driver.rounds": work.get("explore.driver", 0),
    }

