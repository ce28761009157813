"""Content-addressed fingerprints for evaluation requests.

Every oracle evaluation is addressed by a SHA-256 over a canonical JSON
payload of (program structure, cycle budget, knobs, library).  The
presentation label is excluded: the same organization evaluated under
two names is still one oracle run.

Two construction paths produce **byte-identical** fingerprints:

* :func:`fingerprint_request` — the monolithic reference path: it
  re-canonicalizes the entire request every call.  Simple, stateless,
  and the ground truth the compatibility tests pin the fast path
  against.
* :meth:`~repro.explore.engine.Explorer.fingerprint_points` — the one
  fast path, for whole design-point batches: the expensive
  canonical-JSON fragments (program and library — everything that is
  invariant across a sweep) are computed **once** per object
  (:func:`cached_canonical_json`), and each point then pays a tiny knob
  digest (budget, ``n_onchip``, ``area_weight``, seed) plus one hash
  over the spliced blob.

Because both paths hash the same serialized payload, existing
:class:`~repro.explore.cache.DiskCache` directories and golden files
stay valid.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dtse.pipeline import PmmRequest


def _encode_dataclass_factory(cls: type) -> Callable[[Any], Any]:
    # Field names are a property of the class, not the instance:
    # resolving them once per type removes the dominant per-value cost
    # (``dataclasses.fields`` + ``is_dataclass``) from the hot path.
    names = tuple(f.name for f in dataclasses.fields(cls))
    type_name = cls.__name__

    def encode(value: Any) -> Any:
        encoded = {name: canonical_value(getattr(value, name)) for name in names}
        encoded["__type__"] = type_name
        return encoded

    return encode


def _encode_sequence(value: Any) -> Any:
    return [canonical_value(item) for item in value]


def _encode_set(value: Any) -> Any:
    return sorted(canonical_value(item) for item in value)


def _encode_mapping(value: Any) -> Any:
    return {str(key): canonical_value(value[key]) for key in sorted(value)}


def _identity(value: Any) -> Any:
    return value


def _encode_leaf(value: Any) -> Any:
    """The instance-dependent tail of the chain (unknown leaf types)."""
    try:  # numpy scalars and other float-like leaves
        return float(value)
    except (TypeError, ValueError):
        pass
    if hasattr(value, "__dict__"):  # plain-state objects (e.g. generators)
        encoded = {
            key: canonical_value(item) for key, item in sorted(vars(value).items())
        }
        encoded["__type__"] = type(value).__name__
        return encoded
    return repr(value)


def _handler_for(cls: type) -> Callable[[Any], Any]:
    """Resolve the canonicalization rule for one concrete type.

    Mirrors the precedence of the historic per-value ``isinstance``
    chain exactly (dataclass before enum before primitive leaves), so
    the dispatch rewrite cannot change a single fingerprint byte.
    """
    if dataclasses.is_dataclass(cls):
        return _encode_dataclass_factory(cls)
    if issubclass(cls, enum.Enum):
        type_name = cls.__name__
        return lambda value: f"{type_name}.{value.name}"
    if cls is type(None) or issubclass(cls, (bool, int, str)):
        return _identity
    if issubclass(cls, float):
        return float
    if issubclass(cls, (tuple, list)):
        return _encode_sequence
    if issubclass(cls, (set, frozenset)):
        return _encode_set
    if issubclass(cls, Mapping):
        return _encode_mapping
    return _encode_leaf


#: type -> canonicalization handler, resolved lazily.  Keyed by concrete
#: class, so the per-value cost is one dict probe; growth is bounded by
#: the number of distinct types ever canonicalized.
_HANDLERS: Dict[type, Callable[[Any], Any]] = {}


def canonical_value(value: Any) -> Any:
    """Reduce a value to JSON-stable primitives for fingerprinting.

    Dataclasses flatten to (type name, field values); enums to their
    qualified name; floats go through ``float()`` so numpy scalars and
    Python floats fingerprint identically.  Dispatch is memoized per
    concrete type (the rules are type-level properties), which is what
    keeps canonicalizing a whole program affordable on the sweep warm
    path.
    """
    cls = type(value)
    handler = _HANDLERS.get(cls)
    if handler is None:
        handler = _HANDLERS[cls] = _handler_for(cls)
    return handler(value)


#: Entry bound for the shared fragment memo.  Entries keep a strong
#: reference to their object, so a live entry's id can never be recycled
#: out from under it; evicted entries drop the reference and a recycled
#: id simply misses the identity revalidation.
FRAGMENT_MEMO_ENTRIES = 128

_FRAGMENTS: "OrderedDict[int, Tuple[Any, str]]" = OrderedDict()


def cached_canonical_json(value: Any) -> str:
    """Identity-memoized :func:`canonical_json` for sweep invariants.

    Program and library objects are shared across design spaces (the
    workload registry hands fresh spaces the same built programs), so a
    process-wide identity memo means the expensive canonical fragments
    are paid once per *object*, not once per space.  Entries revalidate
    by identity — a replaced program or library can never serve a stale
    fragment — and the memo is LRU-bounded so ad-hoc callers cannot grow
    it without limit.
    """
    key = id(value)
    entry = _FRAGMENTS.get(key)
    if entry is not None and entry[0] is value:
        _FRAGMENTS.move_to_end(key)
        return entry[1]
    text = canonical_json(value)
    _FRAGMENTS[key] = (value, text)
    _FRAGMENTS.move_to_end(key)
    while len(_FRAGMENTS) > FRAGMENT_MEMO_ENTRIES:
        _FRAGMENTS.popitem(last=False)
    return text


def canonical_json(value: Any) -> str:
    """The canonical JSON text of a value, as embedded in fingerprints.

    ``sort_keys`` + compact separators make this exactly the fragment
    :func:`json.dumps` would emit for the value nested inside the full
    request payload, so precomputed fragments splice into
    :meth:`~repro.explore.engine.Explorer.fingerprint_points` without
    changing a single byte.
    """
    return json.dumps(canonical_value(value), sort_keys=True, separators=(",", ":"))


def fingerprint_request(request: "PmmRequest") -> str:
    """Content address of one evaluation (label excluded: cosmetic).

    The monolithic reference path: canonicalizes the whole request on
    every call.  The sweep hot path,
    :meth:`~repro.explore.engine.Explorer.fingerprint_points`, splices
    memoized program/library fragments instead; a compatibility test
    keeps the two byte-identical.
    """
    payload = {
        "program": canonical_value(request.program),
        "cycle_budget": float(request.cycle_budget),
        "frame_time_s": float(request.frame_time_s),
        "library": canonical_value(request.library),
        "n_onchip": request.n_onchip,
        "area_weight": float(request.area_weight),
        "seed": request.seed,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
