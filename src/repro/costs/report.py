"""Cost reports: the feedback the whole methodology revolves around.

Every evaluation of a memory organization produces a :class:`CostReport`
with the three columns the paper tabulates — on-chip area [mm²], on-chip
power [mW], off-chip power [mW] — plus the per-memory breakdown so a
designer can see *where* the cost comes from.

The module also owns the **compact payload codec** the cache stack uses
to persist report payloads on disk without generic JSON decoding:
:func:`pack_payload` / :func:`unpack_payload` translate the exact
``to_dict`` payload shape (plus the ``__infeasible__`` negative-entry
marker) to a small self-describing struct-packed record with a
magic+version header.  Payloads that do not match a known shape fall
back to an embedded JSON record, so the codec round-trips *any*
JSON-object payload a cache backend is handed.

The same records are the unit of transfer for the network cache tier:
the **wire framing** helpers at the bottom (:func:`pack_frame`,
:func:`pack_wire_keys`, :func:`pack_wire_records` and their inverses)
are the length-prefixed transport primitives :mod:`repro.cacheserver`
and :class:`~repro.explore.cache.RemoteCache` speak to each other.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from ..memlib.module import MemoryKind


@dataclass(frozen=True)
class MemoryCost:
    """Cost contribution of one instantiated memory."""

    name: str
    kind: MemoryKind
    words: int
    width: int
    ports: int
    area_mm2: float
    power_mw: float
    #: Basic groups assigned to this memory.
    groups: Tuple[str, ...] = ()
    #: Aggregate access rate served [accesses/s].
    access_rate_hz: float = 0.0

    def describe(self) -> str:
        members = ", ".join(self.groups) if self.groups else "-"
        return (
            f"{self.name:<28} {self.words:>9,}x{self.width:<3}"
            f" p{self.ports} {self.area_mm2:>7.2f} mm2 {self.power_mw:>8.2f} mW"
            f"  [{members}]"
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (the inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "kind": self.kind.value,
            "words": self.words,
            "width": self.width,
            "ports": self.ports,
            "area_mm2": self.area_mm2,
            "power_mw": self.power_mw,
            "groups": list(self.groups),
            "access_rate_hz": self.access_rate_hz,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MemoryCost":
        return cls(
            name=data["name"],
            kind=MemoryKind(data["kind"]),
            words=int(data["words"]),
            width=int(data["width"]),
            ports=int(data["ports"]),
            area_mm2=float(data["area_mm2"]),
            power_mw=float(data["power_mw"]),
            groups=tuple(data.get("groups", ())),
            access_rate_hz=float(data.get("access_rate_hz", 0.0)),
        )


@dataclass(frozen=True)
class CostReport:
    """Area/power/performance feedback for one design alternative."""

    label: str
    memories: Tuple[MemoryCost, ...] = ()
    #: Memory cycles actually needed by the schedule.
    cycles_used: float = 0.0
    #: Cycle budget the schedule had to respect.
    cycle_budget: float = 0.0
    notes: str = ""

    # ------------------------------------------------------------------
    @property
    def onchip(self) -> Tuple[MemoryCost, ...]:
        return tuple(m for m in self.memories if m.kind is MemoryKind.ONCHIP)

    @property
    def offchip(self) -> Tuple[MemoryCost, ...]:
        return tuple(m for m in self.memories if m.kind is MemoryKind.OFFCHIP)

    @property
    def onchip_area_mm2(self) -> float:
        return sum(m.area_mm2 for m in self.onchip)

    @property
    def onchip_power_mw(self) -> float:
        return sum(m.power_mw for m in self.onchip)

    @property
    def offchip_power_mw(self) -> float:
        return sum(m.power_mw for m in self.offchip)

    @property
    def total_power_mw(self) -> float:
        return self.onchip_power_mw + self.offchip_power_mw

    @property
    def onchip_memory_count(self) -> int:
        return len(self.onchip)

    # ------------------------------------------------------------------
    def table_row(self) -> Tuple[str, float, float, float]:
        """(label, on-chip area, on-chip power, off-chip power)."""
        return (
            self.label,
            self.onchip_area_mm2,
            self.onchip_power_mw,
            self.offchip_power_mw,
        )

    def describe(self) -> str:
        """Full multi-line breakdown."""
        lines = [
            f"{self.label}: on-chip {self.onchip_area_mm2:.1f} mm2 / "
            f"{self.onchip_power_mw:.1f} mW, off-chip "
            f"{self.offchip_power_mw:.1f} mW, total "
            f"{self.total_power_mw:.1f} mW",
        ]
        for memory in self.memories:
            lines.append("  " + memory.describe())
        if self.notes:
            lines.append(f"  note: {self.notes}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (the inverse of :meth:`from_dict`)."""
        return {
            "label": self.label,
            "memories": [memory.to_dict() for memory in self.memories],
            "cycles_used": self.cycles_used,
            "cycle_budget": self.cycle_budget,
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CostReport":
        return cls(
            label=data["label"],
            memories=tuple(
                MemoryCost.from_dict(memory) for memory in data.get("memories", ())
            ),
            cycles_used=float(data.get("cycles_used", 0.0)),
            cycle_budget=float(data.get("cycle_budget", 0.0)),
            notes=data.get("notes", ""),
        )


# ----------------------------------------------------------------------
# Compact payload codec
# ----------------------------------------------------------------------
#: First bytes of every compact record.  The lead byte is a UTF-8
#: continuation byte, so no JSON (or any UTF-8) text can ever start
#: with the magic: a text file never decodes as a record.
COMPACT_MAGIC = b"\x93RPC"
COMPACT_VERSION = 1

#: Payload key marking a negatively-cached evaluation (the cache stack's
#: canonical infeasibility marker; re-exported as
#: ``EvaluationCache.FAILURE_KEY``).
INFEASIBLE_MARKER = "__infeasible__"

_RECORD_GENERIC = 0  # embedded JSON: any payload shape
_RECORD_REPORT = 1  # struct-packed CostReport.to_dict() payload
_RECORD_FAILURE = 2  # the __infeasible__ negative entry

_REPORT_KEYS = frozenset(
    ("label", "memories", "cycles_used", "cycle_budget", "notes")
)
_MEMORY_KEYS = frozenset(
    (
        "name",
        "kind",
        "words",
        "width",
        "ports",
        "area_mm2",
        "power_mw",
        "groups",
        "access_rate_hz",
    )
)

_HEADER = struct.Struct("<4sBB")
_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")
_MEMORY_NUMERIC = struct.Struct("<qiiddd")  # words width ports area power rate
_REPORT_NUMERIC = struct.Struct("<dd")  # cycles_used cycle_budget


class CompactDecodeError(ValueError):
    """A compact record failed to decode (bad magic, version, bytes)."""


def _is_real(value: Any) -> bool:
    """A plain int/float (bools are JSON booleans, not numbers here)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _pack_str(out: List[bytes], text: str) -> None:
    blob = text.encode("utf-8")
    out.append(_U32.pack(len(blob)))
    out.append(blob)


def _memory_packable(memory: Any) -> bool:
    return (
        isinstance(memory, Mapping)
        and frozenset(memory) == _MEMORY_KEYS
        and isinstance(memory["name"], str)
        and isinstance(memory["kind"], str)
        and isinstance(memory["words"], int)
        and isinstance(memory["width"], int)
        and isinstance(memory["ports"], int)
        and not isinstance(memory["words"], bool)
        and not isinstance(memory["width"], bool)
        and not isinstance(memory["ports"], bool)
        and _is_real(memory["area_mm2"])
        and _is_real(memory["power_mw"])
        and _is_real(memory["access_rate_hz"])
        and isinstance(memory["groups"], (list, tuple))
        and all(isinstance(group, str) for group in memory["groups"])
    )


def _report_packable(payload: Mapping[str, Any]) -> bool:
    return (
        frozenset(payload) == _REPORT_KEYS
        and isinstance(payload["label"], str)
        and isinstance(payload["notes"], str)
        and _is_real(payload["cycles_used"])
        and _is_real(payload["cycle_budget"])
        and isinstance(payload["memories"], (list, tuple))
        and all(_memory_packable(memory) for memory in payload["memories"])
    )


def pack_payload(payload: Mapping[str, Any]) -> bytes:
    """Encode a cache payload as a compact self-describing record.

    ``CostReport.to_dict()`` payloads and ``{__infeasible__: message}``
    negative entries pack to typed struct records; anything else packs
    as an embedded-JSON record, so every JSON-object payload survives a
    round trip.  Numeric report fields are stored as IEEE doubles —
    :meth:`CostReport.from_dict` coerces through ``float()`` anyway, so
    an integer-valued field decodes to an equal (``==``) payload.
    """
    keys = frozenset(payload)
    if keys == {INFEASIBLE_MARKER} and isinstance(payload[INFEASIBLE_MARKER], str):
        return (
            _HEADER.pack(COMPACT_MAGIC, COMPACT_VERSION, _RECORD_FAILURE)
            + payload[INFEASIBLE_MARKER].encode("utf-8")
        )
    if _report_packable(payload):
        try:
            out: List[bytes] = [
                _HEADER.pack(COMPACT_MAGIC, COMPACT_VERSION, _RECORD_REPORT),
                _REPORT_NUMERIC.pack(
                    float(payload["cycles_used"]), float(payload["cycle_budget"])
                ),
            ]
            _pack_str(out, payload["label"])
            _pack_str(out, payload["notes"])
            memories = payload["memories"]
            out.append(_U32.pack(len(memories)))
            for memory in memories:
                _pack_str(out, memory["name"])
                _pack_str(out, memory["kind"])
                out.append(
                    _MEMORY_NUMERIC.pack(
                        memory["words"],
                        memory["width"],
                        memory["ports"],
                        float(memory["area_mm2"]),
                        float(memory["power_mw"]),
                        float(memory["access_rate_hz"]),
                    )
                )
                groups = memory["groups"]
                out.append(_U32.pack(len(groups)))
                for group in groups:
                    _pack_str(out, group)
            return b"".join(out)
        except struct.error:
            pass  # out-of-range field: the generic record still fits
    blob = json.dumps(dict(payload), ensure_ascii=False).encode("utf-8")
    return _HEADER.pack(COMPACT_MAGIC, COMPACT_VERSION, _RECORD_GENERIC) + blob


class _Reader:
    """Sequential decoder over one compact record's bytes."""

    __slots__ = ("data", "offset")

    def __init__(self, data: bytes, offset: int) -> None:
        self.data = data
        self.offset = offset

    def unpack(self, fmt: struct.Struct) -> Tuple[Any, ...]:
        values = fmt.unpack_from(self.data, self.offset)
        self.offset += fmt.size
        return values

    def read_str(self) -> str:
        (length,) = self.unpack(_U32)
        end = self.offset + length
        if end > len(self.data):
            raise CompactDecodeError("compact record is truncated")
        text = self.data[self.offset : end].decode("utf-8")
        self.offset = end
        return text


def unpack_payload(data: bytes) -> Dict[str, Any]:
    """Decode a compact record back into its payload dict.

    Raises :class:`CompactDecodeError` on anything that is not a whole,
    well-formed record of a known version — callers treat that exactly
    like an unreadable file.
    """
    try:
        magic, version, record = _HEADER.unpack_from(data, 0)
    except struct.error as exc:
        raise CompactDecodeError(f"compact header unreadable: {exc}") from None
    if magic != COMPACT_MAGIC:
        raise CompactDecodeError("not a compact payload record (bad magic)")
    if version != COMPACT_VERSION:
        raise CompactDecodeError(f"unsupported compact payload version {version}")
    body = _HEADER.size
    try:
        if record == _RECORD_FAILURE:
            return {INFEASIBLE_MARKER: data[body:].decode("utf-8")}
        if record == _RECORD_GENERIC:
            payload = json.loads(data[body:].decode("utf-8"))
            if not isinstance(payload, dict):
                raise CompactDecodeError("embedded payload is not a JSON object")
            return payload
        if record != _RECORD_REPORT:
            raise CompactDecodeError(f"unknown compact record type {record}")
        reader = _Reader(data, body)
        cycles_used, cycle_budget = reader.unpack(_REPORT_NUMERIC)
        label = reader.read_str()
        notes = reader.read_str()
        (memory_count,) = reader.unpack(_U32)
        memories: List[Dict[str, Any]] = []
        for _ in range(memory_count):
            name = reader.read_str()
            kind = reader.read_str()
            words, width, ports, area, power, rate = reader.unpack(
                _MEMORY_NUMERIC
            )
            (group_count,) = reader.unpack(_U32)
            groups = [reader.read_str() for _ in range(group_count)]
            memories.append(
                {
                    "name": name,
                    "kind": kind,
                    "words": words,
                    "width": width,
                    "ports": ports,
                    "area_mm2": area,
                    "power_mw": power,
                    "groups": groups,
                    "access_rate_hz": rate,
                }
            )
        if reader.offset != len(data):
            raise CompactDecodeError("trailing bytes after compact record")
        return {
            "label": label,
            "memories": memories,
            "cycles_used": cycles_used,
            "cycle_budget": cycle_budget,
            "notes": notes,
        }
    except CompactDecodeError:
        raise
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise CompactDecodeError(f"compact record unreadable: {exc}") from None


# ----------------------------------------------------------------------
# Wire framing (the network cache tier's transport primitives)
# ----------------------------------------------------------------------
#: Hard bound on one wire frame's body.  Generous for cache traffic (a
#: whole sweep's records fit in well under a MiB) while keeping a
#: corrupt or hostile length prefix from provoking a giant allocation.
FRAME_MAX_BYTES = 64 * 1024 * 1024

_FRAME_LEN = _U32


class FrameError(ValueError):
    """A wire frame failed to validate (length prefix out of bounds)."""


def pack_frame(body: bytes) -> bytes:
    """Prefix ``body`` with its little-endian u32 length."""
    if len(body) > FRAME_MAX_BYTES:
        raise FrameError(
            f"frame of {len(body)} bytes exceeds the "
            f"{FRAME_MAX_BYTES}-byte bound"
        )
    return _FRAME_LEN.pack(len(body)) + body


def frame_length(header: bytes) -> int:
    """Decode and validate a 4-byte frame header into its body length."""
    if len(header) != _FRAME_LEN.size:
        raise FrameError(
            f"frame header must be {_FRAME_LEN.size} bytes, got {len(header)}"
        )
    (length,) = _FRAME_LEN.unpack(header)
    if length > FRAME_MAX_BYTES:
        raise FrameError(
            f"frame announces {length} bytes, over the "
            f"{FRAME_MAX_BYTES}-byte bound"
        )
    return length


def pack_wire_keys(keys: Sequence[str]) -> bytes:
    """Encode a key batch (u32 count + length-prefixed UTF-8 strings)."""
    out: List[bytes] = [_U32.pack(len(keys))]
    for key in keys:
        _pack_str(out, key)
    return b"".join(out)


def unpack_wire_keys(data: bytes, offset: int = 0) -> List[str]:
    """Decode a key batch; raises :class:`CompactDecodeError` when short."""
    try:
        reader = _Reader(data, offset)
        (count,) = reader.unpack(_U32)
        keys = [reader.read_str() for _ in range(count)]
    except (struct.error, UnicodeDecodeError) as exc:
        raise CompactDecodeError(f"wire key batch unreadable: {exc}") from None
    if reader.offset != len(data):
        raise CompactDecodeError("trailing bytes after wire key batch")
    return keys


def pack_wire_records(payloads: Mapping[str, Mapping[str, Any]]) -> bytes:
    """Encode key -> payload entries, each value one compact record.

    This is the cache tier's bulk transfer unit: the values are exactly
    :func:`pack_payload` records, so anything a cache backend stores —
    typed reports, ``__infeasible__`` negatives, generic JSON payloads —
    crosses the wire without a separate serialization path.
    """
    out: List[bytes] = [_U32.pack(len(payloads))]
    for key, payload in payloads.items():
        _pack_str(out, key)
        blob = pack_payload(payload)
        out.append(_U32.pack(len(blob)))
        out.append(blob)
    return b"".join(out)


def unpack_wire_records(data: bytes, offset: int = 0) -> Dict[str, Dict[str, Any]]:
    """Decode a key -> payload batch packed by :func:`pack_wire_records`."""
    records: Dict[str, Dict[str, Any]] = {}
    try:
        reader = _Reader(data, offset)
        (count,) = reader.unpack(_U32)
        for _ in range(count):
            key = reader.read_str()
            (length,) = reader.unpack(_U32)
            end = reader.offset + length
            if end > len(data):
                raise CompactDecodeError("wire record batch is truncated")
            records[key] = unpack_payload(data[reader.offset : end])
            reader.offset = end
    except (struct.error, UnicodeDecodeError) as exc:
        raise CompactDecodeError(f"wire record batch unreadable: {exc}") from None
    if reader.offset != len(data):
        raise CompactDecodeError("trailing bytes after wire record batch")
    return records


def render_cost_table(
    reports: Sequence[CostReport],
    title: str = "",
    label_header: str = "Version",
) -> str:
    """Render reports as the paper's three-column cost table."""
    width = max([len(label_header)] + [len(r.label) for r in reports]) + 2
    lines = []
    if title:
        lines.append(title)
    lines.append(
        f"{label_header:<{width}}"
        f"{'on-chip area':>14}{'on-chip power':>15}{'off-chip power':>16}"
    )
    lines.append(
        f"{'':<{width}}{'[mm2]':>14}{'[mW]':>15}{'[mW]':>16}"
    )
    for report in reports:
        label, area, onp, offp = report.table_row()
        lines.append(
            f"{label:<{width}}{area:>14.1f}{onp:>15.1f}{offp:>16.1f}"
        )
    return "\n".join(lines)
