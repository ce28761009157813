"""JSON round-trips for cost reports and exploration records, plus the
compact payload codec the DiskCache persists reports with."""

import json

import pytest

from repro.api import CostReport, DesignPoint, ExplorationRecord, MemoryCost
from repro.costs.report import (
    COMPACT_MAGIC,
    COMPACT_VERSION,
    INFEASIBLE_MARKER,
    CompactDecodeError,
    pack_payload,
    unpack_payload,
)
from repro.memlib import MemoryKind


def _memory(name="sram0", kind=MemoryKind.ONCHIP):
    return MemoryCost(
        name=name,
        kind=kind,
        words=2048,
        width=16,
        ports=2,
        area_mm2=1.25,
        power_mw=3.5,
        groups=("pyr", "ridge"),
        access_rate_hz=1.5e6,
    )


def test_memory_cost_round_trip():
    memory = _memory()
    data = memory.to_dict()
    json.dumps(data)  # must be JSON-serializable as-is
    assert MemoryCost.from_dict(data) == memory


def test_memory_cost_kind_survives():
    offchip = _memory("dram0", MemoryKind.OFFCHIP)
    restored = MemoryCost.from_dict(offchip.to_dict())
    assert restored.kind is MemoryKind.OFFCHIP


def test_cost_report_round_trip():
    report = CostReport(
        label="merged",
        memories=(_memory(), _memory("dram0", MemoryKind.OFFCHIP)),
        cycles_used=123456.0,
        cycle_budget=200000.0,
        notes="designer note",
    )
    restored = CostReport.from_dict(report.to_dict())
    assert restored == report
    assert restored.onchip_area_mm2 == report.onchip_area_mm2
    assert restored.offchip_power_mw == report.offchip_power_mw


def test_cost_report_round_trip_empty_memories():
    report = CostReport(label="empty")
    restored = CostReport.from_dict(report.to_dict())
    assert restored == report
    assert restored.memories == ()
    assert restored.total_power_mw == 0.0


def test_cost_report_non_ascii_label():
    report = CostReport(label="π-mémoire ✓ 設計", notes="コメント")
    text = json.dumps(report.to_dict(), ensure_ascii=False)
    restored = CostReport.from_dict(json.loads(text))
    assert restored.label == "π-mémoire ✓ 設計"
    assert restored == report


def test_exploration_record_round_trip():
    record = ExplorationRecord(
        point=DesignPoint(
            variant="merged", budget_fraction=0.85, n_onchip=8, label="8 memories"
        ),
        report=CostReport(label="8 memories", memories=(_memory(),)),
        fingerprint="f" * 64,
        seconds=1.25,
        cache_hit=True,
        step="Memory allocation",
        program_name="btpc",
    )
    restored = ExplorationRecord.from_dict(record.to_dict())
    assert restored == record
    assert restored.point.n_onchip == 8
    assert restored.label == "8 memories"


def test_from_dict_rejects_missing_required_keys():
    with pytest.raises(KeyError):
        CostReport.from_dict({})
    with pytest.raises(KeyError):
        MemoryCost.from_dict({"name": "x"})


# ----------------------------------------------------------------------
# Compact payload codec
# ----------------------------------------------------------------------
def test_compact_report_payload_round_trip():
    report = CostReport(
        label="π-mémoire ✓ 設計",
        memories=(_memory(), _memory("dram0", MemoryKind.OFFCHIP)),
        cycles_used=123456.0,
        cycle_budget=200000.0,
        notes="コメント",
    )
    payload = report.to_dict()
    data = pack_payload(payload)
    assert data.startswith(COMPACT_MAGIC)
    restored = unpack_payload(data)
    assert restored == payload
    assert CostReport.from_dict(restored) == report


def test_compact_report_payload_is_struct_packed_not_json():
    payload = CostReport(label="x", memories=(_memory(),)).to_dict()
    data = pack_payload(payload)
    # A typed report record, not an embedded-JSON fallback.
    assert b'"memories"' not in data


def test_compact_empty_report_round_trip():
    payload = CostReport(label="").to_dict()
    assert unpack_payload(pack_payload(payload)) == payload


def test_compact_integer_fields_decode_equal():
    """to_dict payloads built from int-valued fields decode == equal
    (from_dict coerces through float() either way)."""
    payload = CostReport(label="n", cycles_used=300, cycle_budget=500).to_dict()
    restored = unpack_payload(pack_payload(payload))
    assert restored == payload
    assert isinstance(restored["cycles_used"], float)


def test_compact_failure_payload_round_trip():
    payload = {INFEASIBLE_MARKER: "MacpError: 12 memories infeasible"}
    data = pack_payload(payload)
    assert data.startswith(COMPACT_MAGIC)
    assert unpack_payload(data) == payload


def test_compact_generic_payload_round_trip():
    payload = {"value": 1, "nested": {"π": [1, 2.5, None, True]}}
    data = pack_payload(payload)
    assert data.startswith(COMPACT_MAGIC)
    assert unpack_payload(data) == payload


def test_compact_near_report_payload_falls_back_to_generic():
    """A payload that *almost* looks like a report (extra key, wrong
    type) still round-trips via the embedded-JSON record."""
    report_like = CostReport(label="x").to_dict()
    report_like["extra"] = 1
    assert unpack_payload(pack_payload(report_like)) == report_like
    wrong_type = CostReport(label="x").to_dict()
    wrong_type["cycles_used"] = "many"
    assert unpack_payload(pack_payload(wrong_type)) == wrong_type


def test_compact_out_of_range_field_falls_back_to_generic():
    payload = CostReport(
        label="big", memories=(_memory(),)
    ).to_dict()
    payload["memories"][0]["words"] = 2**70  # exceeds the int64 slot
    assert unpack_payload(pack_payload(payload)) == payload


def test_unpack_rejects_bad_magic_and_version():
    with pytest.raises(CompactDecodeError):
        unpack_payload(b'{"value": 1}')
    data = pack_payload({"value": 1})
    bumped = COMPACT_MAGIC + bytes([COMPACT_VERSION + 1]) + data[5:]
    with pytest.raises(CompactDecodeError):
        unpack_payload(bumped)
    with pytest.raises(CompactDecodeError):
        unpack_payload(b"")


def test_unpack_rejects_truncated_records():
    data = pack_payload(CostReport(label="whole", memories=(_memory(),)).to_dict())
    for cut in (5, 6, len(data) // 2, len(data) - 1):
        with pytest.raises(CompactDecodeError):
            unpack_payload(data[:cut])
    with pytest.raises(CompactDecodeError):
        unpack_payload(data + b"\x00")  # trailing garbage
