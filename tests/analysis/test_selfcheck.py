"""The engine's standing gate: ``src/repro`` itself must be clean.

This is the same invocation the ``static-analysis`` CI job runs; if it
fails here, a concurrency/protocol invariant regressed (or a new
finding needs a fix or a suppression *with a written reason*).
"""

from pathlib import Path

from repro.analysis import all_rules, run_check

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_source_tree_has_no_unsuppressed_findings():
    report = run_check([SRC], all_rules())
    assert report.files_checked > 50
    offenders = [f.format() for f in report.unsuppressed]
    assert not offenders, "\n".join(offenders)


def test_every_suppression_carries_a_reason():
    report = run_check([SRC], all_rules())
    for finding in report.findings:
        if finding.suppressed:
            assert finding.reason.strip(), finding.format()
    # Reasonless or malformed suppressions surface as warnings; the
    # tree must not carry any.
    assert report.warnings == []


def test_known_audited_suppressions_present():
    # The PR 9 audit's accepted findings: loop-thread counter bumps in
    # the cache server and the interpreter-exit finalizer.  If a
    # refactor removes one, this list (not the gate above) is what
    # should change.
    report = run_check([SRC], all_rules())
    suppressed = {(f.rule, Path(f.path).name) for f in report.findings if f.suppressed}
    assert ("RA001", "server.py") in suppressed
    assert ("RA006", "engine.py") in suppressed
