"""Audit, ledger and lineage in one sweep, and their cache carriage.

Every observer only watches the simulation, so attaching any subset of
them to one run per point must give the plain sweep's summaries and, for
each observer, exactly the payload a sweep with that observer alone
produces.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments.cache import ResultCache
from repro.experiments.sweep import run_sweep
from repro.experiments.sweep_presets import smoke_spec


def _audit_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.jsonl"))}


@pytest.mark.parametrize("backend", ["events", "auto"])
@pytest.mark.parametrize("workers", [1, 2])
def test_combined_observers_match_single_kind_sweeps(tmp_path, workers, backend):
    spec = smoke_spec()

    def sweep(**kw):
        return run_sweep(spec, workers=workers, cache=None, backend=backend, **kw)

    plain = sweep()
    audited = sweep(audit_dir=tmp_path / "audit-only")
    ledgered = sweep(ledger=True)
    lineaged = sweep(lineage=True)
    combined = sweep(audit_dir=tmp_path / "all", ledger=True, lineage=True)

    assert combined.summaries() == plain.summaries()
    assert [r.audit for r in combined.results] == [r.audit for r in audited.results]
    assert [r.ledger for r in combined.results] == [r.ledger for r in ledgered.results]
    assert [r.lineage for r in combined.results] == [
        r.lineage for r in lineaged.results
    ]
    assert all(r.audit and r.ledger and r.lineage for r in combined.results)
    assert _audit_bytes(tmp_path / "all") == _audit_bytes(tmp_path / "audit-only")
    assert len(list((tmp_path / "all").glob("*.trace.json"))) == len(spec.expand())


@pytest.mark.parametrize(
    "observers",
    [
        {"ledger": True, "lineage": True},
        {"audit": True, "ledger": True},
        {"audit": True, "lineage": True},
    ],
)
def test_pairs_of_observers_match_single_kind_sweeps(tmp_path, observers):
    spec = smoke_spec()
    audit_dir = tmp_path / "audit" if observers.get("audit") else None
    pair = run_sweep(
        spec,
        cache=None,
        audit_dir=audit_dir,
        ledger=observers.get("ledger", False),
        lineage=observers.get("lineage", False),
    )
    assert pair.summaries() == run_sweep(spec, cache=None).summaries()
    if audit_dir is not None:
        alone = run_sweep(spec, cache=None, audit_dir=tmp_path / "alone")
        assert [r.audit for r in pair.results] == [r.audit for r in alone.results]
    for name in ("ledger", "lineage"):
        got = [getattr(r, name) for r in pair.results]
        if observers.get(name):
            alone = run_sweep(spec, cache=None, **{name: True})
            assert got == [getattr(r, name) for r in alone.results]
        else:
            assert got == [None] * len(got)


def test_cli_sweep_with_every_observer(tmp_path, capsys):
    audit_dir = tmp_path / "audit"
    rc = main(
        ["sweep", "--preset", "smoke", "--no-cache", "--no-registry",
         "--audit", str(audit_dir), "--ledger", "--lineage"]
    )
    assert rc == 0
    assert "sweep smoke — 4 scenarios" in capsys.readouterr().out
    assert len(list(audit_dir.glob("*.jsonl"))) == 4


def test_fabric_driver_rejects_every_observer(tmp_path):
    for kw in ({"ledger": True}, {"lineage": True},
               {"audit_dir": tmp_path / "audit"}):
        with pytest.raises(ValueError, match="driver='local'"):
            run_sweep(smoke_spec(), cache=None, driver="fabric", **kw)


# ---------------------------------------------------------------------------
# cache carriage
# ---------------------------------------------------------------------------


def test_reexecution_for_one_extra_keeps_the_others(tmp_path):
    spec = smoke_spec()
    cache = ResultCache(tmp_path / "cache")
    first = run_sweep(spec, cache=cache, lineage=True)
    assert not any(r.cached for r in first.results)
    # no ledger stored yet: re-executed, and the lineage extra survives
    second = run_sweep(spec, cache=cache, ledger=True)
    assert not any(r.cached for r in second.results)
    third = run_sweep(spec, cache=cache, lineage=True)
    assert all(r.cached for r in third.results)
    assert [r.lineage for r in third.results] == [r.lineage for r in first.results]
    both = run_sweep(spec, cache=cache, ledger=True, lineage=True)
    assert all(r.cached for r in both.results)
    assert [r.ledger for r in both.results] == [r.ledger for r in second.results]


def test_hit_needs_every_requested_extra(tmp_path, monkeypatch):
    spec = smoke_spec()
    cache = ResultCache(tmp_path / "cache")
    run_sweep(spec, cache=cache, ledger=True)
    partial = run_sweep(spec, cache=cache, ledger=True, lineage=True)
    assert not any(r.cached for r in partial.results)
    warm = run_sweep(spec, cache=cache, ledger=True, lineage=True,
                     audit_dir=tmp_path / "audit")
    # the audit extra is still missing, so the points run once more ...
    assert not any(r.cached for r in warm.results)
    # ... after which all three ride the entry, read once per point
    reads = []
    entry = ResultCache._entry
    monkeypatch.setattr(
        ResultCache, "_entry", lambda self, key: reads.append(key) or entry(self, key)
    )
    hot = run_sweep(spec, cache=cache, ledger=True, lineage=True,
                    audit_dir=tmp_path / "audit2")
    assert all(r.cached for r in hot.results)
    assert sorted(reads) == sorted(r.key for r in hot.results)
    assert _audit_bytes(tmp_path / "audit2") == _audit_bytes(tmp_path / "audit")
