"""The engine corpus: 400 recorded cases the simulated engine must replay.

``tests/golden/engine-corpus.json`` pins the engine's LoopResults,
decision logs, observability snapshots and span documents by digest.
These tests replay it and prove the check has teeth.
"""

from __future__ import annotations

import pytest

from repro.check import corpus
from repro.check.cli import main as check_main


@pytest.fixture(scope="module")
def entries():
    return corpus.load_corpus()


def test_corpus_holds_both_campaigns(entries):
    assert len(entries) == 400
    assert not any(e["case"]["faults"] for e in entries[:200])
    assert all(e["case"]["faults"] for e in entries[200:])
    schedules = {e["case"]["schedule"].split(",")[0] for e in entries}
    assert {"static", "dynamic", "guided", "aid_static", "aid_hybrid",
            "aid_dynamic", "aid_auto", "aid_steal"} <= schedules


def test_stored_cases_are_the_generated_ones(entries):
    assert [corpus.case_from_dict(e["case"]) for e in entries] == (
        corpus.corpus_cases()
    )


def test_engine_replays_the_corpus_byte_for_byte(entries):
    mismatches = corpus.check_corpus(entries)
    assert not mismatches, "\n".join(m.render() for m in mismatches)


def test_a_drifting_engine_is_caught(entries, monkeypatch):
    # Shave one ulp off every loop's end time: the result digest (and
    # only the first differing field) must report it.
    from repro.backends import common

    real = common.finish_run

    def drift(executor, req, setup, finish, **kw):
        finish = [f * (1.0 + 2.0 ** -52) for f in finish]
        return real(executor, req, setup, finish, **kw)

    monkeypatch.setattr(common, "finish_run", drift)
    for module in ("repro.backends.reference",):
        monkeypatch.setattr(f"{module}.finish_run", drift)
    mismatches = corpus.check_corpus(entries, indices=range(5))
    assert [m.field_name for m in mismatches] == ["result"] * 5
    assert "differs from the corpus" in mismatches[0].render()


def test_cli_checks_the_committed_corpus(capsys):
    assert check_main(["corpus"]) == 0
    assert "400 cases — byte-identical" in capsys.readouterr().out
