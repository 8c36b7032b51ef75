"""Tests for repro.obs.profile (sim-time cost attribution + wall-clock
hotspot profiler) and the ``report timeline`` / ``report profile``
subcommands."""

import json

from repro.obs.profile import (
    CATEGORIES,
    HotspotProfiler,
    cost_attribution,
    format_cost_attribution,
    format_hotspots,
    profile_grid,
    scenario_digest,
)
from repro.obs.report import main as report_main


def snap(counters):
    return {
        "metrics": {
            "counters": [
                {"name": "sim_time_seconds_total", "labels": dict(labels),
                 "value": v}
                for labels, v in counters
            ]
        }
    }


class TestCostAttribution:
    def test_rows_split_by_loop_and_core_type(self):
        rows = cost_attribution(snap([
            ({"loop": "L", "core_type": "big", "category": "compute"}, 3.0),
            ({"loop": "L", "core_type": "big", "category": "idle"}, 1.0),
            ({"loop": "L", "core_type": "little", "category": "compute"}, 2.0),
        ]))
        assert len(rows) == 2
        big = rows[0]
        assert (big["loop"], big["core_type"]) == ("L", "big")
        assert big["compute"] == 3.0 and big["idle"] == 1.0
        assert big["total"] == 4.0

    def test_extra_label_dimensions_sum(self):
        # Fleet-merged snapshots carry program/config labels; same cell
        # from two jobs must aggregate.
        rows = cost_attribution(snap([
            ({"loop": "L", "core_type": "big", "category": "compute",
              "program": "EP"}, 1.0),
            ({"loop": "L", "core_type": "big", "category": "compute",
              "program": "IS"}, 2.0),
        ]))
        assert rows[0]["compute"] == 3.0

    def test_unrelated_counters_ignored(self):
        doc = snap([])
        doc["metrics"]["counters"].append(
            {"name": "dispatches_total", "labels": {"loop": "L"}, "value": 9}
        )
        assert cost_attribution(doc) == []

    def test_format_table_lists_all_categories(self):
        text = format_cost_attribution(snap([
            ({"loop": "L", "core_type": "big", "category": "compute"}, 3.0),
        ]))
        for c in CATEGORIES:
            assert c + "_s" in text
        assert "L" in text

    def test_empty_formats_empty(self):
        assert format_cost_attribution(snap([])) == ""


class TestHotspotProfiler:
    def test_profiled_function_ranks(self):
        def burn():
            return sum(i * i for i in range(200_000))

        p = HotspotProfiler()
        assert p.run(burn) == burn()
        rows = p.hotspots(top=10)
        assert rows
        assert any("burn" in r["function"] or "genexpr" in r["function"]
                   for r in rows)
        # Ranked by self time, descending.
        selfs = [r["self_seconds"] for r in rows]
        assert selfs == sorted(selfs, reverse=True)

    def test_rows_have_the_documented_shape(self):
        p = HotspotProfiler()
        p.run(lambda: sorted(range(1000)))
        row = p.hotspots(top=1)[0]
        assert set(row) == {"function", "location", "ncalls",
                            "self_seconds", "cumulative_seconds"}

    def test_format_is_a_ranked_table(self):
        rows = [{"function": "f", "location": "/x/repro/sim/core.py:3",
                 "ncalls": 5, "self_seconds": 0.5,
                 "cumulative_seconds": 0.6}]
        text = format_hotspots(rows, scenario="abcdef0123456789")
        assert "scenario=abcdef012345" in text
        assert "repro/sim/core.py:3" in text


class TestScenarioDigest:
    def test_order_sensitive_and_stable(self):
        class Spec:
            def __init__(self, key):
                self.key = key

        a = [Spec("k1"), Spec("k2")]
        assert scenario_digest(a) == scenario_digest(a)
        assert scenario_digest(a) != scenario_digest(list(reversed(a)))


class TestProfileGrid:
    def test_one_program_grid_profiles_end_to_end(self):
        hotspots, snapshot, scenario = profile_grid(programs=["EP"], top=5)
        assert len(hotspots) == 5
        assert len(scenario) == 64
        rows = cost_attribution(snapshot)
        assert rows, "the profiled grid must publish sim_time counters"
        # Both odroid core types show up for the EP loop.
        types = {r["core_type"] for r in rows}
        assert {"cortex-a7", "cortex-a15"} <= types


class TestProfileCli:
    def test_profile_subcommand_writes_json(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        assert report_main([
            "profile", "--programs", "EP", "--top", "5",
            "--json", str(out),
        ]) == 0
        text = capsys.readouterr().out
        assert "wall-clock hotspots" in text
        assert "sim-time cost attribution" in text
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.obs.profile/v2"
        assert len(doc["hotspots"]) == 5
        assert doc["cost_attribution"]
        assert doc["backend"] == "reference"
        assert doc["wall_clock_seconds"] > 0.0

    def test_profile_subcommand_backend_flag(self, tmp_path, monkeypatch):
        # The flag beats the environment override (which would run the
        # grid on real threads).
        monkeypatch.setenv("REPRO_BACKEND", "real")
        out = tmp_path / "profile-ref.json"
        assert report_main([
            "profile", "--programs", "EP", "--top", "5",
            "--backend", "reference", "--json", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["backend"] == "reference"


class TestTimelineCli:
    def test_timeline_subcommand_renders_lanes_and_tails(
        self, tmp_path, capsys
    ):
        import numpy as np

        from repro.check.generators import run_loop
        from repro.amp.presets import odroid_xu4
        from repro.obs import Observability
        from repro.obs.snapshot import write_snapshot
        from repro.sched.registry import parse_schedule

        obs = Observability()
        run_loop(odroid_xu4(), parse_schedule("dynamic,4"),
                 n_iterations=256, costs=np.full(256, 1e-4), obs=obs)
        path = tmp_path / "snap.json"
        write_snapshot(path, obs)
        assert report_main(["timeline", str(path)]) == 0
        text = capsys.readouterr().out
        assert "core_utilization" in text
        assert "digest tails" in text
        assert "p99" in text
        # Metric filter narrows the lanes.
        assert report_main(
            ["timeline", str(path), "--metric", "chunk_size"]
        ) == 0
        filtered = capsys.readouterr().out
        assert "core_utilization" not in filtered
        assert "chunk_size" in filtered
