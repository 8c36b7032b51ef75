"""Tests for the content-addressed fleet result cache."""

from repro.amp.presets import odroid_xu4
from repro.fleet import jobs as jobs_mod
from repro.fleet.cache import ResultCache
from repro.fleet.jobs import JobSpec
from repro.obs import Observability
from repro.runtime.env import OmpEnv
from repro.workloads.registry import get_program


def make_spec(seed=0):
    return JobSpec(
        program=get_program("EP"),
        platform=odroid_xu4(),
        env=OmpEnv(schedule="static", affinity="BS"),
        root_seed=seed,
    )


def test_miss_then_put_then_hit(tmp_path):
    cache = ResultCache(tmp_path)
    spec = make_spec()
    assert cache.get(spec.key) is None
    result = spec.execute()
    path = cache.put(result)
    assert path.is_file() and path.parent.parent == tmp_path
    assert cache.get(spec.key) == result
    assert len(cache) == 1


def test_different_seed_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(make_spec(seed=0).execute())
    assert cache.get(make_spec(seed=1).key) is None


def test_corrupt_entry_reads_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    spec = make_spec()
    cache.put(spec.execute())
    cache.path_for(spec.key).write_text("{not json", encoding="utf-8")
    assert cache.get(spec.key) is None


def test_corrupt_entry_is_quarantined_and_counted(tmp_path):
    obs = Observability()
    cache = ResultCache(tmp_path, obs=obs)
    spec = make_spec()
    result = spec.execute()
    cache.put(result)
    path = cache.path_for(spec.key)
    path.write_text("{truncated garbage", encoding="utf-8")
    assert cache.get(spec.key) is None
    # The bad bytes moved aside for inspection; the slot is free.
    corrupt = path.with_name(path.name + ".corrupt")
    assert corrupt.is_file()
    assert corrupt.read_text(encoding="utf-8") == "{truncated garbage"
    assert not path.exists()
    counter = obs.registry.counter(
        "fleet_cache_corrupt_total", reason="json"
    )
    assert counter.value == 1
    # A second read of the same digest is a plain miss, not a re-count.
    assert cache.get(spec.key) is None
    assert counter.value == 1
    # The recompute-and-overwrite path works on the freed slot.
    cache.put(result)
    assert cache.get(spec.key) == result


def test_entry_under_the_wrong_digest_is_quarantined(tmp_path):
    cache = ResultCache(tmp_path, obs=Observability())
    spec_a, spec_b = make_spec(seed=0), make_spec(seed=1)
    good = cache.path_for(spec_a.key)
    cache.put(spec_a.execute())
    # Plant spec A's (internally valid) entry at spec B's path.
    wrong = cache.path_for(spec_b.key)
    wrong.parent.mkdir(parents=True, exist_ok=True)
    wrong.write_text(good.read_text(encoding="utf-8"), encoding="utf-8")
    assert cache.get(spec_b.key) is None
    assert wrong.with_name(wrong.name + ".corrupt").is_file()
    assert cache.obs.registry.counter(
        "fleet_cache_corrupt_total", reason="digest"
    ).value == 1
    # The legitimate entry is untouched.
    assert cache.get(spec_a.key) is not None


def test_stale_salt_misses_without_quarantine(tmp_path, monkeypatch):
    obs = Observability()
    cache = ResultCache(tmp_path, obs=obs)
    spec = make_spec()
    cache.put(spec.execute())
    path = cache.path_for(spec.key)
    monkeypatch.setattr("repro.fleet.cache.CODE_SALT", "v999/other-schema")
    # A version bump is staleness, not corruption: the entry stays put.
    assert cache.get(spec.key) is None
    assert path.is_file()
    assert not path.with_name(path.name + ".corrupt").exists()
    assert not [
        c for c in obs.registry.snapshot()["counters"]
        if c["name"] == "fleet_cache_corrupt_total"
    ]


def test_clear_removes_quarantined_files(tmp_path):
    cache = ResultCache(tmp_path)
    spec = make_spec()
    cache.put(spec.execute())
    cache.path_for(spec.key).write_text("garbage", encoding="utf-8")
    assert cache.get(spec.key) is None
    assert list(tmp_path.rglob("*.corrupt"))
    cache.put(spec.execute())
    assert cache.clear() == 1
    assert not list(tmp_path.rglob("*.corrupt"))


def test_salt_change_invalidates(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    spec = make_spec()
    cache.put(spec.execute())
    assert cache.get(spec.key) is not None
    # A new code version changes every digest: old entries never hit.
    monkeypatch.setattr(jobs_mod, "CODE_SALT", "v999/other-schema")
    new_digest = spec.digest()
    assert new_digest != spec.key
    assert cache.get(new_digest) is None
    # Defense in depth: even asking for the *old* digest misses, because
    # the stored salt no longer matches the running code's salt.
    monkeypatch.setattr("repro.fleet.cache.CODE_SALT", "v999/other-schema")
    assert cache.get(spec.key) is None


def test_env_var_selects_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("FLEET_CACHE_DIR", str(tmp_path / "env-cache"))
    cache = ResultCache()
    spec = make_spec()
    cache.put(spec.execute())
    assert (tmp_path / "env-cache").is_dir()
    assert ResultCache().get(spec.key) is not None


def test_duration_estimates_feed_lpt(tmp_path):
    cache = ResultCache(tmp_path)
    spec = make_spec()
    assert cache.duration_estimate(spec) is None
    cache.note_duration(spec, 2.0)
    assert cache.duration_estimate(spec) == 2.0
    cache.note_duration(spec, 1.0)  # EWMA, not last-write-wins
    assert cache.duration_estimate(spec) == 1.5
    # Seeds share a duration profile (same program/schedule/platform).
    assert cache.duration_estimate(make_spec(seed=9)) == 1.5
    # And a fresh cache object reads it back from disk.
    assert ResultCache(tmp_path).duration_estimate(spec) == 1.5


def test_atomic_writes_leave_no_temp_files(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(make_spec().execute())
    assert not list(tmp_path.rglob("*.tmp"))


def test_clear(tmp_path):
    cache = ResultCache(tmp_path)
    spec = make_spec()
    cache.put(spec.execute())
    cache.note_duration(spec, 1.0)
    assert cache.clear() == 1
    assert len(cache) == 0
    assert cache.get(spec.key) is None
    assert cache.duration_estimate(spec) is None


# -- backend identity in the digest -------------------------------------------


def test_backend_is_part_of_the_digest(tmp_path):
    # Results computed under one execution backend must never satisfy a
    # lookup for another: the backend name is in the job payload, so the
    # digests are disjoint.
    ref = make_spec()
    vec = JobSpec(
        program=get_program("EP"),
        platform=odroid_xu4(),
        env=OmpEnv(schedule="static", affinity="BS"),
        root_seed=0,
        backend="real",
    )
    assert ref.payload()["backend"] == "reference"
    assert vec.payload()["backend"] == "real"
    assert ref.key != vec.key

    cache = ResultCache(tmp_path)
    cache.put(ref.execute())
    assert cache.get(ref.key) is not None
    assert cache.get(vec.key) is None


def test_env_selected_backend_pins_into_the_digest(tmp_path, monkeypatch):
    # JobSpec resolves the environment override at construction time, so
    # a spec built under REPRO_BACKEND=real carries (and hashes)
    # the concrete name — shipping it to a fleet worker with a different
    # environment cannot change what it means.
    from repro.backends import ENV_VAR

    monkeypatch.delenv(ENV_VAR, raising=False)
    explicit = JobSpec(
        program=get_program("EP"),
        platform=odroid_xu4(),
        env=OmpEnv(schedule="static", affinity="BS"),
        root_seed=0,
        backend="real",
    )
    monkeypatch.setenv(ENV_VAR, "real")
    ambient = make_spec()
    assert ambient.backend == "real"
    assert ambient.key == explicit.key


def test_warm_cache_is_backend_local(tmp_path, monkeypatch):
    # A grid warmed under the reference backend replays from cache only
    # for reference reruns; switching to another backend — here a twin
    # of the simulated engine under its own name — recomputes every
    # cell (and lands on the same numbers).
    from repro.backends import ReferenceBackend
    from repro.backends.core import _REGISTRY
    from repro.experiments.harness import ScheduleConfig, run_grid
    from repro.fleet.progress import FleetProgress
    from repro.workloads.registry import all_programs

    program = all_programs()[:1]
    configs = (
        ScheduleConfig("static(SB)", OmpEnv(schedule="static", affinity="SB")),
        ScheduleConfig("AID-dyn", OmpEnv(schedule="aid_dynamic,1,5")),
    )

    def grid(backend, jobs=2):
        progress = FleetProgress()
        result = run_grid(
            odroid_xu4(), program, configs, jobs=jobs, cache=tmp_path,
            progress=progress, backend=backend,
        )
        return result, progress.summary()

    cold, s_cold = grid("reference")
    assert s_cold["jobs_computed"] == s_cold["jobs_submitted"] == 2

    warm, s_warm = grid("reference")
    assert s_warm["cache_hits"] == 2 and s_warm["jobs_computed"] == 0

    monkeypatch.setitem(_REGISTRY, "twin", ReferenceBackend)
    vec, s_vec = grid("twin", jobs=1)
    assert s_vec["cache_hits"] == 0
    assert s_vec["jobs_computed"] == 2
    assert vec.times == cold.times == warm.times


# -- flat->sharded layout migration -------------------------------------------


def flatten(cache: ResultCache) -> None:
    """Rewrite a sharded cache as the legacy flat layout (entries and
    quarantine files in the root, no manifest, no index)."""
    import os

    for shard in list(cache.root.iterdir()):
        if shard.is_dir() and len(shard.name) == 2:
            for entry in list(shard.iterdir()):
                os.replace(entry, cache.root / entry.name)
            shard.rmdir()
    cache.manifest_path.unlink(missing_ok=True)
    cache.index_path.unlink(missing_ok=True)


def test_flat_layout_migrates_transparently(tmp_path):
    from repro.obs import Observability

    staging = ResultCache(tmp_path)
    specs = [make_spec(seed=i) for i in range(2)]
    results = [s.execute() for s in specs]
    for result in results:
        staging.put(result)
    flatten(staging)
    assert (tmp_path / f"{specs[0].key}.json").is_file()
    assert not staging.manifest_path.exists()

    obs = Observability()
    cache = ResultCache(tmp_path, obs=obs)  # fresh handle, legacy disk
    for spec, result in zip(specs, results):
        assert cache.get(spec.key) == result
    # Entries moved into their digest-prefix shards; manifest written.
    assert cache.manifest_ok()
    for spec in specs:
        assert cache.path_for(spec.key).is_file()
        assert not (tmp_path / f"{spec.key}.json").exists()
    assert obs.registry.counter(
        "fleet_cache_migrated_total"
    ).value == len(specs)


def test_migration_never_resurrects_quarantine_next_to_valid_entry(tmp_path):
    """Satellite: a legacy flat cache can hold BOTH a valid entry and a
    stale ``.corrupt`` quarantine file for the same digest. Migration
    must carry the quarantine forward as a quarantine — suffix intact —
    and must not let the garbage shadow or replace the valid entry."""
    staging = ResultCache(tmp_path)
    spec = make_spec()
    result = spec.execute()
    staging.put(result)
    flatten(staging)
    flat_entry = tmp_path / f"{spec.key}.json"
    quarantine = tmp_path / f"{spec.key}.json.corrupt"
    quarantine.write_text("{poisoned bytes", encoding="utf-8")
    assert flat_entry.is_file() and quarantine.is_file()

    cache = ResultCache(tmp_path)
    assert cache.get(spec.key) == result, "valid entry survives migration"
    sharded = cache.path_for(spec.key)
    carried = sharded.with_name(sharded.name + ".corrupt")
    assert carried.is_file(), "quarantine carried forward"
    assert carried.read_text(encoding="utf-8") == "{poisoned bytes"
    assert not quarantine.exists() and not flat_entry.exists()
    # And the scrub still sees a healthy store afterwards.
    report = cache.scrub()
    assert report.ok == 1 and report.quarantined == 0


def test_migration_orphan_quarantine_stays_quarantined(tmp_path):
    """A flat quarantine file with no valid sibling must not become a
    live entry (stripping the suffix would resurrect garbage)."""
    spec = make_spec()
    tmp_path.mkdir(exist_ok=True)
    (tmp_path / f"{spec.key}.json.corrupt").write_text(
        "{garbage", encoding="utf-8"
    )
    cache = ResultCache(tmp_path)
    assert cache.get(spec.key) is None
    sharded = cache.path_for(spec.key)
    assert sharded.with_name(sharded.name + ".corrupt").is_file()
    assert not sharded.exists()


def test_interrupted_migration_prefers_sharded_copy(tmp_path):
    """Re-running migration after an interruption drops flat leftovers
    instead of clobbering already-migrated entries."""
    cache = ResultCache(tmp_path)
    spec = make_spec()
    result = spec.execute()
    cache.put(result)  # already sharded
    # A flat leftover of the same digest (e.g. from a kill mid-move),
    # with different bytes, must lose to the sharded copy.
    (tmp_path / f"{spec.key}.json").write_text("{stale flat copy")
    cache.manifest_path.unlink()
    fresh = ResultCache(tmp_path)
    assert fresh.get(spec.key) == result
    assert not (tmp_path / f"{spec.key}.json").exists()


def test_migration_skips_bookkeeping_and_foreign_files(tmp_path):
    staging = ResultCache(tmp_path)
    spec = make_spec()
    staging.put(spec.execute())
    staging.note_duration(spec, 1.0)
    flatten(staging)
    (tmp_path / "README.txt").write_text("not an entry", encoding="utf-8")
    (tmp_path / "checkpoint.jsonl").write_text("{}\n", encoding="utf-8")
    cache = ResultCache(tmp_path)
    assert cache.get(spec.key) is not None
    assert (tmp_path / "README.txt").is_file()
    assert (tmp_path / "checkpoint.jsonl").is_file()
    assert (tmp_path / "durations.json").is_file()
