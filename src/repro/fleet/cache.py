"""Content-addressed on-disk result store for fleet jobs.

Layout (under ``.fleet-cache/`` or ``$FLEET_CACHE_DIR``)::

    <root>/
      manifest.json               versioned layout manifest
      index.json                  LRU/pin/size index (logical clock)
      durations.json              coarse per-(program, schedule, platform)
                                  wall-time estimates feeding LPT ordering
      ab/abcdef...json            one JSON document per cached result,
                                  sharded by the first two digest hexits
      ab/abcdef...json.corrupt    quarantined bad bytes, kept aside
      ab/abcdef...json.poison     poison-job quarantine marker (a sweep
                                  found this digest repeatedly breaks
                                  worker pools; later sweeps skip it)

Entries are keyed purely by the :class:`~repro.fleet.jobs.JobSpec`
content digest, which already mixes in the code-version salt — a version
bump changes every digest, so stale entries are simply never hit again
(and take no correctness-critical invalidation logic). Unreadable
entries degrade to cache misses; corrupt or schema-mismatched entries
are additionally *quarantined* — renamed to ``<entry>.corrupt`` and
counted on ``fleet_cache_corrupt_total`` — so the bad bytes are kept
for inspection, the recompute's fresh write cannot race a re-read of
garbage, and repeated hits of the same broken file cannot re-count. A
cache can always be deleted wholesale without losing anything but time.

Three production-shaped mechanisms ride on top of the plain store:

* **A versioned layout manifest** (``manifest.json``). The original
  fleet cache kept entries flat in the root directory; on first access
  a cache without a valid sharded-layout manifest is migrated in place:
  every flat ``<digest>.json`` entry moves into its shard, and every
  flat ``<digest>.json.corrupt`` quarantine file is carried forward *as
  a quarantine file* — the ``.corrupt`` suffix is never stripped, so a
  quarantined blob can never be resurrected into a live entry, even
  when it sits next to a valid entry for the same digest.
* **Size-bounded LRU eviction with pinning.** ``max_bytes`` (or
  ``$FLEET_CACHE_MAX_BYTES``) caps the total size of live entries.
  Recency is a *logical* access clock persisted in ``index.json`` — no
  wall-clock reads — so the eviction order under a fixed access
  sequence is fully deterministic (ties break by digest). Pinned
  entries are never evicted, even when the pinned set alone exceeds
  the budget.
* **An integrity scrub** (:mod:`repro.fleet.scrub`) that verifies every
  entry's name, shard placement, schema and digests, quarantines
  anything corrupt, repairs the manifest and rebuilds the index.

Writes are crash-atomic (fsynced ``tmp-<pid>`` sibling + ``os.replace``)
so even a SIGKILLed coordinator never leaves a half-written entry under
a live name — at worst a stale tmp file the scrub prunes — and all
cache I/O happens in the coordinating parent process — worker processes
only compute.

"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

from repro.errors import FleetError
from repro.fleet.jobs import CODE_SALT, RESULT_SCHEMA, JobResult, JobSpec
from repro.obs import NULL_OBS
from repro.obs.snapshot import canonical_json

#: Cache entry document identifier.
ENTRY_SCHEMA = "repro.fleet.cache-entry/v1"

#: Layout manifest document identifier.
LAYOUT_SCHEMA = "repro.fleet.cache-layout/v1"

#: The layout this code reads and writes.
LAYOUT = "sharded/v1"

#: Index document identifier (LRU clock, sizes, pins).
INDEX_SCHEMA = "repro.fleet.cache-index/v1"

#: Poison-quarantine marker document identifier.
POISON_SCHEMA = "repro.fleet.poison/v1"

#: Digest-prefix width of the shard directories (``ab/abcdef...json``).
SHARD_WIDTH = 2

#: Default cache directory when neither an explicit root nor
#: ``$FLEET_CACHE_DIR`` is given.
DEFAULT_DIR = ".fleet-cache"

#: Environment variable bounding the cache size in bytes.
MAX_BYTES_ENV = "FLEET_CACHE_MAX_BYTES"

#: Root-level bookkeeping files that are never cache entries.
RESERVED_FILES = frozenset(
    {"manifest.json", "index.json", "durations.json", "checkpoint.jsonl"}
)

#: ``<64-hex-digest>.json`` — the only legal entry file name.
ENTRY_NAME_RE = re.compile(r"^[0-9a-f]{64}\.json$")


def _is_entry_name(name: str) -> bool:
    return ENTRY_NAME_RE.fullmatch(name) is not None


class ResultCache:
    """Digest-keyed store of :class:`~repro.fleet.jobs.JobResult`\\ s."""

    def __init__(
        self,
        root: str | Path | None = None,
        obs=None,
        max_bytes: int | None = None,
    ) -> None:
        if root is None:
            root = os.environ.get("FLEET_CACHE_DIR") or DEFAULT_DIR
        self.root = Path(root)
        self.obs = obs if obs is not None else NULL_OBS
        if max_bytes is None:
            raw = os.environ.get(MAX_BYTES_ENV)
            if raw:
                try:
                    max_bytes = int(raw)
                except ValueError:
                    raise FleetError(
                        f"${MAX_BYTES_ENV} must be an integer, got {raw!r}"
                    ) from None
        if max_bytes is not None and max_bytes <= 0:
            raise FleetError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = max_bytes
        self._durations: dict[str, float] | None = None
        self._index: dict | None = None
        self._index_dirty = False
        self._layout_checked = False

    # -- layout manifest and migration -------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    def read_manifest(self) -> dict | None:
        """The layout manifest document, or None when missing/garbage."""
        try:
            doc = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        return doc if isinstance(doc, dict) else None

    def manifest_ok(self) -> bool:
        doc = self.read_manifest()
        return (
            doc is not None
            and doc.get("schema") == LAYOUT_SCHEMA
            and doc.get("layout") == LAYOUT
            and doc.get("shard_width") == SHARD_WIDTH
        )

    def write_manifest(self) -> None:
        self._write_atomic(
            self.manifest_path,
            canonical_json(
                {
                    "schema": LAYOUT_SCHEMA,
                    "layout": LAYOUT,
                    "shard_width": SHARD_WIDTH,
                }
            ),
        )

    def _ensure_layout(self, create: bool = False) -> None:
        """Check (once) that the on-disk layout is current, migrating a
        legacy flat cache in place when it is not.

        A missing root directory stays unchecked until ``create`` forces
        it into existence — a read-only probe of a cache that was never
        written must not create directories.
        """
        if self._layout_checked:
            return
        if not self.root.is_dir():
            if not create:
                return
            self.root.mkdir(parents=True, exist_ok=True)
        self._layout_checked = True
        if self.manifest_ok():
            return
        self.migrate_flat_layout()
        self.write_manifest()

    def migrate_flat_layout(self) -> int:
        """Move legacy flat-layout files into their shards; returns the
        number of files moved.

        Both live entries (``<digest>.json``) and quarantine files
        (``<digest>.json.corrupt``) are carried forward, *independently*
        and suffix-preserving: a quarantine file sitting next to a valid
        entry for the same digest stays a quarantine file in the shard —
        migration never resurrects quarantined bytes into a live entry.
        When a sharded copy already exists (an interrupted earlier
        migration), the sharded copy wins and the flat leftover is
        dropped.
        """
        moved = 0
        if not self.root.is_dir():
            return moved
        for path in sorted(self.root.iterdir()):
            if not path.is_file() or path.name in RESERVED_FILES:
                continue
            name = path.name
            quarantined = name.endswith(".corrupt")
            stem = name[: -len(".corrupt")] if quarantined else name
            if not _is_entry_name(stem):
                continue
            digest = stem[: -len(".json")]
            target = self.path_for(digest)
            if quarantined:
                target = target.with_name(target.name + ".corrupt")
            target.parent.mkdir(parents=True, exist_ok=True)
            if target.exists():
                path.unlink(missing_ok=True)
            else:
                os.replace(path, target)
            moved += 1
        if moved and self.obs.enabled:
            self.obs.registry.counter("fleet_cache_migrated_total").inc(moved)
        return moved

    # -- result entries ----------------------------------------------------

    def path_for(self, digest: str) -> Path:
        """Where one digest's entry lives (digest-prefix shard dir)."""
        return self.root / digest[:SHARD_WIDTH] / f"{digest}.json"

    def get(self, digest: str) -> JobResult | None:
        """The cached result for a digest, or None on any kind of miss.

        An unreadable file or a salt mismatch (a stale entry from
        another code version) is a plain miss. A file that *reads* but
        does not parse back into a valid entry for this digest is
        corruption: it is quarantined (renamed to ``.corrupt``) and the
        miss makes the caller recompute and write a fresh entry.
        """
        self._ensure_layout()
        path = self.path_for(digest)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            return self._quarantine(path, "json")
        if not isinstance(doc, dict) or doc.get("schema") != ENTRY_SCHEMA:
            return self._quarantine(path, "entry-schema")
        if doc.get("salt") != CODE_SALT:
            return None
        if doc.get("digest") != digest:
            return self._quarantine(path, "digest")
        try:
            result = JobResult.from_payload(doc.get("result", {}))
        except Exception:
            return self._quarantine(path, "payload")
        if result.digest != digest:
            return self._quarantine(path, "digest")
        self._touch(digest, size=len(text.encode("utf-8")))
        return result

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt entry aside and count it; always a miss."""
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:
            pass  # someone else quarantined it first; still a miss
        if self.obs.enabled:
            self.obs.registry.counter(
                "fleet_cache_corrupt_total", reason=reason
            ).inc()
        return None

    def put(self, result: JobResult) -> Path:
        """Store one result atomically; returns the entry path.

        The write bumps the entry's logical access time and, when a
        byte budget is set, evicts least-recently-used unpinned entries
        until the cache fits again.
        """
        self._ensure_layout(create=True)
        doc = {
            "schema": ENTRY_SCHEMA,
            "result_schema": RESULT_SCHEMA,
            "salt": CODE_SALT,
            "digest": result.digest,
            "result": result.to_payload(),
        }
        path = self.path_for(result.digest)
        text = canonical_json(doc)
        self._write_atomic(path, text)
        self._touch(result.digest, size=len(text.encode("utf-8")) + 1)
        self.evict_to_budget()
        self.flush()
        return path

    # -- poison quarantine markers -----------------------------------------

    def poison_path(self, digest: str) -> Path:
        """Where one digest's poison marker lives (beside its entry
        slot: ``ab/<digest>.json.poison``)."""
        path = self.path_for(digest)
        return path.with_name(path.name + ".poison")

    def mark_poisoned(self, digest: str, reason: str) -> Path:
        """Record that a sweep quarantined ``digest`` as a poison job
        (its failures broke the worker pool repeatedly). Later sweeps
        skip the digest up front instead of breaking their pools too."""
        self._ensure_layout(create=True)
        path = self.poison_path(digest)
        self._write_atomic(
            path,
            canonical_json(
                {
                    "schema": POISON_SCHEMA,
                    "digest": digest,
                    "salt": CODE_SALT,
                    "reason": reason,
                }
            ),
        )
        if self.obs.enabled:
            self.obs.registry.counter("fleet_cache_poison_marks_total").inc()
        return path

    def poison_reason(self, digest: str) -> str | None:
        """The recorded quarantine reason, or None when the digest is
        not poisoned (including markers from other code versions — a
        version bump gets a fresh chance, same as cache entries)."""
        try:
            doc = json.loads(
                self.poison_path(digest).read_text(encoding="utf-8")
            )
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(doc, dict) or doc.get("schema") != POISON_SCHEMA:
            return None
        if doc.get("salt") != CODE_SALT or doc.get("digest") != digest:
            return None
        return str(doc.get("reason", "poisoned"))

    def clear_poison(self, digest: str) -> bool:
        """Lift one digest's quarantine; True when a marker existed."""
        path = self.poison_path(digest)
        existed = path.is_file()
        path.unlink(missing_ok=True)
        return existed

    def poisoned(self) -> tuple[str, ...]:
        """All currently-poisoned digests (this code version), sorted."""
        if not self.root.is_dir():
            return ()
        out = []
        for path in self.root.glob("??/*.json.poison"):
            digest = path.name[: -len(".json.poison")]
            if self.poison_reason(digest) is not None:
                out.append(digest)
        return tuple(sorted(out))

    # -- LRU index, pinning and eviction -----------------------------------

    @property
    def index_path(self) -> Path:
        return self.root / "index.json"

    def _load_index(self) -> dict:
        if self._index is None:
            entries: dict[str, dict] = {}
            seq = 0
            try:
                doc = json.loads(self.index_path.read_text(encoding="utf-8"))
                if (
                    isinstance(doc, dict)
                    and doc.get("schema") == INDEX_SCHEMA
                ):
                    seq = int(doc.get("seq", 0))
                    for digest, rec in dict(doc.get("entries", {})).items():
                        entries[str(digest)] = {
                            "seq": int(rec["seq"]),
                            "size": int(rec["size"]),
                            "pinned": bool(rec.get("pinned", False)),
                        }
            except (OSError, json.JSONDecodeError, KeyError, TypeError,
                    ValueError):
                entries, seq = {}, 0
            self._index = {"seq": seq, "entries": entries}
        return self._index

    def _touch(self, digest: str, size: int | None = None) -> None:
        """Record one logical access (and optionally the entry size)."""
        index = self._load_index()
        index["seq"] += 1
        entry = index["entries"].setdefault(
            digest, {"seq": 0, "size": 0, "pinned": False}
        )
        entry["seq"] = index["seq"]
        if size is not None:
            entry["size"] = size
        self._index_dirty = True

    def flush(self) -> None:
        """Persist the LRU index if it changed since the last flush.

        Reads batch their recency bumps in memory (a warm 10k-job sweep
        must not rewrite a 10k-entry index 10k times); ``put`` and the
        pool's end-of-run hook flush. Losing unflushed bumps to a crash
        costs recency accuracy, never correctness.
        """
        if not self._index_dirty or self._index is None:
            return
        self._ensure_layout(create=True)
        doc = {
            "schema": INDEX_SCHEMA,
            "seq": self._index["seq"],
            "entries": {
                digest: self._index["entries"][digest]
                for digest in sorted(self._index["entries"])
            },
        }
        self._write_atomic(self.index_path, canonical_json(doc))
        self._index_dirty = False

    def rebuild_index(self, entry_sizes: dict[str, int]) -> None:
        """Replace the index with exactly ``entry_sizes`` (the scrub's
        surviving-entry census), preserving known recency and pins."""
        old = self._load_index()["entries"]
        entries = {
            digest: {
                "seq": old.get(digest, {}).get("seq", 0),
                "size": size,
                "pinned": old.get(digest, {}).get("pinned", False),
            }
            for digest, size in entry_sizes.items()
        }
        self._index = {
            "seq": max(
                [self._load_index()["seq"]]
                + [e["seq"] for e in entries.values()]
            ),
            "entries": entries,
        }
        self._index_dirty = True
        self.flush()

    def pin(self, digest: str) -> None:
        """Exempt a digest from eviction (a stub is recorded even if the
        entry does not exist yet, so pin-then-put keeps the pin)."""
        index = self._load_index()
        entry = index["entries"].setdefault(
            digest, {"seq": 0, "size": 0, "pinned": False}
        )
        entry["pinned"] = True
        self._index_dirty = True
        self.flush()

    def unpin(self, digest: str) -> None:
        index = self._load_index()
        entry = index["entries"].get(digest)
        if entry is not None:
            entry["pinned"] = False
            self._index_dirty = True
            self.flush()

    def pinned(self) -> tuple[str, ...]:
        """Pinned digests, sorted."""
        entries = self._load_index()["entries"]
        return tuple(
            sorted(d for d, e in entries.items() if e["pinned"])
        )

    def total_bytes(self) -> int:
        """Total size of live entries, per the index."""
        return sum(
            e["size"] for e in self._load_index()["entries"].values()
        )

    def evict_to_budget(self) -> list[str]:
        """Delete least-recently-used unpinned entries until the cache
        fits ``max_bytes``; returns the evicted digests in order.

        Fully deterministic: the logical access clock orders victims
        (ties break by digest), and pinned entries are never candidates
        — if the pinned set alone exceeds the budget, nothing more can
        be evicted and the cache stays oversized by exactly that much.
        """
        if self.max_bytes is None:
            return []
        index = self._load_index()
        entries = index["entries"]
        total = sum(e["size"] for e in entries.values())
        evicted: list[str] = []
        victims = sorted(
            (d for d, e in entries.items() if not e["pinned"]),
            key=lambda d: (entries[d]["seq"], d),
        )
        for digest in victims:
            if total <= self.max_bytes:
                break
            total -= entries.pop(digest)["size"]
            self.path_for(digest).unlink(missing_ok=True)
            evicted.append(digest)
            self._index_dirty = True
        if evicted and self.obs.enabled:
            self.obs.registry.counter("fleet_cache_evictions_total").inc(
                len(evicted)
            )
        if self.obs.enabled:
            self.obs.registry.gauge("fleet_cache_bytes").set(float(total))
        return evicted

    def stats(self) -> dict:
        """A JSON-ready summary of the store's shape and occupancy."""
        entries = self._load_index()["entries"]
        return {
            "layout": LAYOUT,
            "entries": len(self),
            "indexed": len(entries),
            "bytes": self.total_bytes(),
            "pinned": sum(1 for e in entries.values() if e["pinned"]),
            "max_bytes": self.max_bytes,
        }

    # -- duration estimates (LPT ordering) ---------------------------------

    @property
    def durations_path(self) -> Path:
        return self.root / "durations.json"

    def _load_durations(self) -> dict[str, float]:
        if self._durations is None:
            try:
                doc = json.loads(
                    self.durations_path.read_text(encoding="utf-8")
                )
                self._durations = {
                    str(k): float(v) for k, v in doc.items()
                } if isinstance(doc, dict) else {}
            except (OSError, json.JSONDecodeError, TypeError, ValueError):
                self._durations = {}
        return self._durations

    def duration_estimate(self, spec: JobSpec) -> float | None:
        """Last known wall time for jobs shaped like ``spec``, if any."""
        return self._load_durations().get(spec.profile_key)

    def profile_estimates(self) -> dict[str, float]:
        """The whole EWMA duration table, sorted by profile key — the
        fleet publishes it as gauges so LPT dispatch is auditable."""
        return dict(sorted(self._load_durations().items()))

    def note_duration(self, spec: JobSpec, duration: float) -> None:
        """Update the duration estimate for a job shape (EWMA so one
        noisy run does not dominate the LPT order)."""
        durations = self._load_durations()
        prev = durations.get(spec.profile_key)
        durations[spec.profile_key] = (
            duration if prev is None else 0.5 * prev + 0.5 * duration
        )
        self._write_atomic(self.durations_path, canonical_json(durations))

    # -- maintenance -------------------------------------------------------

    def scrub(self, prune_stale: bool = False):
        """Run the integrity scrub over this cache; see
        :func:`repro.fleet.scrub.scrub_cache`."""
        from repro.fleet.scrub import scrub_cache

        return scrub_cache(self, prune_stale=prune_stale)

    def clear(self) -> int:
        """Delete every entry (plus quarantined files, the index and the
        duration table); returns the number of result entries removed."""
        removed = 0
        if self.root.is_dir():
            for entry in self.root.glob("??/*.json"):
                entry.unlink(missing_ok=True)
                removed += 1
            for entry in self.root.glob("??/*.corrupt"):
                entry.unlink(missing_ok=True)
            for entry in self.root.glob("??/*.poison"):
                entry.unlink(missing_ok=True)
            for entry in self.root.glob("??/*.tmp-*"):
                entry.unlink(missing_ok=True)
            self.durations_path.unlink(missing_ok=True)
            self.index_path.unlink(missing_ok=True)
        self._durations = None
        self._index = None
        self._index_dirty = False
        return removed

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))

    @staticmethod
    def _write_atomic(path: Path, text: str) -> None:
        """Crash-atomic write: a ``tmp-<pid>`` *sibling* (never a suffix
        swap that could collide across writers or shadow an entry name),
        fsynced before the rename — a coordinator SIGKILLed mid-put can
        leave a stale tmp file behind (the scrub prunes those) but never
        truncated JSON under the final name."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        with tmp.open("w", encoding="utf-8") as fh:
            fh.write(text + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
