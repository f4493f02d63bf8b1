"""Tests for the content-addressed service result cache."""

import json
import os

import pytest

from repro._store import STORE_FORMAT, JsonStore
from repro.service.cache import ResultCache


INSTANCE = {
    "schema_version": 1,
    "tasks": [{"name": "t0", "cycles": 0.4, "penalty": 1.0}],
    "energy_fn": {"kind": "continuous", "deadline": 1.0},
}


class TestKeying:
    def test_key_ignores_dict_ordering(self):
        shuffled = {k: INSTANCE[k] for k in reversed(list(INSTANCE))}
        assert ResultCache.key(INSTANCE, "fptas", 0.1) == ResultCache.key(
            shuffled, "fptas", 0.1
        )

    def test_key_depends_on_algorithm_and_eps(self):
        base = ResultCache.key(INSTANCE, "fptas", 0.1)
        assert ResultCache.key(INSTANCE, "greedy_marginal", 0.1) != base
        assert ResultCache.key(INSTANCE, "fptas", 0.2) != base

    def test_key_depends_on_content(self):
        other = dict(INSTANCE)
        other["tasks"] = [{"name": "t0", "cycles": 0.5, "penalty": 1.0}]
        assert ResultCache.key(other, "fptas", 0.1) != ResultCache.key(
            INSTANCE, "fptas", 0.1
        )


class TestLru:
    def test_hit_and_miss_counting(self):
        cache = ResultCache()
        key = ResultCache.key(INSTANCE, "fptas", 0.1)
        assert cache.get(key) is None
        cache.put(key, {"cost": 1.0})
        assert cache.get(key) == {"cost": 1.0}
        assert cache.stats() == {
            "entries": 1,
            "max_entries": 4096,
            "hits": 1,
            "misses": 1,
        }

    def test_eviction_drops_least_recently_used(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") is not None  # refresh a; b is now LRU
        cache.put("c", {"v": 3})
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None

    def test_put_overwrites(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", {"v": 1})
        cache.put("a", {"v": 2})
        assert len(cache) == 1
        assert cache.get("a") == {"v": 2}

    def test_max_entries_validated(self):
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(max_entries=0)


class TestDiskTier:
    def test_round_trip_and_stats(self, tmp_path):
        tier = JsonStore(tmp_path / "cache")
        tier.put("k1", {"cost": 1.0})
        assert tier.get("k1") == {"cost": 1.0}
        assert tier.get("absent") is None
        stats = tier.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["max_bytes"] is None

    def test_entries_are_shared_between_instances(self, tmp_path):
        # Location-independence: any tier over the same directory sees
        # the same content-addressed entries — the cross-shard contract.
        JsonStore(tmp_path).put("k1", {"cost": 1.0})
        assert JsonStore(tmp_path).get("k1") == {"cost": 1.0}

    @pytest.mark.parametrize(
        "content",
        [
            "",  # truncated to nothing
            '{"format": 1, "key": "k1", "val',  # torn write
            "not json at all",
            json.dumps({"format": 99, "key": "k1", "value": {}}),
            json.dumps({"format": STORE_FORMAT, "value": {}}),  # no key
            json.dumps(
                # A renamed/half-copied file: embedded key disagrees.
                {"format": STORE_FORMAT, "key": "other", "value": {}}
            ),
            json.dumps(
                {"format": STORE_FORMAT, "key": "k1", "value": [1, 2]}
            ),
            json.dumps([1, 2, 3]),
        ],
        ids=[
            "empty",
            "torn",
            "not-json",
            "wrong-format",
            "missing-key",
            "wrong-key",
            "non-dict-solution",
            "non-dict-entry",
        ],
    )
    def test_corrupted_entry_is_a_miss_not_a_crash(self, tmp_path, content):
        tier = JsonStore(tmp_path)
        (tmp_path / "k1.json").write_text(content)
        assert tier.get("k1") is None

    def test_prune_evicts_oldest_mtime_first(self, tmp_path):
        tier = JsonStore(tmp_path)
        for index in range(4):
            key = f"k{index}"
            tier.put(key, {"v": index, "pad": "x" * 64})
            os.utime(tmp_path / f"{key}.json", (index, index))
        entry_bytes = (tmp_path / "k0.json").stat().st_size
        tier.max_bytes = 2 * entry_bytes
        assert tier.prune() == 2
        assert tier.get("k0") is None
        assert tier.get("k1") is None
        assert tier.get("k2") == {"v": 2, "pad": "x" * 64}
        assert tier.get("k3") == {"v": 3, "pad": "x" * 64}

    def test_hit_touches_entry_young_again(self, tmp_path):
        tier = JsonStore(tmp_path)
        tier.put("old", {"v": 0})
        tier.put("new", {"v": 1})
        # Backdate both, then hit "old": the hit must refresh its
        # mtime, so pruning evicts "new" first.
        os.utime(tmp_path / "old.json", (1, 1))
        os.utime(tmp_path / "new.json", (2, 2))
        assert tier.get("old") is not None
        entry_bytes = (tmp_path / "old.json").stat().st_size
        tier.max_bytes = entry_bytes
        tier.prune()
        assert tier.get("old") is not None
        assert tier.get("new") is None

    def test_put_prunes_when_over_budget(self, tmp_path):
        tier = JsonStore(tmp_path)
        tier.put("k0", {"v": 0})
        os.utime(tmp_path / "k0.json", (1, 1))
        # Budget fits exactly one entry; the next put must evict the
        # older one on its own, without an explicit prune() call.
        tier.max_bytes = (tmp_path / "k0.json").stat().st_size
        tier.put("k1", {"v": 1})
        assert tier.get("k0") is None
        assert tier.get("k1") == {"v": 1}
        assert tier.stats()["entries"] == 1

    def test_failed_write_is_dropped_and_leaves_no_temp_file(self, tmp_path):
        tier = JsonStore(tmp_path)
        (tmp_path / "k1.json").mkdir()  # the rename onto it must fail
        assert tier.put("k1", {"v": 1}) is None
        assert tier.get("k1") is None
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k1.json"]

    def test_unusable_directory_raises_at_construction(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("a regular file")
        with pytest.raises(OSError):
            JsonStore(blocker)

    def test_max_bytes_validated(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            JsonStore(tmp_path, max_bytes=0)


class TestTwoTier:
    def test_memory_miss_falls_through_to_disk_and_promotes(self, tmp_path):
        first = ResultCache(disk_dir=tmp_path)
        first.put("k1", {"cost": 1.0})
        second = ResultCache(disk_dir=tmp_path)
        assert second.get("k1") == {"cost": 1.0}
        assert second.disk_hits == 1
        assert second.hits == 0
        # Promoted: the repeat is a pure memory hit.
        assert second.get("k1") == {"cost": 1.0}
        assert second.hits == 1
        assert second.disk_hits == 1

    def test_stats_breaks_out_the_disk_tier(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path, disk_max_bytes=4096)
        cache.put("k1", {"cost": 1.0})
        cache.get("absent")
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["disk_hits"] == 0
        assert stats["disk"]["entries"] == 1
        assert stats["disk"]["max_bytes"] == 4096

    def test_corrupted_disk_entry_is_an_overall_miss(self, tmp_path):
        first = ResultCache(disk_dir=tmp_path)
        first.put("k1", {"cost": 1.0})
        (tmp_path / "k1.json").write_text('{"tor')
        second = ResultCache(disk_dir=tmp_path)
        assert second.get("k1") is None
        assert second.misses == 1
        assert second.disk_hits == 0

    def test_without_disk_dir_stats_stay_unchanged(self):
        # The pinned single-process schema must not grow disk keys.
        cache = ResultCache()
        cache.put("k1", {"cost": 1.0})
        assert "disk_hits" not in cache.stats()
        assert "disk" not in cache.stats()
