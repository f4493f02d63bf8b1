"""Property tests for the result cache's key scheme and robustness.

The cache key must be a *pure function of content*: invariant under
parameter-dict insertion order, and injective across distinct
(experiment, params, seed, code) tuples for all practical purposes.
The store must degrade to a miss — never an exception — on corrupted,
truncated, or wrong-format entries.
"""

from __future__ import annotations

import json

import hypothesis.strategies as st
from hypothesis import given

from repro._store import STORE_FORMAT
from repro.analysis.tables import ExperimentTable
from repro.runner import cache
from repro.runner.cache import cache_key

#: JSON-ish parameter values the experiments actually pass.
param_values = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
    st.booleans(),
    st.none(),
    st.tuples(st.integers(min_value=0, max_value=100)),
)

param_dicts = st.dictionaries(
    st.text(min_size=1, max_size=15), param_values, max_size=6
)


def _sample_table() -> ExperimentTable:
    table = ExperimentTable(
        name="fig_rX",
        title="sample",
        columns=["n", "ratio", "label"],
        notes=["trials=2 seed=0"],
    )
    table.add_row(4, 1.25, "a")
    table.add_row(8, 1.5, "b")
    return table


class TestKeyCanonicalisation:
    @given(params=param_dicts, seed=st.integers(0, 2**31))
    def test_key_invariant_under_dict_ordering(self, params, seed):
        reordered = dict(reversed(list(params.items())))
        assert cache_key("fig_r1", params, seed) == cache_key(
            "fig_r1", reordered, seed
        )

    @given(params=param_dicts, seed=st.integers(0, 2**31))
    def test_key_is_stable_across_calls(self, params, seed):
        assert cache_key("fig_r1", params, seed) == cache_key(
            "fig_r1", dict(params), seed
        )

    @given(
        params=param_dicts,
        seed_a=st.integers(0, 2**31),
        seed_b=st.integers(0, 2**31),
    )
    def test_distinct_seeds_never_collide(self, params, seed_a, seed_b):
        key_a = cache_key("fig_r1", params, seed_a)
        key_b = cache_key("fig_r1", params, seed_b)
        assert (key_a == key_b) == (seed_a == seed_b)

    @given(params=param_dicts, seed=st.integers(0, 2**31))
    def test_distinct_experiments_never_collide(self, params, seed):
        assert cache_key("fig_r1", params, seed) != cache_key(
            "fig_r2", params, seed
        )

    @given(
        params_a=param_dicts, params_b=param_dicts, seed=st.integers(0, 2**31)
    )
    def test_distinct_params_never_collide(self, params_a, params_b, seed):
        key_a = cache_key("fig_r1", params_a, seed)
        key_b = cache_key("fig_r1", params_b, seed)
        canon_a = json.dumps(cache._canonical(params_a), sort_keys=True)
        canon_b = json.dumps(cache._canonical(params_b), sort_keys=True)
        assert (key_a == key_b) == (canon_a == canon_b)

    def test_quick_and_full_are_distinct_entries(self):
        assert cache_key("fig_r1", {"quick": True}) != cache_key(
            "fig_r1", {"quick": False}
        )

    def test_code_version_invalidates(self):
        params = {"quick": True}
        assert cache_key("fig_r1", params, 0, code_version="aaa") != cache_key(
            "fig_r1", params, 0, code_version="bbb"
        )


class TestRoundTrip:
    def test_store_then_load(self, tmp_path):
        table = _sample_table()
        key = cache_key("fig_rX", {"quick": True}, 0)
        cache.store(key, table, cache_dir=tmp_path)
        loaded = cache.load(key, cache_dir=tmp_path)
        assert loaded is not None
        assert loaded.name == table.name
        assert loaded.title == table.title
        assert list(loaded.columns) == list(table.columns)
        assert loaded.rows == table.rows
        assert loaded.notes == table.notes

    def test_numpy_cells_round_trip_to_equal_values(self, tmp_path):
        import numpy as np

        table = ExperimentTable(name="t", title="t", columns=["x"])
        table.add_row(np.float64(0.1))
        key = cache_key("t", {}, 0)
        cache.store(key, table, cache_dir=tmp_path)
        loaded = cache.load(key, cache_dir=tmp_path)
        assert loaded.rows[0][0] == table.rows[0][0]
        assert str(loaded.rows[0][0]) == str(table.rows[0][0])

    def test_missing_entry_is_a_miss(self, tmp_path):
        assert cache.load("0" * 64, cache_dir=tmp_path) is None


class TestCorruptionIsAMiss:
    def _stored(self, tmp_path):
        key = cache_key("fig_rX", {"quick": True}, 0)
        path = cache.store(key, _sample_table(), cache_dir=tmp_path)
        return key, path

    def test_garbage_bytes(self, tmp_path):
        key, path = self._stored(tmp_path)
        path.write_bytes(b"\x00\xffnot json at all")
        assert cache.load(key, cache_dir=tmp_path) is None

    def test_any_truncation_is_a_miss(self, tmp_path):
        # Hypothesis forbids function-scoped fixtures under @given, so
        # sweep the truncation points exhaustively instead.
        key, path = self._stored(tmp_path)
        blob = path.read_bytes().rstrip()  # trailing \n is not payload
        for cut in range(1, len(blob), 7):
            path.write_bytes(blob[:-cut])
            assert cache.load(key, cache_dir=tmp_path) is None, cut

    def test_valid_json_wrong_schema(self, tmp_path):
        key, path = self._stored(tmp_path)
        path.write_text(json.dumps({"surprise": []}))
        assert cache.load(key, cache_dir=tmp_path) is None

    def test_key_mismatch_inside_entry(self, tmp_path):
        key, path = self._stored(tmp_path)
        entry = json.loads(path.read_text())
        entry["key"] = "f" * 64
        path.write_text(json.dumps(entry))
        assert cache.load(key, cache_dir=tmp_path) is None

    def test_format_bump_invalidates(self, tmp_path):
        key, path = self._stored(tmp_path)
        entry = json.loads(path.read_text())
        entry["format"] = STORE_FORMAT + 1
        path.write_text(json.dumps(entry))
        assert cache.load(key, cache_dir=tmp_path) is None

    def test_rows_with_wrong_arity(self, tmp_path):
        key, path = self._stored(tmp_path)
        entry = json.loads(path.read_text())
        entry["value"]["rows"][0] = [1]  # drops two cells
        path.write_text(json.dumps(entry))
        assert cache.load(key, cache_dir=tmp_path) is None


class TestUnusableCacheDir:
    def test_run_finishes_as_a_miss_when_the_cache_dir_is_a_file(
        self, tmp_path, monkeypatch
    ):
        from repro.runner import run_experiment

        blocker = tmp_path / "not-a-dir"
        blocker.write_text("a regular file")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker))
        table, metrics = run_experiment(
            "fig_rX", run_fn=lambda jobs, quick: _sample_table()
        )
        assert metrics.cache == "miss"
        assert table.rows == _sample_table().rows
        assert blocker.read_text() == "a regular file"

    def test_store_is_dropped_and_load_misses(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("a regular file")
        key = cache_key("fig_rX", {"quick": True}, 0)
        assert cache.store(key, _sample_table(), cache_dir=blocker) is None
        assert cache.load(key, cache_dir=blocker) is None
