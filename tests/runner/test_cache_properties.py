"""Property tests for the result cache's key scheme and robustness.

The cache key must be a *pure function of content*: invariant under
parameter-dict insertion order, and injective across distinct
(experiment, params, seed, code) tuples for all practical purposes.
The store must degrade to a miss — never an exception — on corrupted,
truncated, or wrong-format entries.
"""

from __future__ import annotations

import hashlib
import json

import hypothesis.strategies as st
import numpy as np
from hypothesis import given

from repro._store import STORE_FORMAT
from repro.analysis.tables import ExperimentTable
from repro.runner import cache
from repro.runner.cache import CACHE_FORMAT, cache_key
from repro.service.cache import ResultCache

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

#: Leaves of the oracle property: every JSON scalar, the floats JSON
#: spells specially, a float subclass, and numpy scalars json cannot
#: encode.
key_leaves = st.one_of(
    st.integers(),
    st.floats(),  # nan and +-inf included
    st.just(-0.0),
    st.text(max_size=10),
    st.booleans(),
    st.none(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)

#: Nested str-keyed values with tuples: what params and parsed request
#: bodies hold.
key_values = st.recursive(
    key_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=20,
)


def _oracle_canonical(value):
    """Frozen copy of the key scheme's original canonicaliser."""
    if isinstance(value, dict):
        return {str(k): _oracle_canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_oracle_canonical(v) for v in value]
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, int):
        return int(value)
    return repr(value)


def _oracle_key(experiment, params, seed=None, code_version=None):
    """Frozen copy of the original ``cache_key``: the bytes keys must keep."""
    if code_version is None:
        code_version = cache.code_fingerprint()
    payload = json.dumps(
        {
            "format": CACHE_FORMAT,
            "experiment": experiment,
            "params": _oracle_canonical(params),
            "seed": _oracle_canonical(seed),
            "code": code_version,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


#: One ``repro bench-serve`` body (``make_bodies(7, 1, n_min=3,
#: n_max=3)``), frozen.
SERVICE_BODY = {
    "instance": {
        "schema_version": 1,
        "tasks": [
            {"name": "t0", "cycles": 0.7112681289287633,
             "penalty": 0.6402004526147252},
            {"name": "t1", "cycles": 0.6410237071446717,
             "penalty": 0.7607520143369599},
            {"name": "t2", "cycles": 0.322841817173099,
             "penalty": 0.2429812931267842},
        ],
        "energy_fn": {
            "kind": "continuous",
            "deadline": 1.0,
            "power_model": {
                "kind": "polynomial", "beta0": 0.08, "beta1": 1.52,
                "alpha": 3.0, "s_min": 0.0, "s_max": 1.0,
            },
        },
    },
    "algorithm": "greedy_marginal",
    "eps": 0.1,
}

#: Its key at code version ``"f" * 64``, as the stores hold it.
SERVICE_BODY_KEY = (
    "fee8be7bc3ae6564633146707d72a38805ad80fdff15df4fd1f5b8f5854c7788"
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
        canon_a = json.dumps(_oracle_canonical(params_a), sort_keys=True)
        canon_b = json.dumps(_oracle_canonical(params_b), sort_keys=True)
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


class TestKeyBytes:
    """Keys name stored entries, so their bytes must never move."""

    @given(
        experiment=st.text(max_size=12),
        params=key_values,
        seed=st.one_of(st.none(), st.integers()),
        code=st.text(max_size=12),
    )
    def test_key_equals_the_original_scheme(
        self, experiment, params, seed, code
    ):
        assert cache_key(experiment, params, seed, code) == _oracle_key(
            experiment, params, seed, code
        )

    def test_service_body_key_is_pinned(self, monkeypatch):
        monkeypatch.setattr(cache, "_FINGERPRINT", "f" * 64)
        instance = SERVICE_BODY["instance"]
        params = {"instance": instance, "eps": 0.1}
        assert _oracle_key("service:greedy_marginal", params) == (
            SERVICE_BODY_KEY
        )
        assert cache_key("service:greedy_marginal", params) == (
            SERVICE_BODY_KEY
        )
        assert ResultCache.key(instance, "greedy_marginal", 0.1) == (
            SERVICE_BODY_KEY
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
