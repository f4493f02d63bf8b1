"""Hypothesis properties of the fleet-wide admission budget.

The ledger is the piece that keeps sharded admission paper-faithful,
so its contract gets property coverage in the style of
``tests/core/test_online_properties.py``:

* under any interleaving of ``lease``/``release``/``exchange`` across
  shards, the leased total never exceeds the budget (within the shared
  ``fits`` tolerance),
* a release never leaves a shard holding negative units,
* a refused exchange rolls its release back.
"""

import hypothesis.strategies as st
from hypothesis import given

from repro._validation import fits
from repro.service.shard.budget import GlobalBudget

BUDGET = 100.0
SHARDS = ("0", "1", "2")

#: One ledger op: (kind, shard, units[, acquire_units]).
ops = st.one_of(
    st.tuples(
        st.just("lease"),
        st.sampled_from(SHARDS),
        st.floats(min_value=0.0, max_value=80.0),
    ),
    st.tuples(
        st.just("release"),
        st.sampled_from(SHARDS),
        st.floats(min_value=0.0, max_value=80.0),
    ),
    st.tuples(
        st.just("exchange"),
        st.sampled_from(SHARDS),
        st.floats(min_value=0.0, max_value=80.0),
        st.floats(min_value=0.0, max_value=80.0),
    ),
)


def _apply(ledger, op):
    """Run one op; returns the observable result."""
    if op[0] == "lease":
        return ledger.lease(op[1], op[2])
    if op[0] == "release":
        return ledger.release(op[1], op[2])
    return ledger.exchange(op[1], op[2], op[3])


class TestLedgerInvariants:
    @given(sequence=st.lists(ops, max_size=40))
    def test_leased_total_never_exceeds_budget(self, sequence):
        ledger = GlobalBudget(BUDGET)
        for op in sequence:
            _apply(ledger, op)
            assert fits(ledger.leased_units, BUDGET)
            assert ledger.leased_units >= 0.0

    @given(sequence=st.lists(ops, max_size=40))
    def test_release_is_clamped_to_held(self, sequence):
        ledger = GlobalBudget(BUDGET)
        for op in sequence:
            _apply(ledger, op)
            for shard in SHARDS:
                assert ledger.held(shard) >= 0.0

    @given(units=st.floats(min_value=0.0, max_value=BUDGET))
    def test_failed_exchange_rolls_back(self, units):
        ledger = GlobalBudget(BUDGET)
        assert ledger.lease("0", units)
        held = ledger.held("0")
        # Acquiring more than the whole budget must fail and must not
        # leak the released half.
        assert not ledger.exchange("0", units / 2, BUDGET * 2)
        assert ledger.held("0") == held
