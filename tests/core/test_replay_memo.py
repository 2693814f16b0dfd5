"""The per-cycle replay memo ≡ replaying every parked account on its own.

``RDNAccounting._replay`` reuses one computed balance for every parked
account in the same exact state within a cycle.  These tests drive two
accounting shards directly, beside twins whose ``_replay`` is the
per-account loop the memo replaced, and require every balance to be
bit-equal and every ``on_replay`` call to match — across signed zeros,
subnormals, debt, balances above the cap, zero credit, non-positive
caps, parks at different cycles and cycle changes.
"""

import math

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.core import RDNAccounting, Subscriber
from repro.core import accounting as accounting_module
from repro.core.accounting import _refill
from repro.core.grps import ResourceVector


class PerAccountReplay(RDNAccounting):
    """The reference: every parked account replays its own refills."""

    def _replay(self, account):
        last, credit, cap = account.parked
        missed = self.cycle - last
        if missed <= 0:
            return
        if self.in_walk:
            raise RuntimeError(
                "parked account {!r} touched inside the reserved walk".format(
                    account.subscriber.name
                )
            )
        balance = account.balance
        account.balance = ResourceVector(
            _refill(balance[0], credit[0], cap[0], missed),
            _refill(balance[1], credit[1], cap[1], missed),
            _refill(balance[2], credit[2], cap[2], missed),
        )
        account.parked = (self.cycle, credit, cap)
        self.on_replay(account)


POPULATION = 8
#: The shards' starting cycles: different, so one parked state replays
#: to different balances in each.
START_CYCLES = (10, 15)
#: Cycles an account may be parked at, all before either start: few, so
#: equal keys recur across accounts, cycles and shards.
PARKED_AT = (0, 1, 4, 9)

#: Signed zeros, subnormals, debt, values near and above the caps.
BALANCES = (0.0, -0.0, 5e-324, 2.5e-308, 1e-05, -1.5, 0.015, 2.0, 20.0)
CREDITS = (0.0, -0.0, 5e-324, 1e-05, 0.004, 2.0)
CAPS = (0.015, 3000.0, 0.0, -0.0, -1.0, 1e-05, 5e-324)

_component = st.tuples(
    st.sampled_from(BALANCES), st.sampled_from(CREDITS), st.sampled_from(CAPS)
)
#: A few parked states per example, so many accounts share one.
STATES = st.lists(st.tuples(_component, _component, _component), min_size=1, max_size=3)

_shard = st.integers(0, 1)
_sub = st.integers(0, POPULATION - 1)
_state = st.integers(0, 2)
_at = st.sampled_from(PARKED_AT)
_advance = st.tuples(st.just("advance"), _shard, st.sampled_from((1, 1, 2, 7, 300)))
# Both shards, in either order.
_sync = st.tuples(st.just("sync"), _shard)
# (shard, first account, stride): wakes a part of a shard, so accounts
# parked together are replayed in different cycles.
_wake = st.tuples(st.just("wake"), _shard, _sub, st.integers(1, POPULATION))
OPS = st.one_of(
    # (shard, account, state index, parked at, flip the zeros' signs)
    st.tuples(st.just("park"), _shard, _sub, _state, _at, st.booleans()),
    # Every account of both shards in one state; even and odd ones parked
    # at different cycles, every third one with its zeros' signs flipped.
    st.tuples(st.just("park_all"), _state, _at, _at),
    _advance,
    _advance,
    _sync,
    _sync,
    _wake,
    _wake,
    st.tuples(st.just("unregister"), _shard, _sub),
    st.tuples(st.just("sync_in_walk"), _shard),
)


def flip_zeros(value):
    return math.copysign(0.0, -math.copysign(1.0, value)) if value == 0.0 else value


def bits(vector):
    return tuple(float(value).hex() for value in vector)


def run(cls, states, ops):
    """Apply ``ops`` to two ``cls`` shards; returns what an observer sees."""
    log = []
    shards = []
    for index in range(2):
        accounting = cls()
        accounting.cycle = START_CYCLES[index]
        accounting.on_replay = lambda account, index=index: log.append(
            (index, account.subscriber.name, bits(account.balance), account.parked[0])
        )
        for sub in range(POPULATION):
            accounting.register(Subscriber("s{}".format(sub), reservation_grps=1.0))
        shards.append(accounting)

    def park(accounting, sub, state, at, flip):
        balance, credit, cap = zip(*states[state % len(states)])
        if flip:
            balance = [flip_zeros(value) for value in balance]
        account = accounting.account_by_id(accounting.table.id_of("s{}".format(sub)))
        account.balance = ResourceVector(*balance)
        account.parked = (at, ResourceVector(*credit), ResourceVector(*cap))

    for op in ops:
        kind = op[0]
        if kind == "park_all":
            for accounting in shards:
                for sub in range(POPULATION):
                    park(accounting, sub, op[1], op[2 + sub % 2], sub % 3 == 0)
            continue
        accounting = shards[op[1]]
        if kind == "park":
            park(accounting, *op[2:])
        elif kind == "advance":
            accounting.cycle += op[2]
        elif kind == "sync":
            accounting.sync()
            shards[1 - op[1]].sync()
        elif kind == "wake":
            for sub in range(op[2], POPULATION, op[3]):
                accounting.wake(accounting.table.id_of("s{}".format(sub)))
        elif kind == "unregister":
            name = "s{}".format(op[2])
            gone = accounting.unregister(name)
            log.append(("gone", op[1], name, bits(gone.balance)))
            accounting.register(Subscriber(name, reservation_grps=1.0))
        elif kind == "sync_in_walk":
            accounting.in_walk = True
            try:
                accounting.sync()
            except RuntimeError as error:
                log.append(("refused", op[1], str(error)))
            finally:
                accounting.in_walk = False
    final = [
        [
            (
                account.subscriber.name,
                bits(account.balance),
                account.parked and account.parked[0],
            )
            for account in (
                accounting.account_by_id(sid) for sid in range(POPULATION)
            )
        ]
        for accounting in shards
    ]
    return log, final


#: Never saturates within these runs: every replayed cycle changes it.
RISING = [((0.0, 1e-05, 0.015),) * 3]


@seed(20030526)
@settings(max_examples=400, deadline=None)
@given(STATES, st.lists(OPS, min_size=1, max_size=40))
# Shard 0 replays account 1 alone, moves to the next cycle, then replays
# its twins: a memo kept across cycles hands them one refill too few.
@example(RISING, [("park_all", 0, 4, 4), ("wake", 0, 1, 8), ("advance", 0, 1), ("sync", 0)])
# Shard 0 replays account 1, shard 1 (five cycles ahead) then replays the
# same state, then shard 0 its twins: a memo shared between instances
# hands them shard 1's balance.
@example(RISING, [("park_all", 0, 4, 4), ("wake", 0, 1, 8), ("sync", 1)])
def test_memoised_replay_is_bit_equal_to_per_account_replay(states, ops):
    assert run(RDNAccounting, states, ops) == run(PerAccountReplay, states, ops)


def test_shared_state_replays_once_per_cycle(monkeypatch):
    """Equal parked states share one loop; a new cycle computes afresh."""
    calls = []

    def counted(balance, add, limit, cycles=1):
        calls.append(cycles)
        return _refill(balance, add, limit, cycles)

    monkeypatch.setattr(accounting_module, "_refill", counted)
    state = (((0.0, 1e-05, 0.015),) * 3, ((-0.0, 0.0, 0.0),) * 3)
    ops = [("park_all", 0, 4, 4), ("park", 0, 1, 1, 4, False), ("sync", 0)]
    log, final = run(RDNAccounting, state, ops)
    # Accounts 0, 3 and 6 start from -0.0, the rest from +0.0, except
    # shard 0's account 1, re-parked in the second state: three distinct
    # states in shard 0, two in shard 1.
    assert len(calls) == (3 + 2) * 3 and len(log) == 2 * POPULATION
    balances = [balance for _name, balance, _last in final[0]]
    assert balances[0] == balances[2] != balances[1] == ("-0x0.0p+0",) * 3
    del calls[:]
    run(RDNAccounting, state, ops + [("park_all", 0, 4, 4), ("advance", 0, 1), ("sync", 0)])
    # Shard 0 moved on and computes both states afresh; shard 1 did not,
    # and its memo still holds them.
    assert len(calls) == (3 + 2) * 3 + 2 * 3

