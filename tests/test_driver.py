"""The incremental program driver and the wrappers that keep their latest
state: golden execution records, linear work counts, purity under
out-of-order calls, the driver's own contract and the engine's view
tries."""

import dataclasses
import gc
import random
import re
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction

import pytest

import helpers
from helpers import execution_digest
from protolab.compression import compression_theorem_check
from protolab.errors import (
    BudgetExceededError,
    ModelViolationError,
    NonTerminationError,
)
from protolab.measures import (
    InputDistribution,
    build_joint,
    derandomize_zero_error,
    measure_protocol,
    product_protocol,
    publicize,
)
from protolab.model import (
    RELAXED,
    RESTRICTED,
    WAIT_ANY,
    ProgramDriver,
    ProtocolDef,
    Round,
    View,
    _ViewNode,
    run,
    run_all,
    run_relaxed,
)
from protolab.oblivious import obliviousize
from protolab.treefile import _TreeMachine, protocol_from_dict
from protolab.zoo import get_entry, ring_parity


def uniform(p):
    return InputDistribution.uniform(p)


def _zoo(name, **params):
    return get_entry(name, **params).protocol


def _order_leak_runs():
    p = _zoo("order-leak")
    return [
        run_relaxed(p, x, schedule=schedule)
        for x in p.input_space()
        for schedule in (None, (3, 4), (4, 3))
    ]


def _derandomized(entry_name, **params):
    entry = get_entry(entry_name, **params)
    pub = publicize(entry.protocol)
    det, _seed = derandomize_zero_error(pub, uniform(entry.protocol))
    return run_all(det)


def _obliviousized(eps):
    q = _zoo("q-index", k=3, q=1)
    return run_all(obliviousize(q, uniform(q), eps))


def _tree(build):
    return run_all(protocol_from_dict(build()))


def _relay_pair():
    # Both sides share the same slot-holding programs, so every call of a
    # side program alternates between the two sides' views.
    t = protocol_from_dict(helpers.relay3_dict())
    return run_all(product_protocol(t, t))


# Recorded with the replay-from-scratch code, before the incremental driver.
GOLDEN = {
    "ring-parity": (
        lambda: run_all(_zoo("ring-parity", k=3, n=1)),
        "fc8bc562a0e9c2bbd76ee420e3b249ed8e9555567494f5fe16d4bd0aaab36088",
    ),
    "star-parity": (
        lambda: run_all(_zoo("star-parity", k=2, n=1)),
        "70c7f14a4932aee65b06adde0326348c84a1f48e3114044964e4ef5566c5d29b",
    ),
    "and-opt": (
        lambda: run_all(_zoo("and-opt")),
        "1d38a86a9c2f0c675595d4337e2fbec6c472bde4ad1aacd8bb58bccef4091a41",
    ),
    "q-index": (
        lambda: run_all(_zoo("q-index", k=3, q=1)),
        "12fec19a030684af7628f7f09cf3e062a9fc6095c2616d1e4092457bf175af32",
    ),
    "order-leak": (
        _order_leak_runs,
        "a2945db92fe8a6a50bddc5e555edef4adf7d0322856b3582d73c1582220e3646",
    ),
    "publicize-ring": (
        lambda: run_all(publicize(_zoo("ring-parity", k=3, n=1))),
        "3886b8efc3d1e09234402e32345231c10820a2d9ce584b5d1f08f86ff0ce7b85",
    ),
    "derandomize-star": (
        lambda: _derandomized("star-parity", k=3, n=1),
        "01110fc753525d108a122a2688f2e75c6a312db034e5c520d5152021886aeb56",
    ),
    "derandomize-ring": (
        lambda: _derandomized("ring-parity", k=3, n=1),
        "86fa2293c85767398081f5cf96a07cfbcddacf8f8b72bd45581f5ab7565d0ee2",
    ),
    "product-star-ring": (
        lambda: run_all(product_protocol(
            _zoo("star-parity", k=3, n=1), _zoo("ring-parity", k=3, n=1)
        )),
        "e0c24281d64d23d3e0a419b170d228997dba459c32b50fe7ed3daad5b785b754",
    ),
    "product-star-threefold": (
        lambda: run_all(product_protocol(
            product_protocol(_zoo("star-parity", k=3, n=1),
                             _zoo("star-parity", k=3, n=1)),
            _zoo("star-parity", k=3, n=1),
        )),
        "a8ce6986ba53474bbddea20f3afef579bf25055ec1244b94ad44df72888208ae",
    ),
    "obliviousize-half": (
        lambda: _obliviousized(Fraction(1, 2)),
        "64df8346a5766d4f3cbc6265f1004f65e18a1d1eca4a24d85d0b5ff9b7288905",
    ),
    "obliviousize-quarter": (
        lambda: _obliviousized(Fraction(1, 4)),
        "5d1bec0488215d311bf384f90afd16c54100a62878128f4dafbf7a2af74e22bc",
    ),
    "tree-relay3": (
        lambda: _tree(helpers.relay3_dict),
        "42767e20f88cdbed1febfc05fb3482e4ccc009a2a43553599d573ab4f009582c",
    ),
    "tree-masked-ping": (
        lambda: _tree(helpers.masked_ping_dict),
        "8473fa608b89cda3c3b75256f5748de68156a238b36b83e6ee8c2197c2f1d835",
    ),
    "tree-and-mask": (
        lambda: _tree(helpers.and_mask_dict),
        "1a154953535e987286978c7abd1b8f37c6cd201e72815deadf934777f89735c2",
    ),
    "tree-second-bit": (
        lambda: _tree(helpers.second_bit_dict),
        "9eb97eca03a74cccc4b7cc84888c8d9fab627aa811f75f2618d53e501ef049a9",
    ),
    "product-relay3-relay3": (
        _relay_pair,
        "1adaac4abd318eadccf7111e4501afc0f94d7e7d9f4457236e7623be2ca324f9",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_execution_golden_pin(case):
    build, digest = GOLDEN[case]
    assert execution_digest(build()) == digest


# -- work grows linearly in rounds ---------------------------------------------


def _recorded(p):
    """A copy of p whose programs record the views they are called on."""
    views = []

    def wrap(program):
        def recorded(view):
            views.append(view)
            return program(view)

        return recorded

    return dataclasses.replace(
        p, programs=tuple(wrap(prog) for prog in p.programs)
    ), views


def _local_rounds(table):
    return sum(len(pt) for e in table.values() for pt in e.patterns)


def test_obliviousize_inner_calls_do_not_grow_with_phases():
    # The inner program runs once per inner round however many phases
    # carry its bits.  Replaying it from scratch every round made the calls
    # per execution grow with the phases (58, 114, 226 here), while calls
    # per local round stayed near 1.15 either way, so they are counted per
    # execution.
    base = _zoo("q-index", k=3, q=1)
    per_execution = []
    for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
        q, calls = _recorded(base)
        obl = obliviousize(q, uniform(q), eps)
        calls.clear()  # obliviousize itself enumerates q once
        table = run_all(obl)
        per_execution.append(len(calls) / len(table))
    assert max(per_execution) <= 1.5 * min(per_execution), per_execution


def test_tree_decisions_per_round_do_not_grow_with_depth(monkeypatch):
    calls = [0]
    decide = _TreeMachine._decide

    def counted(self, *args):
        calls[0] += 1
        return decide(self, *args)

    monkeypatch.setattr(_TreeMachine, "_decide", counted)
    per_round = []
    for depth in (4, 8):
        p = protocol_from_dict(
            helpers.random_tree_dict(random.Random(depth), depth)
        )
        calls[0] = 0
        table = run_all(p)
        per_round.append(calls[0] / _local_rounds(table))
    assert max(per_round) <= 1.5 * min(per_round), per_round


# -- wrappers stay pure functions of their views --------------------------------


def _split_read():
    """Player 1 reads players 2 and 3 in one read round, but player 3 sends
    only after reading player 2, so the two messages come in different
    lots (and, obliviousized, in different phases).  Player 1 then sends
    player 2 their XOR and outputs both."""
    def first(view):
        if view.round == 1:
            return Round(waits=(2, 3))
        (_, a), (_, b) = view.reads[0]
        return Round(sends=((2, str(int(a) ^ int(b))),), output=a + b,
                     halt=True)

    def second(view):
        if view.round == 1:
            return Round(sends=((1, view.input), (3, view.input)), waits=(1,))
        return Round(output=view.reads[0][0][1], halt=True)

    def third(view):
        if view.round == 1:
            return Round(waits=(2,))
        return Round(sends=((1, view.input),), output=view.input, halt=True)

    return ProtocolDef(
        name="split-read",
        k=3,
        input_domains=(("0",), ("0", "1"), ("0", "1")),
        output_domains=(("00", "01", "10", "11"), ("0", "1"), ("0", "1")),
        private_tape_lengths=(0, 0, 0),
        public_tape_length=0,
        programs=(first, second, third),
        max_local_rounds=2,
    )


@pytest.mark.parametrize("build", [
    lambda: obliviousize(_zoo("q-index", k=3, q=1),
                         uniform(_zoo("q-index", k=3, q=1)), Fraction(1, 2)),
    lambda: product_protocol(_zoo("star-parity", k=3, n=1),
                             _zoo("ring-parity", k=3, n=1)),
    lambda: protocol_from_dict(helpers.random_tree_dict(random.Random(3), 5)),
    lambda: product_protocol(_split_read(), _split_read()),
    lambda: obliviousize(_split_read(), uniform(_split_read()),
                         Fraction(1, 2)),
], ids=["obliviousize", "product", "tree", "product-split-read",
        "obliviousize-split-read"])
def test_wrapper_rounds_do_not_depend_on_call_order(build):
    # A wrapper that restarts a kept inner driver must not carry a message
    # that an abandoned state left unread into the next state: the split
    # reads leave one in the inbox between lots or phases.
    p = build()
    table = run_all(p)
    calls = []
    for (x, privs, pub), e in table.items():
        for i in p.players:
            for r, pattern in enumerate(e.record(i).patterns):
                view = View(i, x[i - 1], privs[i - 1], pub,
                            e.record(i).reads[:r])
                calls.append((view, e.record(i).sends[r], pattern))

    def play(view, sends, pattern):
        act = p.program(view.player)(view)
        assert tuple(sorted(act.sends)) == sends
        if not act.halt:
            assert tuple(sorted(set(act.waits))) == pattern[0]
        return act.output

    # The engine's order gives each view's output; any order gives the same.
    outputs = [play(*call) for call in calls]
    order = list(range(len(calls)))
    random.Random(0).shuffle(order)
    for n in order:
        assert play(*calls[n]) == outputs[n]


# -- the driver's contract ----------------------------------------------------


def _driver(program, max_rounds=6, mode=RESTRICTED, schedule=()):
    """A driver for player 1 of a three-player protocol running program."""
    def idle(view):
        return Round(output="0", halt=True)

    p = ProtocolDef(
        name="driver",
        k=3,
        input_domains=(("0",),) * 3,
        output_domains=(("0", "01001"), ("0",), ("0",)),
        private_tape_lengths=(0, 0, 0),
        public_tape_length=0,
        programs=(program, idle, idle),
        max_local_rounds=max_rounds,
        mode=mode,
    )
    return ProgramDriver(p, 1, schedule).restart("0", "", "")


def test_driver_blocks_until_every_waited_sender_has_a_message():
    def prog(view):
        if view.round == 1:
            return Round(sends=((2, "1"),), waits=(3, 2))
        if view.round == 2:
            return Round(waits=(2,))
        return Round(output="".join(m for _, m in view.received), halt=True)

    d = _driver(prog).run()
    assert d.waiting == (2, 3) and not d.halted
    d.feed(2, "01")
    d.feed(2, "1")
    assert d.run().waiting == (2, 3)
    d.feed(3, "00")
    d.run()
    assert d.halted and d.waiting is None
    assert d.reads == [((2, "01"), (3, "00")), ((2, "1"),)]
    assert d.sends == [((2, "1"),), (), ()]
    assert d.record().patterns == (((2, 3), (2,)), ((2,), ()), ((), ()))
    assert d.output == "01001"


def test_driver_runs_empty_wait_sets_without_messages():
    def prog(view):
        if view.round < 3:
            return Round(sends=((3, "1"), (2, "0")) if view.round == 1 else ())
        return Round(output="0", halt=True)

    d = _driver(prog).run()
    assert d.halted and d.reads == [(), ()]
    assert d.sends[0] == ((2, "0"), (3, "1"))
    assert d.record().patterns == (((), (2, 3)), ((), ()), ((), ()))


DRIVER_ERRORS = [
    (Round(), NonTerminationError, "player 1 exceeded 4 local rounds"),
    (Round(output="0"), ModelViolationError, "player 1 wrote output twice"),
    (Round(waits=WAIT_ANY), ModelViolationError,
     "wait-any is only available in relaxed mode"),
    (Round(sends=((1, "0"),)), ModelViolationError,
     "player 1 sends to invalid recipient 1"),
    (Round(sends=((4, "0"),)), ModelViolationError,
     "player 1 sends to invalid recipient 4"),
    (Round(sends=((2, "0"), (2, "1"))), ModelViolationError,
     "player 1 sends twice to 2 in one round"),
    (Round(sends=((2, ""),)), ModelViolationError,
     "player 1 sends a non-bitstring or empty message"),
    (Round(sends=((2, "02"),)), ModelViolationError,
     "player 1 sends a non-bitstring or empty message"),
    (Round(output="1", halt=True), ModelViolationError,
     "player 1 output '1' outside its domain"),
    (Round(waits=(1,)), ModelViolationError,
     "player 1 waits on invalid player 1"),
    ((), ModelViolationError, "player 1's program returned tuple"),
    # A malformed field is a model violation that names the field.
    (Round(waits=2), ModelViolationError,
     re.escape("player 1's Round.waits is 2, not a collection")),
    (Round(waits=None), ModelViolationError,
     re.escape("player 1's Round.waits is None, not a collection")),
    (Round(sends=5), ModelViolationError,
     re.escape("player 1's Round.sends is 5, not a collection")),
    (Round(sends=((2, "1", "x"),)), ModelViolationError,
     re.escape("player 1's Round.sends entry (2, '1', 'x') is not a "
               "(recipient, message) pair")),
    (Round(sends=(([2], "1"),)), ModelViolationError,
     re.escape("player 1 sends to invalid recipient [2] (Round.sends)")),
    (Round(waits=([2],)), ModelViolationError,
     re.escape("player 1 waits on invalid player [2] (Round.waits)")),
    (Round(sends=((2.0, "1"),)), ModelViolationError,
     re.escape("player 1 sends to invalid recipient 2.0 (Round.sends)")),
    (Round(waits=(2.0,)), ModelViolationError,
     re.escape("player 1 waits on invalid player 2.0 (Round.waits)")),
]


def test_driver_errors():
    for act, error, match in DRIVER_ERRORS:
        with pytest.raises(error, match=match):
            _driver(lambda view: act, max_rounds=4).run()


def _path(d):
    """The read rounds from d's root view to its node, found by a search
    down the trie (a node keeps no link to its parent)."""
    stack = [(d.trie[d.key], [])]
    while stack:
        node, steps = stack.pop()
        if node is d.node:
            return steps
        stack.extend([(child, steps + [step]) for step, child in node.items()])
    raise AssertionError("the driver's node is not in its trie")


def _exit(d, batches):
    """Feed d each batch of (sender, message) and run it after each; its
    state where the last run returned or raised, and the error if any."""
    error = None
    try:
        for batch in batches:
            for sender, content in batch:
                d.feed(sender, content)
            d.run()
    except ModelViolationError as err:
        error = (type(err), str(err))
    return (d.reads, d.sends, d.output, d.halted, d.waiting,
            _path(d)), error


# Per exit of ``run``: player 1's program, the mode, the batches fed, and
# the state it leaves (reads, sends, output, halted, waiting, path to its
# node) or the error it raises.
DRIVER_EXITS = {
    "blocked-on-a-wait-set": (
        lambda view: (Round(sends=((2, "1"),), waits=(3, 2))
                      if view.round == 1 else Round(waits=(2,))),
        RESTRICTED, [[], [(2, "01"), (3, "00")]],
        ([((2, "01"), (3, "00"))], [((2, "1"),), ()], None, False, (2,),
         [((2, "01"), (3, "00"))]),
    ),
    "blocked-on-wait-any": (
        lambda view: Round(waits=WAIT_ANY), RELAXED, [[], [(2, "0")]],
        ([((2, "0"),)], [(), ()], None, False, WAIT_ANY, [((2, "0"),)]),
    ),
    "halted": (
        lambda view: (Round(waits=(2,)) if view.round == 1
                      else Round(output="0", halt=True)),
        RESTRICTED, [[], [(2, "1")]],
        ([((2, "1"),)], [(), ()], "0", True, None, [((2, "1"),)]),
    ),
    "too-many-rounds": (
        lambda view: Round(), RESTRICTED, [[]],
        (NonTerminationError, "player 1 exceeded 6 local rounds"),
    ),
    "model-violation": (
        lambda view: (Round(waits=(2,)) if view.round == 1
                      else Round(sends=((4, "1"),))),
        RESTRICTED, [[], [(2, "1")]],
        (ModelViolationError, "player 1 sends to invalid recipient 4"),
    ),
}


@pytest.mark.parametrize("case", list(DRIVER_EXITS))
def test_every_exit_of_run_leaves_a_state_restart_starts_over(case):
    program, mode, batches, expected = DRIVER_EXITS[case]
    d = _driver(program, mode=mode)
    first = _exit(d, batches)
    # The second run walks the views the first one left in the trie.
    again = _exit(d.restart("0", "", ""), batches)
    fresh = _exit(_driver(program, mode=mode), batches)
    state, error = first
    if error is None:
        assert state == expected
    else:
        assert error[0] is expected[0] and error[1].startswith(expected[1])
    assert again == fresh == first


def test_run_all_runs_each_driver_only_until_it_halts(monkeypatch):
    # In ring-parity(4,2) each relay runs both its rounds in the first
    # sweep and player 1 one round per sweep: 5 calls per execution when
    # a halted driver is not called again, 12 when every sweep calls all.
    calls = 0
    driver_run = ProgramDriver.run

    def counted(self):
        nonlocal calls
        calls += 1
        return driver_run(self)

    monkeypatch.setattr(ProgramDriver, "run", counted)
    table = run_all(ring_parity(4, 2).protocol)
    assert len(table) == 1024
    assert calls <= 5 * len(table)


def test_relaxed_wait_any_follows_the_schedule():
    def prog(view):
        if view.round < 3:
            return Round(waits=WAIT_ANY)
        return Round(output="0", halt=True)

    d = _driver(prog, mode=RELAXED, schedule=(3,)).run()
    assert d.waiting == WAIT_ANY and d.reads == []
    d.feed(2, "0")
    d.feed(3, "1")
    d.run()
    # The schedule picks sender 3 first; once it is used up the lowest
    # sender with a message waiting is read.
    assert d.halted
    assert d.reads == [((3, "1"),), ((2, "0"),)]
    assert d.record().patterns == ((WAIT_ANY, ()), (WAIT_ANY, ()),
                                   ((), ()))


# -- one view trie per player per enumeration -----------------------------------


def _seeded_tree(seed):
    return protocol_from_dict(helpers.random_tree_dict(
        random.Random(seed), 3, private=(1, 1), public=1,
    ))


@pytest.mark.parametrize("build,views", [
    (lambda: _zoo("ring-parity", k=4, n=2), 140),
    (lambda: product_protocol(_zoo("star-parity", k=3, n=2),
                              _zoo("ring-parity", k=3, n=1)), 1144),
    (lambda: obliviousize(_zoo("q-index", k=3, q=2),
                          uniform(_zoo("q-index", k=3, q=2)),
                          Fraction(1, 8)), None),
    (lambda: _seeded_tree(11), None),
], ids=["ring-parity", "product", "obliviousize", "tree"])
def test_run_all_runs_each_program_once_per_distinct_view(build, views):
    p, calls = _recorded(build())
    table = run_all(p)
    assert len(calls) == helpers.distinct_views(table)
    if views is not None:
        assert len(calls) == views
    # Every execution reaches one view per local round, so the trie saves
    # calls wherever executions share a view.
    assert len(calls) < _local_rounds(table)


@pytest.mark.parametrize("build", [
    lambda side: product_protocol(side(_zoo("star-parity", k=3, n=2)),
                                  side(_zoo("ring-parity", k=3, n=1))),
    lambda side: product_protocol(
        side(product_protocol(side(_zoo("star-parity", k=3, n=1)),
                              side(_zoo("star-parity", k=3, n=1)))),
        side(_zoo("star-parity", k=3, n=1)),
    ),
], ids=["star-ring", "nested"])
def test_product_runs_each_side_program_once_per_distinct_view(build):
    recorded = []

    def side(p):
        q, views = _recorded(p)
        recorded.append(views)
        return q

    product = build(side)
    for views in recorded:
        views.clear()  # the calls of each side's own enumeration
    run_all(product)
    assert any(recorded)
    # A View names its player, so a repeat is one product player's.
    for views in recorded:
        repeated = [v for v, n in Counter(views).items() if n > 1]
        assert not repeated, repeated[:3]


def _differential_cases():
    star = _zoo("star-parity", k=3, n=1)
    ring = _zoo("ring-parity", k=3, n=1)
    zoo = [
        ring, star, _zoo("ring-parity", k=4, n=2),
        _zoo("star-parity", k=3, n=2), _zoo("and-opt"),
        _zoo("q-index", k=3, q=1), _zoo("q-index", k=3, q=2),
    ]
    trees = [_seeded_tree(seed) for seed in range(6)]
    nested = [
        product_protocol(product_protocol(star, ring), star),
        product_protocol(star, product_protocol(ring, ring)),
    ]
    return zoo + trees + nested


def test_run_all_matches_runs_with_a_fresh_trie():
    for p in _differential_cases():
        for key, e in run_all(p).items():
            assert e == run(p, *key), (p.name, key)


@pytest.mark.parametrize("seed", range(6))
def test_run_all_matches_runs_on_random_table_protocols(seed):
    k = 3 + seed % 2
    p = helpers.random_table_protocol(
        seed, k, ticks=3 + seed % 2, private=(1,) + (0,) * (k - 2) + (1,),
        public=1,
    )
    table = run_all(p)
    assert len(table) == helpers.execution_count(p)
    # Pi, the players' Pi_i joined by index, as the joint law holds it.
    joint = build_joint(p, uniform(p))
    full = {row[:2 * p.k + 1]: row[joint.variables.index("pi")]
            for row in joint.rows}
    for key, e in table.items():
        fresh = run(p, *key)
        assert e == fresh, key
        assert e.messages == fresh.messages == helpers.reference_messages(e)
        joined = ["".join(m for rnd in e.record(i).reads for _, m in rnd)
                  for i in p.players]
        assert [e.record(i).received for i in p.players] == joined
        assert full[key[0] + key[1] + (key[2],)] == "".join(joined)
        # The fresh run walked its own trie: equality and hashing go over
        # the records, not over the trie nodes.
        assert hash(e) == hash(fresh)


def _random_table_cases():
    return [
        helpers.random_table_protocol(
            seed, 3 + seed % 2, ticks=2 + seed % 3,
            private=(seed % 2,) * (3 + seed % 2), public=seed % 3 // 2,
        )
        for seed in range(8)
    ]


def test_trie_walk_codebooks_equal_the_walk_over_every_execution():
    q = _zoo("q-index", k=3, q=1)
    deep = obliviousize(q, uniform(q), Fraction(1, 4))
    for p in _differential_cases() + _random_table_cases() + [deep]:
        table = run_all(p)
        assert table.codebooks == helpers.reference_codebooks(table), p.name


def test_executions_that_end_at_one_view_share_its_record():
    shared = 0
    for p in [_zoo("ring-parity", k=3, n=1), _zoo("q-index", k=3, q=1),
              *_random_table_cases()]:
        for i in p.players:
            by_view = {}
            for e in run_all(p).values():
                by_view.setdefault(id(e.nodes[i - 1]), []).append(e)
            for group in by_view.values():
                first = group[0]
                for e in group[1:]:
                    assert e.record(i).sends is first.record(i).sends
                    assert e.record(i) is first.record(i)
                    assert (e.record(i).received
                            is first.record(i).received)
                shared += len(group) - 1
    assert shared > 0


def test_an_enumeration_holds_little_memory():
    # A fresh protocol, so run_all enumerates and keeps its own table.
    p = ring_parity(4, 2).protocol
    gc.collect()
    tracemalloc.start()
    try:
        table = run_all(p)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == helpers.execution_count(p)
    assert held < 1 << 20


def _shared_prefix(later_round):
    """Player 2 sends "1", then its input; player 1 reads both.  Player 1's
    first two views are the same under both of player 2's inputs; from its
    third round on it runs ``later_round(round, input of player 2)``."""
    def first(view):
        if view.round < 3:
            return Round(waits=(2,))
        return later_round(view.round, view.reads[1][0][1])

    def second(view):
        if view.round == 1:
            return Round(sends=((1, "1"),))
        return Round(sends=((1, view.input),), output="0", halt=True)

    return ProtocolDef(
        name="shared-prefix",
        k=2,
        input_domains=(("0",), ("0", "1")),
        output_domains=(("0",), ("0",)),
        private_tape_lengths=(0, 0),
        public_tape_length=0,
        programs=(first, second),
        max_local_rounds=4,
    )


# Each later round is legal when player 2's input is "0" and breaks one
# rule when it is "1".
SHARED_PREFIX_ERRORS = {
    "outside-domain": (
        lambda r, x: Round(output="0" if x == "0" else "1", halt=True),
        ModelViolationError, "player 1 output '1' outside its domain",
    ),
    "too-many-rounds": (
        lambda r, x: Round(output="0" if r == 3 else None, halt=x == "0"),
        NonTerminationError, "player 1 exceeded 4 local rounds",
    ),
    "output-twice": (
        lambda r, x: Round(output="0", halt=x == "0" or r == 4),
        ModelViolationError, "player 1 wrote output twice",
    ),
}


@pytest.mark.parametrize("case", sorted(SHARED_PREFIX_ERRORS))
def test_model_checks_fire_after_a_shared_prefix(case):
    later_round, error, match = SHARED_PREFIX_ERRORS[case]
    p = _shared_prefix(later_round)
    # Input "0" runs first and fills player 1's trie; input "1" reaches
    # the same first two views before it breaks a rule.
    assert run(p, ("0", "0")).outputs == ("0", "0")
    with pytest.raises(error, match=match) as fresh:
        run(p, ("0", "1"))
    with pytest.raises(error) as enumerated:
        run_all(p)
    assert type(enumerated.value) is type(fresh.value)
    assert str(enumerated.value) == str(fresh.value)


def _live_view_nodes():
    gc.collect()
    return sum(isinstance(obj, _ViewNode) for obj in gc.get_objects())


def test_the_tries_live_as_long_as_the_table():
    before = _live_view_nodes()
    # A fresh protocol object, so run_all enumerates instead of reading a
    # table some other test built.
    p = dataclasses.replace(_zoo("ring-parity", k=3, n=1))
    table = run_all(p)
    assert len(table) == helpers.execution_count(p)
    del table
    # The protocol keeps its table, whose executions keep their final
    # views, and so the tries.
    assert _live_view_nodes() > before
    del p
    assert _live_view_nodes() == before


@pytest.mark.parametrize("name,execute", [
    ("ring-parity", lambda p: run(p, ("0", "1", "1"), ("1", "", ""))),
    ("order-leak",
     lambda p: run_relaxed(p, ("1", "", "", ""), schedule=(4, 3))),
], ids=["run", "run_relaxed"])
def test_a_runs_tries_are_freed_with_the_execution(name, execute):
    before = _live_view_nodes()
    e = execute(_zoo(name))
    assert all(e.outputs)
    assert _live_view_nodes() > before
    del e
    assert _live_view_nodes() == before


def _drive(d, e):
    """Feed driver d everything its player read in e, and run it."""
    for rnd in e.record(d.player).reads:
        for sender, content in rnd:
            d.feed(sender, content)
    return d.run()


def _record(d):
    return (d.reads, d.sends, d.record().patterns, d.output, d.halted,
            d.waiting)


def test_a_restarted_driver_matches_a_fresh_one():
    p = _zoo("ring-parity", k=3, n=1)
    table = run_all(p)
    items = list(table.items())
    for i in p.players:
        (x, privs, pub), first = items[0]
        d = _drive(ProgramDriver(p, i).restart(x[i - 1], privs[i - 1], pub),
                   first)
        for (x, privs, pub), e in items[1:]:
            assert d.halted and not any(d.inbox.values())
            args = (x[i - 1], privs[i - 1], pub)
            _drive(d.restart(*args), e)
            fresh = _drive(ProgramDriver(p, i).restart(*args), e)
            assert _record(d) == _record(fresh)
            rec = e.record(i)
            assert (d.reads, d.sends, d.record().patterns,
                    d.output) == (list(rec.reads), list(rec.sends),
                                  rec.patterns, e.outputs[i - 1])


def test_tables_and_joints_live_as_long_as_their_owners():
    p = publicize(_zoo("ring-parity", k=3, n=1))
    table = run_all(p)
    # A protocol that lives keeps its one table, and the budget is still
    # checked on every call.
    assert run_all(p) is table and run_all(p, budget=None) is table
    with pytest.raises(BudgetExceededError):
        run_all(p, budget=len(table) - 1)
    joint = build_joint(p, uniform(p))
    refs = [weakref.ref(obj) for obj in (p, table, joint)]
    del p, table, joint
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_tables_and_joints_are_freed_as_soon_as_their_owners_are_dropped():
    # The collector stays off, so only reference counting can free them.
    gc.disable()
    try:
        p = publicize(_zoo("ring-parity", k=3, n=1))
        table = run_all(p)
        joint = build_joint(p, uniform(p))
        refs = [weakref.ref(obj) for obj in (p, table, joint)]
        del p, table, joint
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


def _enumerate_and_measure(p):
    return run_all(p), measure_protocol(p, uniform(p))


def _compress(**options):
    entry = get_entry("star-parity", k=3, n=1)
    p = entry.protocol
    return compression_theorem_check(p, uniform(p), 0.3, entry.family,
                                     **options)


# Each operation on protocols it builds itself, so everything it makes is
# dropped with its result.
LIFETIME_CASES = {
    "ring-parity": lambda: _enumerate_and_measure(
        _zoo("ring-parity", k=3, n=1)),
    "product": lambda: _enumerate_and_measure(product_protocol(
        _zoo("star-parity", k=3, n=1), _zoo("ring-parity", k=3, n=1))),
    "obliviousize": lambda: _obliviousized(Fraction(1, 4)),
    "publicize": lambda: _enumerate_and_measure(
        publicize(_zoo("ring-parity", k=3, n=1))),
    "tree-file": lambda: _enumerate_and_measure(protocol_from_dict(
        helpers.random_tree_dict(random.Random(3), 4, input_bits=2))),
    "compress-exact": _compress,
    "compress-randomized": lambda: _compress(lcp_mode="randomized",
                                             seed=11, trials=6),
}


@pytest.mark.parametrize("case", list(LIFETIME_CASES))
def test_an_operation_leaves_no_cyclic_garbage(case):
    # With the collector off, reference counting alone frees what the
    # operation built once its result is dropped; a full collection then
    # finds every reference cycle left behind.
    gc.collect()
    gc.disable()
    try:
        LIFETIME_CASES[case]()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_product_side_tries_are_freed_with_the_product():
    class Output(str):
        """An output string that a weak reference can follow."""

    refs = []

    def keep(program):
        def kept(view):
            act = program(view)
            if act.output is None:
                return act
            output = Output(act.output)
            refs.append(weakref.ref(output))
            return dataclasses.replace(act, output=output)

        return kept

    def side(p):
        return dataclasses.replace(
            p, programs=tuple(keep(f) for f in p.programs))

    product = product_protocol(side(_zoo("star-parity", k=3, n=1)),
                               side(_zoo("ring-parity", k=3, n=1)))
    refs.clear()  # the outputs of each side's own enumeration
    table = run_all(product)
    gc.collect()
    # The side tries keep the checked rounds, outputs too, while the
    # product lives.
    assert refs and all(ref() is not None for ref in refs)
    del product, table
    gc.collect()
    assert all(ref() is None for ref in refs)
