"""Tests for the built-in protocols."""

import gc
import itertools
import math
import weakref

import pytest

import helpers
from protolab.errors import BudgetExceededError, ConfigError
from protolab.model import run, run_all, run_relaxed
from protolab.treefile import protocol_from_dict
from protolab.zoo import (
    REGISTRY,
    get_entry,
    lift_entry,
    q_index,
    ring_parity,
    star_parity,
    xor_bits,
)


def outputs_match_family(entry):
    p = entry.protocol
    for (x, privs, pub), e in run_all(p).items():
        for i in p.players:
            if e.outputs[i - 1] != entry.family.value(i, x):
                return False
    return True


@pytest.mark.parametrize(
    "name,params",
    [
        ("ring-parity", {"k": 3, "n": 1}),
        ("ring-parity", {"k": 4, "n": 2}),
        ("star-parity", {"k": 3, "n": 2}),
        ("star-parity", {"k": 4, "n": 1}),
        ("and-opt", {}),
        ("q-index", {"k": 3, "q": 1}),
        ("q-index", {"k": 3, "q": 2}),
        ("q-index", {"k": 4, "q": 2}),
    ],
)
def test_zero_error_entries_compute_their_family(name, params):
    assert outputs_match_family(get_entry(name, **params))


def test_ring_hand_examples():
    p = ring_parity(3, 1).protocol
    e = run(p, ("1", "0", "1"), ("1", "", ""), "")
    assert [m.content for m in e.messages] == ["0", "0", "1"]
    assert e.outputs[0] == "0"
    e = run(p, ("1", "0", "1"), ("0", "", ""), "")
    assert e.outputs[0] == "0"
    assert e.total_bits == 3
    for pad in ("0", "1"):
        e = run(p, ("0", "0", "0"), (pad, "", ""), "")
        assert e.outputs[0] == "0"


def test_ring_rejects_small_k():
    with pytest.raises(ConfigError):
        ring_parity(2, 1)


def test_star_counts():
    entry = star_parity(3, 2)
    table = run_all(entry.protocol)
    assert len(table) == 64
    assert all(e.total_bits == 4 for e in table.values())


def test_and_opt_examples():
    p = get_entry("and-opt").protocol
    e = run(p, ("1", "1"))
    assert e.record(2).received == "1"
    assert e.record(1).received == "1"
    assert e.outputs == ("1", "1")
    e = run(p, ("0", "1"))
    assert e.record(2).received == "0"
    assert e.outputs == ("0", "0")


def test_q_index_communication_and_output():
    for k, q in ((3, 1), (3, 2), (4, 2), (4, 3)):
        entry = q_index(k, q)
        p = entry.protocol
        for (x, privs, pub), e in run_all(p).items():
            assert e.total_bits == 2 * q
            assert e.outputs[k - 1] == entry.family.value(k, x)


def test_q_index_domain_excludes_duplicates():
    p = q_index(3, 2).protocol
    assert set(p.input_domain(3)) == {"01", "10"}
    with pytest.raises(ValueError, match="domain"):
        run(p, ("0", "0", "00"))


def test_q_index_domain_is_every_index_tuple_in_bitstring_order():
    # Oracle: filter every string of q w-bit fields for distinct holders.
    for k in range(3, 7):
        w = max(1, math.ceil(math.log2(k - 1)))
        for q in range(1, k):
            want = []
            for bits in itertools.product("01", repeat=q * w):
                s = "".join(bits)
                targets = [int(s[j * w:(j + 1) * w], 2) + 1 for j in range(q)]
                if len(set(targets)) == q and max(targets) <= k - 1:
                    want.append(s)
            assert q_index(k, q).protocol.input_domain(k) == tuple(want)
    assert len(q_index(9, 8).protocol.input_domain(9)) == math.factorial(8)


def test_q_index_parameter_validation():
    with pytest.raises(ConfigError):
        q_index(2, 1)
    with pytest.raises(ConfigError):
        q_index(3, 3)


def test_order_leak_runs():
    entry = get_entry("order-leak")
    p = entry.protocol
    runs = {}
    for x in ("0", "1"):
        e = run_relaxed(p, (x, "", "", ""))
        runs[x] = e
        assert e.outputs[1] == x
        assert all(m.content == "0" for m in e.messages)
        assert e.total_bits == 8
    # First read of player 2 comes from player 3 iff x = 0.
    assert runs["0"].record(2).reads[0][0][0] == 3
    assert runs["1"].record(2).reads[0][0][0] == 4
    # Content-only transcripts coincide.
    for i in p.players:
        assert runs["0"].record(i).received == runs["1"].record(i).received


def test_registry_errors():
    with pytest.raises(ConfigError, match="unknown protocol"):
        get_entry("no-such")
    with pytest.raises(ConfigError, match="no parameter"):
        get_entry("and-opt", k=5)


def test_registry_counts_executions_from_the_parameters():
    cases = {
        "ring-parity": [{"k": k, "n": n} for k in (3, 4, 5)
                        for n in (1, 2, 3)],
        "star-parity": [{"k": k, "n": n} for k in (2, 3, 5)
                        for n in (1, 2, 3)],
        "and-opt": [{}],
        "q-index": [{"k": k, "q": q} for k in (3, 4, 5, 7)
                    for q in range(1, k)],
        "order-leak": [{}],
    }
    assert set(cases) == set(REGISTRY)
    for name, params in cases.items():
        for args in params:
            count = REGISTRY[name]["executions"](**args)
            built = REGISTRY[name]["factory"](**args).protocol
            assert count == helpers.execution_count(built), (name, args)
            assert get_entry(name, budget=count, **args).protocol.k == built.k
            with pytest.raises(BudgetExceededError):
                get_entry(name, budget=count - 1, **args)


def test_huge_sizes_without_a_budget_are_named_not_shifted():
    # No budget means 2^64 executions: past it a count is named by its
    # power of two, never built; up to it, it is returned.
    tree = {"k": 2, "input_bits": [10**20, 1],
            "tape_bits": {"private": [0, 0], "public": 0},
            "tree": {"outputs": ["0", "0"]}}
    for build, count in (
        (lambda: get_entry("ring-parity", k=10**20), f"2^{10**20 + 1}"),
        (lambda: get_entry("q-index", k=10**20, q=1),
         f"at least 2^{10**20 - 1}"),
        (lambda: ring_parity(10**20, 1), f"2^{10**20 + 1}"),
        (lambda: protocol_from_dict(tree), f"2^{10**20 + 1}"),
        (lambda: REGISTRY["star-parity"]["executions"](k=65, n=1), "2^65"),
    ):
        with pytest.raises(BudgetExceededError) as info:
            build()
        assert str(info.value) == (
            f"enumeration needs {count} executions, budget is 2^64")
    assert REGISTRY["star-parity"]["executions"](k=64, n=1) == 1 << 64


def test_registry_keeps_no_entry():
    # An entry's protocol owns its execution table, so a kept entry would
    # pin the table for the life of the process.
    entry = get_entry("ring-parity", k=3, n=1)
    table = weakref.ref(run_all(entry.protocol))
    assert get_entry("ring-parity", k=3, n=1) is not entry
    del entry
    gc.collect()
    assert table() is None


def test_lift_entry():
    entry = lift_entry(get_entry("and-opt"), 3)
    p = entry.protocol
    assert p.k == 3
    for x, y in itertools.product("01", repeat=2):
        e = run(p, (x, y, ""))
        want = "1" if x == y == "1" else "0"
        assert e.outputs == (want, want, "0")
        assert e.total_bits == 2
    assert entry.family.value(1, (x, y, "")) == want
    assert lift_entry(entry, 3) is entry
    with pytest.raises(ConfigError, match="can only lift to more players"):
        lift_entry(entry, 2)


def test_xor_bits():
    assert xor_bits("1010", "0110") == "1100"
    for a, b in (("10", "1"), ("0", "01")):
        with pytest.raises(ValueError, match="equal lengths"):
            xor_bits(a, b)


def test_documented_expected_measures_hold():
    from protolab.measures import (
        InputDistribution, cc, ic, pic, privacy_leakage, spy_info,
        transcript_entropy,
    )

    checkers = {
        "cc": lambda p, mu, fam: cc(p),
        "ic": lambda p, mu, fam: ic(p, mu),
        "pic": lambda p, mu, fam: pic(p, mu),
        "transcript_entropy": lambda p, mu, fam: transcript_entropy(p, mu),
        "spy_info": lambda p, mu, fam: spy_info(p, mu),
        "privacy_leakage": lambda p, mu, fam: privacy_leakage(p, mu, fam),
    }
    for name, params in (
        ("ring-parity", {"k": 3, "n": 1}),
        ("star-parity", {"k": 3, "n": 2}),
        ("and-opt", {}),
    ):
        entry = get_entry(name, **params)
        mu = InputDistribution.uniform(entry.protocol)
        for key, want in entry.expected.items():
            if key not in checkers:
                continue
            got = checkers[key](entry.protocol, mu, entry.family)
            assert got == pytest.approx(want, abs=1e-9), (name, key)
