"""Tests for the protocol-tree file format and its compiler."""

import json
from collections import defaultdict

import pytest

import helpers
from protolab.errors import (
    ConfigError,
    DeadlockError,
    ModelViolationError,
    ProtoLabError,
)
from protolab.measures import InputDistribution, acc
from protolab.model import is_oblivious, run, run_all
from protolab.treefile import load_protocol, protocol_from_dict

from helpers import and_mask_dict, masked_ping_dict, relay3_dict, second_bit_dict


def and_tree_dict():
    return {
        "name": "and-tree",
        "k": 2,
        "input_bits": [1, 1],
        "tape_bits": {"private": [0, 0], "public": 0},
        "tree": {
            "sender": 1, "receiver": 2, "msg_bits": 1,
            "message_table": {"0": "0", "1": "1"},
            "children": {
                "0": {"outputs": ["0", "0"]},
                "1": {
                    "sender": 2, "receiver": 1, "msg_bits": 1,
                    "message_table": {"0": "0", "1": "1"},
                    "children": {
                        "0": {"outputs": ["0", "0"]},
                        "1": {"outputs": ["1", "1"]},
                    },
                },
            },
        },
    }


def test_and_tree_executes():
    p = protocol_from_dict(and_tree_dict())
    want = {"00": "0", "01": "0", "10": "0", "11": "1"}
    for x in p.input_space():
        e = run(p, x)
        assert e.outputs == (want[x[0] + x[1]],) * 2


def test_second_bit_average_communication():
    p = protocol_from_dict(second_bit_dict())
    mu = InputDistribution.uniform(p)
    assert float(acc(p, mu)) == pytest.approx(1.5)


def test_relay3_parity_and_structure():
    p = protocol_from_dict(relay3_dict())
    for x in p.input_space():
        e = run(p, x)
        parity = str(int(x[0]) ^ int(x[1]) ^ int(x[2]))
        assert e.outputs == (parity, "0", "0")
        assert [(m.sender, m.receiver, m.lot) for m in e.messages] == [
            (1, 2, 1), (2, 3, 2), (3, 1, 3)
        ]
    assert is_oblivious(p)[0]


def test_randomized_fixtures_run():
    for build in (masked_ping_dict, and_mask_dict):
        p = protocol_from_dict(build())
        table = run_all(p)
        assert len(table) == 8  # 2 x 2 inputs x 2 pad values
        for e in table.values():
            assert e.outputs == ("0", "0")


def test_masked_ping_message_is_the_pad_xor():
    p = protocol_from_dict(masked_ping_dict())
    for x1 in "01":
        for pad in "01":
            e = run(p, (x1, "0"), (pad, ""), "")
            assert e.messages[0].content == str(int(x1) ^ int(pad))


def test_view_key_without_tapes_is_bare_input():
    p = protocol_from_dict(and_tree_dict())
    assert run(p, ("1", "0")).outputs == ("0", "0")


def test_load_protocol_from_file(tmp_path):
    path = tmp_path / "and.json"
    path.write_text(json.dumps(and_tree_dict()))
    p = load_protocol(path)
    assert p.k == 2
    assert run(p, ("1", "1")).outputs == ("1", "1")
    with pytest.raises(ConfigError, match="cannot load"):
        load_protocol(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError):
        load_protocol(bad)


def test_format_validation():
    spec = and_tree_dict()
    del spec["tree"]["message_table"]
    with pytest.raises(ConfigError, match="missing field"):
        protocol_from_dict(spec)

    spec = and_tree_dict()
    spec["tree"]["message_table"] = {"0": "0"}  # not total on inputs
    with pytest.raises(ConfigError, match="missing view key"):
        protocol_from_dict(spec)

    spec = and_tree_dict()
    del spec["tree"]["children"]["1"]["message_table"]["1"]  # below the root
    with pytest.raises(ConfigError,
                       match="player 2 sends is missing view key '1'"):
        protocol_from_dict(spec)

    for field in ("k", "tree"):
        spec = and_tree_dict()
        del spec[field]
        with pytest.raises(ConfigError,
                           match=f"protocol tree is missing field '{field}'"):
            protocol_from_dict(spec)

    spec = and_tree_dict()
    spec["tree"]["children"]["0"]["outputs"] = ["0"]  # wrong arity
    with pytest.raises(ConfigError, match="outputs"):
        protocol_from_dict(spec)

    spec = and_tree_dict()
    spec["tree"]["message_table"] = {"0": "0", "1": "2"}
    with pytest.raises(ConfigError, match="bit string"):
        protocol_from_dict(spec)

    spec = and_tree_dict()
    spec["tree"]["sender"] = 2
    spec["tree"]["receiver"] = 2
    with pytest.raises(ConfigError, match="sender/receiver"):
        protocol_from_dict(spec)

    spec = and_tree_dict()
    del spec["tape_bits"]["private"]
    with pytest.raises(ConfigError, match="missing field 'private'"):
        protocol_from_dict(spec)

    spec = and_tree_dict()
    spec["k"] = "2"
    with pytest.raises(ConfigError, match="malformed"):
        protocol_from_dict(spec)

    spec = and_tree_dict()
    spec["tree"]["msg_bits"] = "1"
    with pytest.raises(ConfigError, match="malformed"):
        protocol_from_dict(spec)

    spec = and_tree_dict()
    spec["input_bits"] = [-1, 1]
    with pytest.raises(ConfigError, match="malformed"):
        protocol_from_dict(spec)

    spec = and_tree_dict()
    spec["tree"]["children"]["0"]["outputs"] = ["", "0"]
    with pytest.raises(ConfigError, match="non-empty"):
        protocol_from_dict(spec)

    spec = and_tree_dict()
    spec["tree"]["children"]["111"] = {"outputs": ["10", "01"]}
    with pytest.raises(ConfigError, match="child key '111' is not a 1-bit"):
        protocol_from_dict(spec)

    spec = and_tree_dict()
    spec["tree"]["children"]["1"]["message_table"]["junk"] = "0"
    with pytest.raises(ConfigError, match="key 'junk', which is not a view"):
        protocol_from_dict(spec)

    # Header sizes are checked before they are summed or compared, and
    # the error names the field; JSON true is no size.
    for name, value in [(name, value)
                        for name in ("k", "input_bits[0]",
                                     "tape_bits.private[1]",
                                     "tape_bits.public")
                        for value in (None, "1", 1.5, True, -1)]:
        spec = and_tree_dict()
        if name == "k":
            spec["k"] = value
        elif name == "input_bits[0]":
            spec["input_bits"] = [value, 1]
        elif name == "tape_bits.private[1]":
            spec["tape_bits"]["private"] = [0, value]
        else:
            spec["tape_bits"]["public"] = value
        with pytest.raises(ConfigError) as info:
            protocol_from_dict(spec)
        assert str(info.value) == (
            f"malformed protocol tree: {name} must be a non-negative "
            f"integer, got {value!r}"
        )
    spec = and_tree_dict()
    spec["input_bits"] = None
    with pytest.raises(ConfigError, match="input_bits must be a list"):
        protocol_from_dict(spec)

    # So are a node's player indices and message width.
    for name in ("sender", "receiver", "msg_bits"):
        for value in (None, "1", 1.0, True, -1):
            spec = and_tree_dict()
            spec["tree"]["children"]["1"][name] = value
            with pytest.raises(ConfigError) as info:
                protocol_from_dict(spec)
            assert str(info.value) == (
                f"malformed protocol tree: {name} must be a non-negative "
                f"integer, got {value!r}"
            )

    # A node's tables are JSON objects and a leaf's outputs a list of
    # strings: a list of keys or one string of outputs is no substitute.
    for name, value, kind in [
        ("children", ["0", "1"], "an object"),
        ("message_table", ["0", "1"], "an object"),
        ("message_table", "01", "an object"),
        ("outputs", "00", "a list of strings"),
        ("outputs", [0, 0], "a list of strings"),
        ("outputs", None, "a list of strings"),
    ]:
        spec = and_tree_dict()
        node = spec["tree"]["children"]["0" if name == "outputs" else "1"]
        node[name] = value
        with pytest.raises(ConfigError) as info:
            protocol_from_dict(spec)
        assert str(info.value) == (
            f"malformed protocol tree: {name} must be {kind}, got {value!r}"
        )

    # A node, a message value and the tape header of the wrong JSON type
    # are named, as are a zero width and a message value with no child.
    for change, message in [
        (lambda spec: spec["tree"]["children"].update({"0": 5}),
         "malformed protocol tree: a tree node must be an object, got 5"),
        (lambda spec: spec["tree"]["message_table"].update({"0": 0}),
         "message value 0 is not a 1-bit string"),
        (lambda spec: spec.update(tape_bits=[0, 0]),
         "malformed protocol tree: tape_bits must be an object, got [0, 0]"),
        (lambda spec: spec.update(name=["a", 1]),
         "malformed protocol tree: name must be a string, got ['a', 1]"),
        (lambda spec: spec["tree"].update(msg_bits=0),
         "msg_bits must be positive"),
        (lambda spec: spec["tree"]["children"].pop("1"),
         "message value '1' has no child"),
    ]:
        spec = and_tree_dict()
        change(spec)
        with pytest.raises(ConfigError) as info:
            protocol_from_dict(spec)
        assert str(info.value) == message

    spec = and_tree_dict()
    for _ in range(3000):  # a chain, one level per message
        spec["tree"] = {
            "sender": 1, "receiver": 2, "msg_bits": 1,
            "message_table": {"0": "0", "1": "0"},
            "children": {"0": spec["tree"]},
        }
    with pytest.raises(ConfigError, match="nested too deeply"):
        protocol_from_dict(spec)


def test_unresolvable_wait_set_is_rejected():
    # After player 1's first bit, player 3 would have to wait on different
    # senders depending on a branch it cannot see.
    spec = {
        "name": "ambiguous-wait",
        "k": 3,
        "input_bits": [1, 1, 1],
        "tape_bits": {"private": [0, 0, 0], "public": 0},
        "tree": {
            "sender": 1, "receiver": 2, "msg_bits": 1,
            "message_table": {"0": "0", "1": "1"},
            "children": {
                "0": {
                    "sender": 1, "receiver": 3, "msg_bits": 1,
                    "message_table": {"0": "0", "1": "0"},
                    "children": {"0": {"outputs": ["0", "0", "0"]}},
                },
                "1": {
                    "sender": 2, "receiver": 3, "msg_bits": 1,
                    "message_table": {"0": "0", "1": "0"},
                    "children": {"0": {"outputs": ["0", "0", "0"]}},
                },
            },
        },
    }
    p = protocol_from_dict(spec)
    with pytest.raises(ModelViolationError, match="wait set"):
        run(p, ("0", "0", "0"))


def _hidden_root(child0, child1) -> dict:
    """Three players with 1-bit inputs; player 3 does not see the root
    1->2 message, so it cannot tell the root's two children apart."""
    return {
        "k": 3,
        "input_bits": [1, 1, 1],
        "tape_bits": {"private": [0, 0, 0], "public": 0},
        "tree": {
            "sender": 1, "receiver": 2, "msg_bits": 1,
            "message_table": {"0": "0", "1": "1"},
            "children": {"0": child0, "1": child1},
        },
    }


def _sends(sender, receiver, value):
    """A node where ``sender`` sends ``value`` whatever its input."""
    return {"sender": sender, "receiver": receiver, "msg_bits": 1,
            "message_table": {"0": value, "1": value},
            "children": {value: {"outputs": ["0", "0", "0"]}}}


@pytest.mark.parametrize("child0,child1,message", [
    (_sends(3, 1, "0"), {"outputs": ["0", "0", "0"]},
     "player 3 cannot tell whether it must send (mixed roles across "
     "indistinguishable branches)"),
    (_sends(3, 1, "0"), _sends(3, 1, "1"),
     "player 3 would send different messages on branches it cannot "
     "distinguish"),
    (_sends(1, 3, "0"), _sends(2, 3, "0"),
     "player 3 cannot form a wait set: possible senders [1, 2]"),
    ({"outputs": ["0", "0", "0"]}, {"outputs": ["0", "0", "1"]},
     "player 3 reached leaves with conflicting outputs"),
], ids=["send-or-halt", "two-messages", "two-senders", "two-outputs"])
def test_the_compiler_refuses_what_a_player_cannot_tell_apart(
        child0, child1, message):
    p = protocol_from_dict(_hidden_root(child0, child1))
    with pytest.raises(ModelViolationError) as info:
        run_all(p)
    assert str(info.value) == message


def test_output_written_exactly_once_with_early_determination():
    # Player 2's output is constant, so it writes in round 1 and the engine
    # would reject a second write; running to completion is the check.
    p = protocol_from_dict(second_bit_dict())
    for x in p.input_space():
        run(p, x)


# -- random k >= 3 trees --------------------------------------------------------


def _multiparty_draw(seed: int, valid: bool) -> dict:
    """Seeded k in {3, 4, 5} trees, some with private and public tape bits."""
    k = 3 + seed % 3 if valid else 3 + seed % 2
    depth = 3 + seed % 3 if valid else 2 + seed % 2
    private = tuple((seed >> j) & 1 for j in range(k)) if seed % 3 == 0 else None
    public = seed % 2 if seed % 5 == 0 else 0
    return helpers.random_multiparty_tree_dict(seed, k, depth, private,
                                               public, valid)


@pytest.mark.parametrize("seed", range(8))
def test_random_multiparty_trees_match_a_direct_walk(seed):
    spec = _multiparty_draw(seed, valid=True)
    table = run_all(protocol_from_dict(spec))
    for (x, privs, pub), e in table.items():
        outputs, links = helpers.walk_tree(spec, x, privs, pub)
        assert e.outputs == outputs
        sent = defaultdict(list)
        for m in sorted(e.messages, key=lambda m: m.link_index):
            sent[(m.sender, m.receiver)].append(m.content)
        assert sent == links


def _longest_path(node: dict) -> int:
    if "outputs" in node:
        return 0
    return 1 + max(_longest_path(c) for c in node["children"].values())


@pytest.mark.parametrize("valid", (False, True))
def test_local_round_bound_follows_the_longest_path(valid):
    for seed in range(40):
        spec = _multiparty_draw(seed, valid)
        d = _longest_path(spec["tree"])
        assert protocol_from_dict(spec).max_local_rounds == 2 * d + 4


def _outcome(p, x, privs, pub):
    try:
        e = run(p, x, privs, pub)
    except ProtoLabError as exc:
        return type(exc), str(exc)
    recs = [e.record(i) for i in p.players]
    return (e.outputs, [rec.reads for rec in recs],
            [rec.sends for rec in recs], e.patterns, e.messages)


@pytest.mark.parametrize("block", range(4))
def test_compiled_trees_match_the_reference_compiler(block):
    # Carrying the positions from round to round gives the rounds, or the
    # error, of re-walking the tree from the root with the whole history.
    kinds = set()
    for seed in range(40 * block, 40 * (block + 1)):
        for valid in (False, True):
            spec = _multiparty_draw(seed, valid)
            p = protocol_from_dict(spec)
            ref = helpers.reference_tree_protocol(spec)
            for x in p.input_space():
                for privs, pub in p.tape_space():
                    got = _outcome(p, x, privs, pub)
                    assert got == _outcome(ref, x, privs, pub)
                    kinds.add(got[0] if isinstance(got[0], type) else "ok")
                    if valid:
                        assert not isinstance(got[0], type), got
    assert kinds == {"ok", ModelViolationError, DeadlockError}
