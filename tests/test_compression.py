"""Tests for transcript trees, lcp boxes, the stage loop, and the
coordinator-phase conversion."""

import itertools
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from protolab import compression, lcp, model
from protolab.compression import (
    LcpBox,
    build_tree,
    compress_run,
    compression_theorem_check,
    distributional_error,
    is_coherent,
    lcp_exact,
)
from protolab.errors import (
    BudgetExceededError,
    ConfigError,
    NotObliviousError,
)
from protolab.lcp import lcp_randomized
from protolab.measures import (
    InputDistribution,
    acc,
    ic,
    product_protocol,
    publicize,
    weighted_executions,
)
from protolab.model import (
    ObliviousStructure,
    ProtocolDef,
    Round,
    bitstrings,
    is_oblivious,
    run_all,
)
from protolab.oblivious import obliviousize, truncation_mass
from protolab.treefile import protocol_from_dict
from protolab.zoo import FunctionFamily, get_entry

import helpers
from helpers import (
    oblivious_trees,
    oracle_cond_entropy,
    enumerate_runs,
    random_mu,
    reference_candidate_leaf,
    reference_height,
    reference_lcp_randomized,
    reference_profile_outputs,
    reference_replays,
    relay3_dict,
    relay3_family,
)

TOL = 1e-9


def uniform(p):
    return InputDistribution.uniform(p)


def compression_cases():
    relay = protocol_from_dict(relay3_dict())
    return [
        (get_entry("and-opt").protocol, get_entry("and-opt").family),
        (get_entry("star-parity", k=3, n=1).protocol,
         get_entry("star-parity", k=3, n=1).family),
        (get_entry("star-parity", k=3, n=2).protocol,
         get_entry("star-parity", k=3, n=2).family),
        (relay, relay3_family()),
    ]


# -- lcp boxes ----------------------------------------------------------------


def test_lcp_exact_examples():
    assert lcp_exact("0101", "0111") == 2
    assert lcp_exact("", "") is None
    assert lcp_exact("10", "1") == 1  # reported where the short string ends
    assert lcp_exact("0110", "0110") is None
    assert lcp_exact("", "0") == 0


def test_lcp_randomized_matches_exact_answers():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(0, 40)
        x = "".join(rng.choice("01") for _ in range(n))
        y = "".join(rng.choice("01") for _ in range(rng.randint(0, 40)))
        want = lcp_exact(x, y)
        got, _ = lcp_randomized(x, y, 1e-6, rng)
        assert got == want  # at this eps a miss would be astronomically odd


def test_lcp_randomized_matches_the_two_hash_oracle():
    # One parity per mask, of x ^ y, against one per string, and the masks
    # of tests at or below the first difference drawn in one call: the same
    # answers and communication, and the RNG in the same state after every
    # call, so randomized compress reports do not move.  Strings run past
    # two 32-bit words, so merged draws cover multi-word prefixes.
    draw = random.Random(29)
    rng, ref = random.Random(31), random.Random(31)
    for _ in range(300):
        x = "".join(draw.choice("01") for _ in range(draw.randint(0, 160)))
        if draw.random() < 0.5:
            cut = draw.randint(0, len(x))
            x_tail = "".join(draw.choice("01") for _ in range(len(x) - cut))
            y = x[:cut] + x_tail
        else:
            y = "".join(draw.choice("01") for _ in range(draw.randint(0, 160)))
        eps = draw.choice((0.5, 0.2, 0.05, 1e-3))
        got = lcp_randomized(x, y, eps, rng)
        assert got == reference_lcp_randomized(x, y, eps, ref)
        assert rng.getstate() == ref.getstate()


def test_lcp_randomized_equal_strings_never_err():
    rng = random.Random(21)
    for _ in range(200):
        s = "".join(rng.choice("01") for _ in range(rng.randint(0, 64)))
        assert lcp_randomized(s, s, 0.2, rng)[0] is None


def test_lcp_randomized_error_rate():
    # Adversarial pairs: difference in the last position, so every probe of
    # the binary search can collide.  10^5 trials; the measured error rate
    # must sit below eps plus three binomial sigmas.
    eps = 0.05
    trials = 100_000
    rng = random.Random(5)
    x = "0" * 64
    y = "0" * 63 + "1"
    bad = sum(
        1 for _ in range(trials) if lcp_randomized(x, y, eps, rng)[0] != 63
    )
    sigma = math.sqrt(eps * (1 - eps) / trials)
    assert bad / trials <= eps + 3 * sigma


def test_lcp_randomized_communication_bound():
    # Communication <= c * log2(n) * log2(log2(n)/eps) for n <= 2^10; the
    # fitted constant is reported through the assertion bound.
    rng = random.Random(6)
    eps = 0.01
    worst = 0.0
    for bits in (4, 16, 128, 1024):
        x = "0" * bits
        y = "0" * (bits - 1) + "1"
        _, comm = lcp_randomized(x, y, eps, rng)
        denom = math.log2(bits) * math.log2(max(math.log2(bits), 2) / eps)
        worst = max(worst, comm / denom)
    assert worst <= 3.0


def test_lcp_box_accounting():
    box = LcpBox(mode="exact")
    assert box.compare("0101", "0111") == 2
    assert box.calls == 1
    assert box.comm_bits > 0
    assert box._rng is None  # an exact box draws no randomness
    with pytest.raises(ConfigError):
        LcpBox(mode="quantum")
    for counter in ({"comm_bits": 1}, {"history": []}):
        with pytest.raises(TypeError):
            LcpBox(**counter)


def test_randomized_box_checks_its_rate_up_front():
    for eps in (2, 1, 0, -0.5, float("nan")):
        with pytest.raises(ConfigError, match="error rate"):
            LcpBox(mode="randomized", eps=eps)
        with pytest.raises(ConfigError, match="error rate"):
            lcp_randomized("01", "00", eps, random.Random(0))
    assert LcpBox(mode="randomized", eps=0.5).compare("01", "00") in (1, None)


def random_lcp_pair(rng: random.Random) -> tuple[str, str]:
    """Two strings of 0-160 bits: equal, one a prefix of the other, one
    empty, or first differing at an index that often lies past one or two
    32-bit words."""
    s = "".join(rng.choice("01") for _ in range(rng.randint(0, 160)))
    kind = rng.randrange(5)
    if kind == 0:
        pair = s, s
    elif kind == 1:
        pair = s, s[:rng.randint(0, len(s))]
    elif kind == 2:
        pair = s, ""
    else:
        d = rng.choice((rng.randint(0, 159), rng.randint(33, 159),
                        rng.randint(65, 159)))
        head = "".join(rng.choice("01") for _ in range(d))
        bit = rng.choice("01")
        tails = ("".join(rng.choice("01")
                         for _ in range(rng.randint(0, 159 - d)))
                 for _ in range(2))
        pair = tuple(head + b + t
                     for b, t in zip((bit, "10"[int(bit)]), tails))
    return pair if rng.random() < 0.5 else pair[::-1]


def test_draw_plans_match_the_box_they_replace():
    # For every seed, walking a history's draw plan gives the verdict of
    # replaying the history on a randomized box with that seed, at rates
    # where collisions are rare (1e-3) to common (0.3).
    rng = random.Random(22)
    verdicts = Counter()
    for _ in range(300):
        eps = rng.choice((1e-3, 0.05, 0.3))
        pairs = [random_lcp_pair(rng) for _ in range(rng.randint(1, 6))]
        history = [(x, y, lcp_exact(x, y)) for x, y in pairs]
        plan = lcp.draw_plan(history, eps)
        for _ in range(12):
            seed = rng.getrandbits(48)
            box = LcpBox(mode="randomized", eps=eps, seed=seed)
            want = reference_replays(box, history)
            assert lcp.plan_holds(plan, seed) == want, (history, eps, seed)
            verdicts[eps, want] += 1
    assert all(verdicts[eps, held] for eps in (0.05, 0.3)
               for held in (True, False)), verdicts


# -- transcript trees ----------------------------------------------------------


def test_build_tree_star_center_is_uniform():
    p = get_entry("star-parity", k=3, n=1).protocol
    tree = build_tree(p, 1, "0", "", uniform(p))
    leaves = []

    def walk(node):
        if node.is_leaf:
            leaves.append(node)
        else:
            for child in node.children.values():
                walk(child)

    walk(tree.root)
    assert len(leaves) == 4  # all pairs of peer inputs
    assert all(Fraction(leaf.weight, tree.root.weight) == Fraction(1, 4)
               for leaf in leaves)
    # The root holds the numerator of P[X_1 = "0"] over mu.den.
    assert tree.root.weight == 4
    assert tree.depth == 2


def test_build_tree_star_leaf_is_singleton():
    p = get_entry("star-parity", k=3, n=1).protocol
    tree = build_tree(p, 2, "1", "", uniform(p))
    assert tree.root.is_leaf
    assert tree.root.leaf_label == "1"
    assert tree.depth == 0


def test_build_tree_and_alice_conditional_weights():
    p = get_entry("and-opt").protocol
    mu = InputDistribution.independent_bits(Fraction(1, 3), Fraction(1, 4))
    tree = build_tree(p, 1, "1", "", mu)
    # Alice with x=1 sees Bob's reply = y: weights follow mu(Y | X=1).
    assert not tree.root.is_leaf
    weights = {
        node.leaf_label: Fraction(node.weight, tree.root.weight)
        for node in tree.root.children.values()
    }
    assert weights == {"10": Fraction(1, 4), "11": Fraction(3, 4)}
    assert tree.depth == 1


def test_build_tree_preconditions():
    ring = get_entry("ring-parity", k=3, n=1).protocol
    with pytest.raises(ConfigError, match="public-coin"):
        build_tree(ring, 1, "0", "", uniform(ring))
    q = get_entry("q-index", k=3, q=1).protocol
    with pytest.raises(NotObliviousError):
        build_tree(q, 1, "0", "", uniform(q))


def test_build_tree_rejects_a_wrong_length_public_tape():
    p = publicize(get_entry("ring-parity", k=3, n=1).protocol)
    assert p.public_tape_length == 1
    for tape in ("", "01", "x"):
        with pytest.raises(ValueError, match="public tape must have 1 bits"):
            build_tree(p, 1, "0", tape, uniform(p))


def ring_star_product():
    """publicize(ring-parity(3,1) x star-parity(3,1)) and its family: a
    player's input and output are its ring part, then its star part."""
    ring = get_entry("ring-parity", k=3, n=1)
    star = get_entry("star-parity", k=3, n=1)
    p = publicize(product_protocol(ring.protocol, star.protocol))

    def target(i):
        return lambda x: (ring.family.value(i, tuple(v[0] for v in x))
                          + star.family.value(i, tuple(v[1] for v in x)))

    return p, FunctionFamily("ring x star", tuple(map(target, p.players)))


def test_a_product_compresses_with_zero_error():
    # A product's rounds merge lots of both sides, so a player's
    # round-interleaved transcript can leave the global order; compression
    # reads the global order and recovers every profile.
    p, family = ring_star_product()
    struct = ObliviousStructure.build(p)
    mu = uniform(p)
    trees = {}
    off_order = 0
    for e in struct.table.values():
        x, pub = e.inputs, e.public_tape
        truth = tuple(struct.transcript(e.record(i), i) for i in p.players)
        off_order += truth != tuple(
            helpers.round_interleaved_transcript(e, i) for i in p.players
        )
        result = compress_run(p, mu, x, pub, LcpBox(mode="exact"),
                              structure=struct, trees=trees)
        assert result.profile == truth
        assert result.outputs == e.outputs
        assert result.stages <= result.log_weight_bound + TOL
    assert off_order > 0
    report = compression_theorem_check(p, mu, 0.25, family)
    assert report.measured_error == report.original_error == 0.0
    assert report.expected_stages == pytest.approx(2.5, abs=TOL)
    assert report.ic_original == pytest.approx(5.0, abs=TOL)


def test_random_oblivious_protocols_compress_exactly():
    # Seeded k = 3, 4 protocols; most exchange messages inside one lot, so
    # their round order is off the global order.  Every exact run returns
    # the true profile within its log-weight bound, and E[stages] <= ic.
    for seed in range(40):
        k = 3 + seed % 2
        p = publicize(helpers.random_table_protocol(
            seed, k, ticks=2, private=(1,) * k, public=0))
        struct = ObliviousStructure.build(p)
        mu = uniform(p)
        trees = {}
        rows, den = weighted_executions(p, mu)
        stages = 0
        for x, n, privs, pub, _ in rows:
            e = struct.table.get(x, privs, pub)
            result = compress_run(p, mu, x, pub, LcpBox(mode="exact"),
                                  structure=struct, trees=trees)
            assert result.profile == tuple(
                struct.transcript(e.record(i), i) for i in p.players), seed
            assert result.outputs == e.outputs, seed
            assert result.stages <= result.log_weight_bound + TOL, seed
            stages += n * result.stages
        assert stages / den <= ic(p, mu) + TOL, seed


def test_a_private_coin_protocol_is_refused_before_enumeration():
    # Unpublicized ring-parity(3,1) has 16 executions, more than the budget
    # of 4, yet every entry point names the missing public coins first.
    ring = get_entry("ring-parity", k=3, n=1)
    p, mu = ring.protocol, uniform(ring.protocol)
    with pytest.raises(BudgetExceededError):
        build_tree(publicize(p), 1, "0", "0", uniform(publicize(p)), budget=4)
    for call in (
        lambda: build_tree(p, 1, "0", "", mu, budget=4),
        lambda: compress_run(p, mu, ("0",) * 3, "", LcpBox(), budget=4),
        lambda: compression_theorem_check(p, mu, 0.1, ring.family, budget=4),
    ):
        with pytest.raises(ConfigError, match="public-coin"):
            call()


def test_leaves_carry_the_outputs_their_transcripts_yield():
    for p, _family in compression_cases():
        struct = ObliviousStructure.build(p)
        mu = uniform(p)
        for x in p.input_space():
            e = struct.table.get(x)
            truth = tuple(struct.transcript(e.record(i), i) for i in p.players)
            for i in p.players:
                tree = build_tree(p, i, x[i - 1], "", mu, structure=struct)
                assert sorted(tree.leaves) == sorted(leaves_of(tree))
                for t, leaf in tree.leaves.items():
                    profile = truth[: i - 1] + (t,) + truth[i:]
                    outputs = reference_profile_outputs(p, struct, x, "",
                                                        profile)
                    assert leaf.output == outputs[i - 1]


def test_candidate_leaf_rules():
    p = get_entry("star-parity", k=3, n=1).protocol
    tree = build_tree(p, 1, "0", "", uniform(p))
    # Uniform weights: ties all the way down the 0-branches.
    assert tree.root.candidate.leaf_label == "00"
    skewed = InputDistribution.from_weights(
        "skewed",
        {
            ("0", "0", "0"): Fraction(1, 8),
            ("0", "0", "1"): Fraction(1, 8),
            ("0", "1", "0"): Fraction(2, 8),
            ("0", "1", "1"): Fraction(4, 8),
        },
    )
    tree2 = build_tree(p, 1, "0", "", skewed)
    assert tree2.root.candidate.leaf_label == "11"
    leaf = tree2.root.candidate
    assert leaf.candidate is leaf


def nodes_of(node):
    yield node
    for child in node.children.values():
        yield from nodes_of(child)


def test_nodes_store_their_candidate_leaf_and_height():
    protocols = [p for p, _ in compression_cases()]
    protocols += [publicize(t) for t in oblivious_trees()]
    protocols.append(golden_case("obliviousized")[0])  # has uneven subtrees
    rng = random.Random(3)
    for p in protocols:
        struct = ObliviousStructure.build(p)
        for mu in (uniform(p), random_mu(rng, p)):
            own_inputs = {
                (i, x[i - 1])
                for x, w in mu.weights if w > 0
                for i in p.players
            }
            for i, own in sorted(own_inputs):
                for pub in bitstrings(p.public_tape_length):
                    tree = build_tree(p, i, own, pub, mu, structure=struct)
                    assert tree.depth == reference_height(tree.root)
                    for node in nodes_of(tree.root):
                        assert node.candidate is reference_candidate_leaf(node)
                        assert node.height == reference_height(node)
                        assert node.is_leaf or list(node.children) == ["0", "1"]


def test_tree_weights_and_log_bounds_match_the_fraction_oracle():
    # Integer node weights over the root's are the conditional law the
    # Fraction-based builder computed, and log_weight_bound is the same
    # double as its sum of log2(1 / weight).
    protocols = [p for p, _ in compression_cases()]
    protocols.append(golden_case("obliviousized")[0])
    protocols += [
        publicize(helpers.random_table_protocol(
            seed, 3 + seed % 2, ticks=1 + seed % 2,
            private=(seed % 2, 1, 0, 1)[:3 + seed % 2], public=0))
        for seed in range(6)
    ]
    rng = random.Random(5)
    for p in protocols:
        struct = ObliviousStructure.build(p)
        for mu in (uniform(p), random_mu(rng, p)):
            oracle = {}
            trees = {}
            for i in p.players:
                for own in sorted({x[i - 1] for x in mu.inputs}):
                    for pub in bitstrings(p.public_tape_length):
                        weights, reached = helpers.reference_tree_weights(
                            p, i, own, pub, mu)
                        tree = trees[(i, own, pub)] = build_tree(
                            p, i, own, pub, mu, structure=struct)
                        assert list(tree.leaves) == sorted(weights)
                        for t, leaf in tree.leaves.items():
                            assert (Fraction(leaf.weight, tree.root.weight)
                                    == weights[t]), (p.name, i, own, t)
                        assert [(x, leaf.leaf_label)
                                for x, leaf in tree.reached.items()] == list(
                                    reached.items())
                        oracle[(i, own, pub)] = weights, reached
            for x in mu.inputs:
                for pub in bitstrings(p.public_tape_length):
                    run = compress_run(p, mu, x, pub, LcpBox(mode="exact"),
                                       structure=struct, trees=trees)
                    expected = 0
                    for i in p.players:
                        weights, reached = oracle[(i, x[i - 1], pub)]
                        expected += math.log2(1 / weights[reached[x]])
                    assert run.log_weight_bound == expected, (p.name, x, pub)


# -- coherence ------------------------------------------------------------------


def test_true_profiles_are_coherent_and_flips_are_not():
    for p, _family in compression_cases():
        struct = ObliviousStructure.build(p)
        for x in p.input_space():
            e = struct.table.get(x)
            profile = tuple(
                struct.transcript(e.record(i), i) for i in p.players
            )
            assert is_coherent(profile, p, struct)
            flipped = list(profile)
            target = max(p.players, key=lambda i: len(profile[i - 1]))
            s = flipped[target - 1]
            flipped[target - 1] = s[:-1] + ("1" if s[-1] == "0" else "0")
            assert not is_coherent(tuple(flipped), p, struct)


def test_a_transcript_that_does_not_split_is_not_coherent():
    p = get_entry("star-parity", k=3, n=1).protocol
    struct = ObliviousStructure.build(p)
    e = struct.table.get(("0", "1", "1"))
    profile = tuple(struct.transcript(e.record(i), i) for i in p.players)
    assert is_coherent(profile, p, struct)
    t = profile[0]
    for broken, why in ((t[:-1], "unparseable at bit 1"),
                        (t + "0", "1 trailing bits")):
        with pytest.raises(ValueError, match=why):
            struct.parse_transcript(1, broken)
        assert not is_coherent((broken,) + profile[1:], p, struct)
    for wrong_count in (profile[:2], profile + ("0",)):
        with pytest.raises(ValueError, match="holds 3 transcripts"):
            is_coherent(wrong_count, p, struct)
    # Bits that start no codeword: player 1 sends 00 or 11, so player 2's
    # transcript 01 fits no word of the 2-bit codebook.
    p = protocol_from_dict({
        "k": 2, "input_bits": [1, 1],
        "tape_bits": {"private": [0, 0], "public": 0},
        "tree": {
            "sender": 1, "receiver": 2, "msg_bits": 2,
            "message_table": {"0": "00", "1": "11"},
            "children": {"00": {"outputs": ["0", "0"]},
                         "11": {"outputs": ["1", "1"]}},
        },
    })
    struct = ObliviousStructure.build(p)
    assert is_coherent(("11", "11"), p, struct)
    with pytest.raises(ValueError, match="unparseable at bit 0"):
        struct.parse_transcript(2, "01")
    assert not is_coherent(("00", "01"), p, struct)


def test_a_product_true_profile_is_coherent_and_a_truncated_one_is_not():
    p, _family = ring_star_product()
    struct = ObliviousStructure.build(p)
    for e in struct.table.values():
        profile = tuple(struct.transcript(e.record(i), i) for i in p.players)
        assert is_coherent(profile, p, struct)
        for i in p.players:
            broken = list(profile)
            broken[i - 1] = broken[i - 1][:-1]
            assert not is_coherent(tuple(broken), p, struct)


def leaves_of(tree):
    out = []

    def walk(node):
        if node.is_leaf:
            out.append(node.leaf_label)
        else:
            for child in node.children.values():
                walk(child)

    walk(tree.root)
    return out


def test_coherent_profile_uniqueness_exhaustive():
    for p, _family in compression_cases():
        struct = ObliviousStructure.build(p)
        mu = uniform(p)
        for x in p.input_space():
            trees = [
                build_tree(p, i, x[i - 1], "", mu, structure=struct)
                for i in p.players
            ]
            candidates = [leaves_of(t) for t in trees]
            count = sum(
                1
                for profile in itertools.product(*candidates)
                if is_coherent(tuple(profile), p, struct)
            )
            assert count == 1


# -- the stage loop --------------------------------------------------------------


def test_compress_run_recovers_every_profile_exactly():
    for p, _family in compression_cases():
        struct = ObliviousStructure.build(p)
        mu = uniform(p)
        trees = {}
        for x in p.input_space():
            box = LcpBox(mode="exact")
            result = compress_run(
                p, mu, x, "", box, structure=struct, trees=trees
            )
            e = struct.table.get(x)
            assert result.profile == tuple(
                struct.transcript(e.record(i), i) for i in p.players
            )
            # Per player: moves <= log2(1/weight of its true leaf) + 1.
            for i in p.players:
                tree = trees[(i, x[i - 1], "")]
                w = Fraction(tree.reached[x].weight, tree.root.weight)
                assert result.moves_per_player[i] <= math.log2(1 / w) + 1
            assert result.stages <= result.log_weight_bound + TOL


def test_expected_stage_count_bounded_by_ic():
    for p, family in compression_cases():
        struct = ObliviousStructure.build(p)
        mu = uniform(p)
        report = compression_theorem_check(p, mu, 0.25, family)
        assert report.measured_error == report.original_error == 0.0
        assert report.expected_stages <= report.ic_original + TOL
        # The expected log-weight of the true leaves is exactly
        # sum_i H(Pi_i<-> | X_i Rp), which the derivation chain identifies
        # with the internal information cost.
        assert report.expected_log_weight_bound == pytest.approx(
            report.ic_original, abs=TOL
        )
        entropy_sum = sum(
            oracle_cond_entropy(
                [
                    (w, struct.transcript(e.record(i), i),
                     (e.inputs[i - 1], e.public_tape))
                    for w, e in enumerate_runs(p, mu)
                ]
            )
            for i in p.players
        )
        assert entropy_sum == pytest.approx(report.ic_original, abs=TOL)
        assert report.ratio > 0


def test_star_numbers_match_hand_enumeration():
    p = get_entry("star-parity", k=3, n=1).protocol
    mu = uniform(p)
    by_moves = {}
    for x in p.input_space():
        result = compress_run(p, mu, x, "", LcpBox(mode="exact"))
        by_moves[x] = result.stages
    assert by_moves[("0", "0", "0")] == 0
    assert by_moves[("0", "1", "1")] == 2
    assert sum(by_moves.values()) / 8 == pytest.approx(1.0)


def test_and_opt_two_stage_bound():
    p = get_entry("and-opt").protocol
    mu = uniform(p)
    for x in p.input_space():
        result = compress_run(p, mu, x, "", LcpBox(mode="exact"))
        assert result.stages <= 2


def test_compress_run_with_randomized_boxes_union_bound():
    p = get_entry("star-parity", k=3, n=1).protocol
    family = get_entry("star-parity", k=3, n=1).family
    mu = uniform(p)
    report = compression_theorem_check(
        p, mu, 0.3, family, lcp_mode="randomized", seed=11, trials=6
    )
    assert report.eps_per_call is not None
    assert report.mean_lcp_calls * report.eps_per_call <= 0.3
    assert report.measured_error <= report.original_error + 0.3 + 1e-12


def test_compression_rejects_bad_inputs():
    p = get_entry("star-parity", k=3, n=1).protocol
    family = get_entry("star-parity", k=3, n=1).family
    with pytest.raises(ConfigError, match="delta"):
        compression_theorem_check(p, uniform(p), 0.0, family,
                                  lcp_mode="randomized")
    q = get_entry("q-index", k=3, q=1).protocol
    with pytest.raises(NotObliviousError):
        compression_theorem_check(
            q, uniform(q), 0.1, get_entry("q-index", k=3, q=1).family
        )
    ring = get_entry("ring-parity", k=3, n=1)
    with pytest.raises(ConfigError, match="public-coin"):
        compression_theorem_check(
            ring.protocol, uniform(ring.protocol), 0.1, ring.family
        )


def test_random_oblivious_trees_meet_the_exact_box_relations():
    # Exact boxes reproduce the protocol, and the expected number of moving
    # stages is at most ic, which equals the expected log-weight bound.
    for tree in oblivious_trees():
        p = publicize(tree)
        constant = FunctionFamily("constant", (lambda x: "0",) * p.k)
        report = compression_theorem_check(p, uniform(p), 0.25, constant)
        assert report.measured_error == report.original_error, p.name
        assert report.expected_stages <= report.ic_original + TOL, p.name
        assert report.expected_log_weight_bound == pytest.approx(
            report.ic_original, abs=TOL
        ), p.name


def test_a_protocol_that_sends_nothing_has_a_zero_bound():
    silent = protocol_from_dict({
        "name": "silent", "k": 2, "input_bits": [1, 1],
        "tape_bits": {"private": [0, 0], "public": 0},
        "tree": {"outputs": ["0", "0"]},
    })
    constant = FunctionFamily("constant", (lambda x: "0",) * 2)
    report = compression_theorem_check(silent, uniform(silent), 0.1, constant)
    assert report.cc_original == 0
    assert report.measured_error == 0.0
    assert report.bound_value == 0.0
    assert report.ratio is None


def test_publicized_ring_compresses():
    ring = get_entry("ring-parity", k=3, n=1)
    p = publicize(ring.protocol)
    mu = uniform(p)
    report = compression_theorem_check(p, mu, 0.25, ring.family)
    assert report.measured_error == 0.0
    assert report.expected_stages <= report.ic_original + TOL


def test_theorem_check_looks_true_executions_up_without_checking(monkeypatch):
    # The trees read each execution off the table by a key the table holds,
    # and compress_run reads none, so the argument check never runs.
    calls = [0]
    check = model._validate_run_args

    def counted(*args):
        calls[0] += 1
        return check(*args)

    monkeypatch.setattr(model, "_validate_run_args", counted)
    ring = get_entry("ring-parity", k=3, n=1)
    p = publicize(ring.protocol)
    report = compression_theorem_check(p, uniform(p), 0.25, ring.family)
    assert report.measured_error == 0.0
    assert calls[0] == 0


def test_theorem_check_reads_transcripts_only_in_tree_builds(monkeypatch):
    # compress_run takes the true leaves from its trees, so the check looks
    # no execution up, and only build_tree reads transcripts: one per
    # distinct final view of its owner that the tree covers.
    gets = []
    callers = Counter()
    get = model.ExecutionTable.get
    transcript = model.ObliviousStructure.transcript

    def counted_get(self, *args, **kwargs):
        gets.append(args)
        return get(self, *args, **kwargs)

    def counted_transcript(self, e, i):
        callers[sys._getframe(1).f_code.co_name] += 1
        return transcript(self, e, i)

    monkeypatch.setattr(model.ExecutionTable, "get", counted_get)
    monkeypatch.setattr(model.ObliviousStructure, "transcript",
                        counted_transcript)
    p, family = publicized_ring()
    report = compression_theorem_check(p, uniform(p), 0.1, family,
                                       lcp_mode="randomized", seed=1)
    assert report.to_dict() == COMPRESS_GOLDEN["randomized"]
    assert gets == []
    table = run_all(p)
    views = sum(len({id(e.nodes[i - 1]) for e in table.values()})
                for i in p.players)
    runs = len(table)
    assert views < p.k * runs  # executions share final views
    assert callers == {"build_tree": views}


def test_compress_run_rejects_inputs_and_tapes_off_the_domain():
    p, _family = publicized_ring()
    mu = uniform(p)
    struct = ObliviousStructure.build(p)
    x = ("0", "1", "1")
    for trees in (None, {}):
        compress_run(p, mu, x, "0", LcpBox(), structure=struct, trees=trees)
        for bad in (("0", "1", "2"), ("00", "1", "1"), x[:2], x + ("0",)):
            with pytest.raises(ValueError):
                compress_run(p, mu, bad, "0", LcpBox(), structure=struct,
                             trees=trees)
        for tape in ("", "01", "x"):
            with pytest.raises(ValueError, match="public tape"):
                compress_run(p, mu, x, tape, LcpBox(), structure=struct,
                             trees=trees)


def test_compress_run_refuses_a_tree_memo_built_under_another_law():
    # A memo tree's weights come from the law it was built under, so a run
    # under another law must not read it: it would report that law's bound.
    p = publicize(get_entry("star-parity", k=3, n=1).protocol)
    skewed = InputDistribution.from_weights(
        "skewed", {x: Fraction(n, 36)
                   for n, x in enumerate(sorted(p.input_space()), start=1)},
    )
    x = ("0", "1", "1")
    trees = {}
    memo = compress_run(p, uniform(p), x, "", LcpBox(), trees=trees)
    fresh = compress_run(p, skewed, x, "", LcpBox())
    assert fresh.log_weight_bound != memo.log_weight_bound
    with pytest.raises(ValueError, match="law 'uniform', not under 'skewed'"):
        compress_run(p, skewed, x, "", LcpBox(), trees=trees)
    assert all(tree.mu == uniform(p) for tree in trees.values())
    # An equal law, not the same object, reads the memo.
    again = compress_run(p, uniform(p), x, "", LcpBox(), trees=trees)
    assert again.log_weight_bound == memo.log_weight_bound
    skewed_trees = {}
    compress_run(p, skewed, x, "", LcpBox(), trees=skewed_trees)
    rerun = compress_run(p, skewed, x, "", LcpBox(), trees=skewed_trees)
    assert rerun.log_weight_bound == fresh.log_weight_bound


class OneSidedBox(LcpBox):
    """Answers as ``lcp_randomized`` may: never below the first difference
    d, a seeded draw in [d, shorter length], and None ("equal") when the
    draw reaches both lengths."""

    def compare(self, x, y):
        answer = d = lcp_exact(x, y)
        if d is not None:
            draw = self._rng.randint(d, min(len(x), len(y)))
            answer = None if draw == len(x) == len(y) else draw
        self.history.append((x, y, answer))
        return answer


def prefix_code_protocol():
    """Player 1 sends its input as one of the prefix-free words 0, 10, 11
    and player 2 answers with its bit, so the two candidate conversations
    of the pair can differ in length."""
    words = {"00": "0", "01": "10", "10": "11", "11": "11"}

    def first(view):
        if view.round == 1:
            return Round(sends=((2, words[view.input]),), waits=(2,))
        return Round(output=view.received[0][1], halt=True)

    def second(view):
        if view.round == 1:
            return Round(waits=(1,))
        return Round(sends=((1, view.input),),
                     output=view.received[0][1][0], halt=True)

    return ProtocolDef(
        name="prefix-code", k=2,
        input_domains=(tuple(words), ("0", "1")),
        output_domains=(("0", "1"), ("0", "1")),
        private_tape_lengths=(0, 0), public_tape_length=0,
        programs=(first, second), max_local_rounds=3,
    )


def test_a_box_that_never_undershoots_meets_no_model_check():
    # Such a box derails stages and often ends on a wrong profile, but the
    # model checks compress_run keeps for every box (the winning pair owns
    # q_min, the moving weight halves) are out of its reach.
    protocols = [
        publicize(get_entry("star-parity", k=3, n=2).protocol),
        publicize(get_entry("ring-parity", k=3, n=2).protocol),
        get_entry("and-opt").protocol,
        golden_case("obliviousized")[0],
        prefix_code_protocol(),
    ]
    runs = wrong = 0
    for p in protocols:
        mu = uniform(p)
        struct = ObliviousStructure.build(p)
        trees = {}
        for seed in range(10):
            for x in p.input_space():
                for pub in bitstrings(p.public_tape_length):
                    result = compress_run(
                        p, mu, x, pub, OneSidedBox("randomized", seed=seed),
                        structure=struct, trees=trees,
                    )
                    truth = tuple(trees[(i, x[i - 1], pub)].reached[x]
                                  for i in p.players)
                    runs += 1
                    wrong += result.profile != tuple(
                        leaf.leaf_label for leaf in truth
                    )
    assert runs == 10 * (64 + 256 + 4 + 8 + 8)
    assert 0 < wrong < runs


# -- obliviousize -----------------------------------------------------------------


def test_obliviousize_q_index():
    entry = get_entry("q-index", k=3, q=1)
    p = entry.protocol
    mu = uniform(p)
    eps = Fraction(1, 2)
    obl = obliviousize(p, mu, eps)
    ok, witness = is_oblivious(obl)
    assert ok, witness
    threshold = math.ceil(2 * acc(p, mu) / eps)
    mass = truncation_mass(p, mu, threshold)
    assert mass <= eps / 2
    assert mass == 0
    table_old = run_all(p)
    table_new = run_all(obl)
    for x in p.input_space():
        assert table_new.get(x).outputs == table_old.get(x).outputs
    assert distributional_error(obl, mu, entry.family) <= eps


def test_obliviousize_per_phase_communication():
    entry = get_entry("q-index", k=3, q=1)
    p = entry.protocol
    mu = uniform(p)
    obl = obliviousize(p, mu, Fraction(1, 2))
    phases = (obl.max_local_rounds - 2) // 2
    worst = max(e.total_bits for e in run_all(obl).values())
    per_phase = worst / phases
    k = p.k
    assert per_phase <= 10 * k * math.log2(k)


def test_obliviousize_validates_eps():
    p = get_entry("q-index", k=3, q=1).protocol
    with pytest.raises(ConfigError):
        obliviousize(p, uniform(p), 0)
    with pytest.raises(ConfigError):
        obliviousize(p, uniform(p), 2)


def test_obliviousize_budget_caps_local_rounds():
    p = get_entry("q-index", k=3, q=1).protocol
    mu = uniform(p)
    # acc = 2 bits, so eps = 1/2 makes 8 phases: 18 local rounds.
    assert obliviousize(p, mu, Fraction(1, 2), budget=18).max_local_rounds == 18
    with pytest.raises(BudgetExceededError, match="18 local rounds") as err:
        obliviousize(p, mu, Fraction(1, 2), budget=17)
    assert err.value.unit == "local rounds"
    # No budget caps them at 2^64: 400000 phases are built (and not run).
    wide = obliviousize(p, mu, Fraction(1, 100000), budget=None)
    assert wide.max_local_rounds == 800002


def test_obliviousize_then_compress_end_to_end():
    entry = get_entry("q-index", k=3, q=1)
    mu = uniform(entry.protocol)
    obl = obliviousize(entry.protocol, mu, Fraction(1, 2))
    report = compression_theorem_check(obl, mu, 0.2, entry.family)
    assert report.measured_error == 0.0
    assert report.expected_stages <= report.ic_original + TOL


def test_obliviousize_ring_with_private_tape():
    # The conversion must carry private tapes through untouched.
    entry = get_entry("ring-parity", k=3, n=1)
    mu = uniform(entry.protocol)
    obl = obliviousize(entry.protocol, mu, Fraction(1, 2))
    assert is_oblivious(obl)[0]
    assert obl.private_tape_lengths == entry.protocol.private_tape_lengths
    table_old = run_all(entry.protocol)
    table_new = run_all(obl)
    for key, e_old in table_old.items():
        assert table_new.get(*key).outputs == e_old.outputs


@pytest.mark.parametrize("case", ["ring-parity", 0, 1, 2])
def test_obliviousize_reassembles_multi_bit_messages(case):
    # The replays split forwarded bits into 2-bit (and 1-bit) messages.
    if case == "ring-parity":
        p = get_entry("ring-parity", k=3, n=2).protocol
    else:
        p = helpers.random_table_protocol(case, 3, ticks=2, private=(1, 0, 1),
                                          public=0)
    table_old = run_all(p)
    assert any(len(w) == 2 for book in table_old.codebooks.values()
               for w in book)
    obl = obliviousize(p, uniform(p), Fraction(1, 2))
    ok, witness = is_oblivious(obl)
    assert ok, witness
    phases = (obl.max_local_rounds - 2) // 2
    table_new = run_all(obl)
    below = {key: e.outputs for key, e in table_old.items()
             if e.total_bits < phases}
    assert below
    for key, outputs in below.items():
        assert table_new.get(*key).outputs == outputs


def test_trace_format_is_line_oriented():
    from protolab.compression import format_trace

    p = get_entry("star-parity", k=3, n=1).protocol
    mu = uniform(p)
    result = compress_run(p, mu, ("0", "1", "1"), "", LcpBox(mode="exact"))
    text = format_trace(result)
    lines = text.strip().splitlines()
    assert len(lines) == result.total_stages
    assert lines[0].startswith("stage 1: Q=")
    assert "coherent" in lines[-1]
    assert any("moves" in line for line in lines[:-1])


def test_randomized_boxes_with_absurd_error_rates_degrade_gracefully():
    # Near-coin-flip boxes derail stages constantly; runs must terminate
    # and return *some* profile rather than crash, and with a sane rate
    # the wrong-profile fraction should track the union bound.
    import random as _random

    p = protocol_from_dict(relay3_dict())
    mu = uniform(p)
    struct = ObliviousStructure.build(p)
    trees = {}
    rng = _random.Random(0)
    for _ in range(150):
        x = tuple(rng.choice("01") for _ in range(3))
        box = LcpBox(mode="randomized", eps=0.49, seed=rng.getrandbits(40))
        result = compress_run(p, mu, x, "", box, structure=struct,
                              trees=trees)
        assert len(result.profile) == 3
    wrong = 0
    for _ in range(300):
        x = tuple(rng.choice("01") for _ in range(3))
        box = LcpBox(mode="randomized", eps=0.005, seed=rng.getrandbits(40))
        result = compress_run(p, mu, x, "", box, structure=struct,
                              trees=trees)
        e = struct.table.get(x)
        truth = tuple(struct.transcript(e.record(i), i) for i in p.players)
        wrong += result.profile != truth
    assert wrong / 300 <= 0.05


# -- golden pins and work counts ---------------------------------------------------


def publicized_ring():
    ring = get_entry("ring-parity", k=3, n=1)
    return publicize(ring.protocol), ring.family


def golden_case(name):
    if name == "star":
        star = get_entry("star-parity", k=3, n=1)
        return publicize(star.protocol), star.family, "exact"
    if name == "obliviousized":
        q = get_entry("q-index", k=3, q=1)
        obl = obliviousize(q.protocol, uniform(q.protocol), Fraction(1, 2))
        return publicize(obl), q.family, "exact"
    return (*publicized_ring(), "randomized")


# Recorded before each leaf carried its parsed conversations and output;
# the randomized case errs on some runs, so wrong profiles are pinned too.
COMPRESS_GOLDEN = {
    "star": {
        "report": "compress", "protocol": "star-parity(k=3,n=1)",
        "distribution": "uniform", "lcp_mode": "exact", "delta": 0.1,
        "eps_per_call": None, "original_error": 0.0, "measured_error": 0.0,
        "acc_original": 2.0, "acc_compressed": 48.0, "cc_original": 2,
        "ic_original": 2.0, "expected_stages": 1.0,
        "expected_total_stages": 2.0, "expected_log_weight_bound": 2.0,
        "bound_value": 134.853355734, "ratio": 0.355942199,
        "mean_lcp_calls": 4.0, "max_lcp_calls": 6, "ties_seen": 0,
    },
    "obliviousized": {
        "report": "compress",
        "protocol": "obliviousize(q-index(k=3,q=1),eps=1/2)",
        "distribution": "uniform", "lcp_mode": "exact", "delta": 0.1,
        "eps_per_call": None, "original_error": 0.0, "measured_error": 0.0,
        "acc_original": 58.5, "acc_compressed": 194.25, "cc_original": 62,
        "ic_original": 3.5, "expected_stages": 1.75,
        "expected_total_stages": 2.75, "expected_log_weight_bound": 3.5,
        "bound_value": 2039.330791999, "ratio": 0.095251835,
        "mean_lcp_calls": 5.5, "max_lcp_calls": 10, "ties_seen": 0,
    },
    "randomized": {
        "report": "compress", "protocol": "publicize(ring-parity(k=3,n=1))",
        "distribution": "uniform", "lcp_mode": "randomized", "delta": 0.1,
        "eps_per_call": 0.004166667, "original_error": 0.0,
        "measured_error": 0.0078125, "acc_original": 3.0,
        "acc_compressed": 90.0, "cc_original": 3, "ic_original": 3.0,
        "expected_stages": 1.5, "expected_total_stages": 2.5,
        "expected_log_weight_bound": 3.0, "bound_value": 374.073555551,
        "ratio": 0.240594393, "mean_lcp_calls": 7.5, "max_lcp_calls": 12,
        "ties_seen": 0,
    },
}


@pytest.mark.parametrize("name", sorted(COMPRESS_GOLDEN))
def test_compress_report_golden_pin(name):
    p, family, mode = golden_case(name)
    report = compression_theorem_check(p, uniform(p), 0.1, family,
                                       lcp_mode=mode, seed=1)
    assert report.to_dict() == COMPRESS_GOLDEN[name]


def test_randomized_run_outputs_match_a_replay_of_their_profiles(monkeypatch):
    p, family = publicized_ring()
    struct = ObliviousStructure.build(p)
    runs = []
    original = compression.compress_run

    def recording(p, mu, inputs, public_tape, box, *args, **kwargs):
        result = original(p, mu, inputs, public_tape, box, *args, **kwargs)
        if box.mode == "randomized":
            runs.append((inputs, public_tape, result))
        return result

    monkeypatch.setattr(compression, "compress_run", recording)
    mu = uniform(p)
    report = compression_theorem_check(p, mu, 0.1, family,
                                       lcp_mode="randomized", seed=1)
    assert report.measured_error > 0  # some runs end on a wrong profile
    for x, pub, result in runs:
        assert result.outputs == reference_profile_outputs(
            p, struct, x, pub, result.profile
        )
    # A trial runs compress_run only when its box meets a wrong answer,
    # i.e. when its full run on the same seed leaves the exact run's calls.
    rng = random.Random(1)
    trees = {}
    rows = list(weighted_executions(p, mu)[0])
    met_wrong = 0
    for x, _, _, pub, _ in rows:
        exact = LcpBox(mode="exact")
        original(p, mu, x, pub, exact, structure=struct, trees=trees)
        for _ in range(8):
            box = LcpBox(mode="randomized", eps=report.eps_per_call,
                         seed=rng.getrandbits(48))
            original(p, mu, x, pub, box, structure=struct, trees=trees)
            met_wrong += box.history != exact.history
    assert 0 < len(runs) == met_wrong < 8 * len(rows)


def test_randomized_trials_call_boxes_only_in_fallback_runs(monkeypatch):
    # Trials walk draw plans, so every randomized lcp call comes from a
    # compress_run of a trial that met a wrong answer.
    depth, calls = [0], Counter()
    run, randomized = compression.compress_run, lcp.lcp_randomized

    def counted_run(*args, **kwargs):
        depth[0] += 1
        try:
            return run(*args, **kwargs)
        finally:
            depth[0] -= 1

    def counted_randomized(*args):
        calls["inside" if depth[0] else "outside"] += 1
        return randomized(*args)

    monkeypatch.setattr(compression, "compress_run", counted_run)
    monkeypatch.setattr(lcp, "lcp_randomized", counted_randomized)
    p, family = publicized_ring()
    report = compression_theorem_check(p, uniform(p), 0.1, family,
                                       lcp_mode="randomized", seed=1)
    assert report.to_dict() == COMPRESS_GOLDEN["randomized"]
    assert calls["outside"] == 0 and calls["inside"] > 0, calls


@pytest.mark.parametrize("case", ["ring", "star", "relay3", "coarse-rate"])
def test_randomized_error_matches_a_full_run_per_trial(case):
    # The planned trials report exactly what running every trial through
    # compress_run reports; at eps_call = 0.3 many trials fall back.
    seed, trials, delta, eps_call = 1, 8, 0.1, None
    if case == "star":
        star = get_entry("star-parity", k=3, n=1)
        p, family = star.protocol, star.family
        seed, trials, delta = 11, 6, 0.3
    elif case == "relay3":
        p, family = protocol_from_dict(relay3_dict()), relay3_family()
    else:
        p, family = publicized_ring()
        if case == "coarse-rate":
            eps_call = 0.3
    mu = uniform(p)
    report = compression_theorem_check(
        p, mu, delta, family, lcp_mode="randomized", seed=seed,
        trials=trials, eps_call=eps_call,
    )
    assert report.measured_error == helpers.reference_randomized_error(
        p, mu, delta, family, seed=seed, trials=trials, eps_call=eps_call
    )
    if case in ("ring", "coarse-rate"):
        assert report.measured_error > 0


def test_theorem_check_refuses_a_bad_mode_or_rate_before_enumeration(
        monkeypatch):
    calls = Counter()
    for module, name in ((compression, "compress_run"), (model, "run_all")):
        def counted(*args, _original=getattr(module, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    star = get_entry("star-parity", k=4, n=2)
    p = publicize(star.protocol)
    for kwargs in ({"lcp_mode": "randomized", "eps_call": 2.0},
                   {"lcp_mode": "randomized", "eps_call": 0.0},
                   {"lcp_mode": "exact", "eps_call": float("nan")}):
        with pytest.raises(ConfigError, match="error rate"):
            compression_theorem_check(p, uniform(p), 0.1, star.family,
                                      **kwargs)
    with pytest.raises(ConfigError, match="unknown lcp mode"):
        compression_theorem_check(p, uniform(p), 0.1, star.family,
                                  lcp_mode="bogus")
    assert calls == Counter()


def test_theorem_check_parses_each_leaf_once(monkeypatch):
    p, family = publicized_ring()
    mu = uniform(p)
    struct = ObliviousStructure.build(p)
    expected = Counter()
    for i in p.players:
        for own in p.input_domain(i):
            for pub in bitstrings(p.public_tape_length):
                tree = build_tree(p, i, own, pub, mu, structure=struct)
                expected.update((i, t) for t in leaves_of(tree))
    calls = Counter()
    original = ObliviousStructure.parse_transcript

    def counting(self, i, t):
        calls[(i, t)] += 1
        return original(self, i, t)

    monkeypatch.setattr(ObliviousStructure, "parse_transcript", counting)
    compression_theorem_check(p, mu, 0.1, family, lcp_mode="randomized",
                              seed=1)
    assert calls == expected
