"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from protolab.compression import (
    LcpBox,
    build_tree,
    compress_run,
    compression_theorem_check,
    is_coherent,
)
from protolab.info import apply_function, entropy, mutual_info
from protolab.measures import (
    InputDistribution,
    acc,
    cc,
    derandomize_zero_error,
    ic,
    pic,
    privacy_leakage,
    product_protocol,
    publicize,
    spy_info,
    sup_pic_grid,
    transcript_entropy,
)
from protolab.model import ObliviousStructure, is_oblivious, run_all, run_relaxed
from protolab.oblivious import obliviousize, truncation_mass
from protolab.treefile import protocol_from_dict
from protolab.zoo import get_entry, lift_entry

import helpers
from helpers import (
    and_mask_dict,
    masked_ping_dict,
    oracle_cond_entropy,
    oracle_ic_terms,
    oracle_bidirectional_ic_terms,
    oracle_pic,
    random_joint,
    relay3_dict,
    relay3_family,
)

TOL = 1e-9


def report(number: int, label: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def uniform(p):
    return InputDistribution.uniform(p)


def test_criterion_1_and_optimum():
    start = time.perf_counter()
    p = get_entry("and-opt").protocol
    mu_star = InputDistribution.independent_bits(Fraction(1, 3), Fraction(1, 2))
    exact_ok = abs(pic(p, mu_star) - math.log2(3)) <= TOL
    grid = sup_pic_grid(p, 0.001)
    grid_ok = (
        abs(grid.value - math.log2(3)) <= 1e-4
        and abs(float(grid.alpha) - 1 / 3) <= 0.01
        and abs(float(grid.beta) - 1 / 2) <= 0.01
    )
    elapsed = time.perf_counter() - start
    report(1, f"pic(and-opt, mu*) = log2(3) exactly ({elapsed:.1f}s)",
           exact_ok and grid_ok and elapsed < 10.0)


def test_criterion_2_ring_parity():
    ok = True
    for k, n in itertools.product((3, 4), (1, 2)):
        entry = get_entry("ring-parity", k=k, n=n)
        p = entry.protocol
        mu = uniform(p)
        ok &= abs(ic(p, mu) - n) <= TOL
        ok &= abs(privacy_leakage(p, mu, entry.family)) <= TOL
        te = transcript_entropy(p, mu)
        ok &= abs(te - n) <= TOL and te >= (k - 2) * n / k - TOL
        # Independent brute-force oracle over all 2^(nk+n) executions.
        ok &= abs(oracle_pic(p, mu) - k * n) <= TOL
        ok &= abs(pic(p, mu) - k * n) <= TOL
    report(2, "ring parity: ic=n, leakage=0, H(Pi|X)=n, pic=kn", ok)


def test_criterion_3_parity_tightness():
    ok = True
    for k, n in itertools.product((3, 4), (1, 2)):
        p = get_entry("star-parity", k=k, n=n).protocol
        mu = uniform(p)
        ok &= abs(pic(p, mu) - n * (k - 1)) <= TOL
        ok &= abs(spy_info(p, mu) - n * (k - 1)) <= TOL
    for name, params in (
        ("star-parity", {"k": 3, "n": 1}),
        ("star-parity", {"k": 4, "n": 2}),
        ("and-opt", {}),
        ("q-index", {"k": 3, "q": 1}),
        ("q-index", {"k": 3, "q": 2}),
    ):
        p = get_entry(name, **params).protocol
        mu = uniform(p)
        ok &= pic(p, mu) >= spy_info(p, mu) - TOL
    report(3, "star parity meets the n(k-1) bound; pic >= spy info", ok)


def test_criterion_4_ordering_sanity():
    ok = True
    for name, params in (
        ("ring-parity", {"k": 3, "n": 1}),
        ("ring-parity", {"k": 4, "n": 1}),
        ("star-parity", {"k": 3, "n": 1}),
        ("star-parity", {"k": 3, "n": 2}),
        ("and-opt", {}),
        ("q-index", {"k": 3, "q": 1}),
    ):
        p = get_entry(name, **params).protocol
        mu = uniform(p)
        received = oracle_ic_terms(p, mu)
        bidirectional = oracle_bidirectional_ic_terms(p, mu)
        for a, b in zip(received, bidirectional):
            ok &= abs(a - b) <= TOL
    report(4, "per player, IC from Pi equals IC from the bidirectional "
              "transcript", ok)


def test_criterion_5_publicization():
    ok = True
    cases = [get_entry("ring-parity", k=3, n=1).protocol]
    cases += [
        protocol_from_dict(build())
        for build in (masked_ping_dict, and_mask_dict)
    ]
    for p in cases:
        mu = uniform(p)
        pub = publicize(p)
        target = pic(p, mu)
        ok &= abs(pic(pub, mu) - target) <= TOL
        ok &= abs(ic(pub, mu) - target) <= TOL
        det, _seed = derandomize_zero_error(pub, mu)
        ok &= det.total_tape_bits == 0
        ok &= ic(det, mu) <= ic(pub, mu) + TOL
    report(5, "publicization preserves pic and equates it with ic; "
              "derandomization only improves", ok)


def _compression_cases():
    relay = protocol_from_dict(relay3_dict())
    return [
        (get_entry("and-opt").protocol, get_entry("and-opt").family),
        (get_entry("star-parity", k=3, n=1).protocol,
         get_entry("star-parity", k=3, n=1).family),
        (get_entry("star-parity", k=3, n=2).protocol,
         get_entry("star-parity", k=3, n=2).family),
        (relay, relay3_family()),
    ]


def test_criterion_6_compression_zero_error_and_stage_bound():
    start = time.perf_counter()
    ok = True
    for p, family in _compression_cases():
        struct = ObliviousStructure.build(p)
        mu = uniform(p)
        trees = {}
        for x in p.input_space():
            result = compress_run(
                p, mu, x, "", LcpBox(mode="exact"),
                structure=struct, trees=trees,
            )
            e = struct.table.get(x)
            truth = tuple(struct.transcript(e.record(i), i) for i in p.players)
            ok &= result.profile == truth
            # On these protocols a player's round order is the global one.
            ok &= truth == tuple(
                helpers.round_interleaved_transcript(e, i) for i in p.players
            )
        rep = compression_theorem_check(p, mu, 0.25, family)
        ok &= rep.measured_error == 0.0
        ok &= rep.expected_stages <= rep.ic_original + TOL
        # The sum of per-player transcript entropies given own input and
        # public coins coincides with ic, and it equals the expected
        # log-weight of the true leaves; the stage count is bounded by
        # that quantity pointwise, so only the inequality can be asserted
        # for E[stages] (the all-agree candidate can be found early).
        entropy_sum = sum(
            oracle_cond_entropy(
                [
                    (w, struct.transcript(e.record(i), i),
                     (e.inputs[i - 1], e.public_tape))
                    for w, e in helpers.enumerate_runs(p, mu)
                ]
            )
            for i in p.players
        )
        ok &= abs(entropy_sum - rep.ic_original) <= TOL
        ok &= abs(rep.expected_log_weight_bound - entropy_sum) <= TOL
        ok &= rep.expected_stages <= entropy_sum + TOL
    elapsed = time.perf_counter() - start
    report(6, f"compression is zero-error; E[stages] <= ic = "
              f"sum_i H(transcript_i | input_i, public) ({elapsed:.1f}s)",
           ok and elapsed < 60.0)


def test_criterion_7_coherent_profile_uniqueness():
    ok = True
    for p, _family in _compression_cases():
        struct = ObliviousStructure.build(p)
        mu = uniform(p)
        for x in p.input_space():
            candidate_sets = []
            for i in p.players:
                tree = build_tree(p, i, x[i - 1], "", mu, structure=struct)
                leaves = []

                def walk(node):
                    if node.is_leaf:
                        leaves.append(node.leaf_label)
                    else:
                        for child in node.children.values():
                            walk(child)

                walk(tree.root)
                candidate_sets.append(leaves)
            coherent = [
                profile
                for profile in itertools.product(*candidate_sets)
                if is_coherent(tuple(profile), p, struct)
            ]
            ok &= len(coherent) == 1
            # The one coherent profile is the true one, in global order,
            # which on these protocols is also each player's round order.
            e = struct.table.get(x)
            truth = tuple(struct.transcript(e.record(i), i) for i in p.players)
            ok &= coherent == [truth]
            ok &= truth == tuple(
                helpers.round_interleaved_transcript(e, i) for i in p.players
            )
    report(7, "exactly one coherent profile per input, exhaustively", ok)


def test_criterion_8_obliviousize():
    entry = get_entry("q-index", k=3, q=1)
    p = entry.protocol
    mu = uniform(p)
    eps = Fraction(1, 2)
    obl = obliviousize(p, mu, eps)
    oblivious_ok, _ = is_oblivious(obl)
    threshold = math.ceil(2 * acc(p, mu) / eps)
    mass = truncation_mass(p, mu, threshold)
    markov_ok = mass <= eps / 2
    old, new = run_all(p), run_all(obl)
    agree_ok = True
    for key, e in old.items():
        if e.total_bits < threshold:
            agree_ok &= new.get(*key).outputs == e.outputs
    report(8, "coordinator rewrite is oblivious, Markov bound exact, "
              "non-truncated runs agree", oblivious_ok and markov_ok and agree_ok)


def test_criterion_9_information_property_suite():
    start = time.perf_counter()
    rng = random.Random(2024)
    ok = True
    for t in range(200):
        d = random_joint(rng, n_vars=4)
        a, b, c, e = d.variables
        # Chain rule.
        ok &= abs(
            mutual_info(d, (a, b), c, e)
            - mutual_info(d, a, c, e)
            - mutual_info(d, b, c, (e, a))
        ) <= TOL
        # Symmetry and non-negativity.
        ok &= abs(mutual_info(d, a, b, c) - mutual_info(d, b, a, c)) <= TOL
        ok &= mutual_info(d, a, (b, c)) >= 0.0
        # Data processing on a random function of b.
        f = {v: f"g{rng.randrange(2)}" for v in sorted(d.marginal(b))}
        d2 = apply_function(d, b, f, "fb")
        ok &= (
            mutual_info(d2, a, "fb", c)
            <= mutual_info(d2, a, b, c) + TOL
        )
        # Conditioning monotonicity, premise-gated via constructed
        # variables: w1 = g(a, c) has I(b ; w1 | a c) = 0, and w2 = h(c)
        # has I(b ; w2 | c) = 0.
        g = {v: f"d{rng.randrange(2)}" for v in sorted(d.marginal((a, c)))}
        d3 = apply_function(d, (a, c), g, "w1")
        if mutual_info(d3, b, "w1", (a, c)) <= 1e-12:
            ok &= (
                mutual_info(d3, a, b, c)
                >= mutual_info(d3, a, b, (c, "w1")) - TOL
            )
        h = {v: f"e{rng.randrange(2)}" for v in sorted(d.marginal(c))}
        d4 = apply_function(d, c, h, "w2")
        if mutual_info(d4, b, "w2", c) <= 1e-12:
            ok &= (
                mutual_info(d4, a, b, c)
                <= mutual_info(d4, a, b, (c, "w2")) + TOL
            )
        # Entropy is at most the log support size.
        ok &= entropy(d, a) <= math.log2(len(d.counts(a))) + TOL
    elapsed = time.perf_counter() - start
    report(9, f"200 random distributions pass the identity suite "
              f"({elapsed:.1f}s)", ok and elapsed < 10.0)


def test_criterion_10_order_leak_demo():
    p = get_entry("order-leak").protocol
    runs = {x: run_relaxed(p, (x, "", "", "")) for x in ("0", "1")}
    contents_match = all(
        runs["0"].record(i).received == runs["1"].record(i).received
        for i in p.players
    )
    contents_match &= [m.content for m in runs["0"].messages] == [
        m.content for m in runs["1"].messages
    ]
    outputs_ok = runs["0"].outputs[1] == "0" and runs["1"].outputs[1] == "1"
    report(10, "identical content transcripts, yet player 2 outputs x",
           contents_match and outputs_ok)


def test_criterion_11_product_additivity():
    ok = True
    ring = get_entry("ring-parity", k=3, n=1)
    lifted = lift_entry(get_entry("and-opt"), 3)
    star = get_entry("star-parity", k=3, n=1)
    for left, right in ((ring, lifted), (star, star)):
        mu_l = uniform(left.protocol)
        mu_r = uniform(right.protocol)
        prod = product_protocol(left.protocol, right.protocol)
        mu2 = InputDistribution.product(mu_l, mu_r)
        ok &= abs(
            pic(prod, mu2) - pic(left.protocol, mu_l) - pic(right.protocol, mu_r)
        ) <= TOL
        ok &= abs(
            ic(prod, mu2) - ic(left.protocol, mu_l) - ic(right.protocol, mu_r)
        ) <= TOL
        ok &= cc(prod) == cc(left.protocol) + cc(right.protocol)
    report(11, "pic, ic, cc are additive over lot-parallel products", ok)
