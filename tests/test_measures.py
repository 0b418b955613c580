"""Tests for the complexity measures and protocol transformations."""

import dataclasses
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from protolab import cli, measures
from protolab.errors import BudgetExceededError, ConfigError, InvariantError
from protolab.info import apply_function, entropy, mutual_info
from protolab.measures import (
    TOLERANCE,
    InputDistribution,
    MeasureReport,
    acc,
    build_joint,
    cc,
    derandomize_zero_error,
    ic,
    measure_protocol,
    pic,
    pic_decomposition,
    privacy_leakage,
    privacy_terms,
    product_protocol,
    public_seed_scores,
    publicize,
    report_float,
    spy_info,
    sup_pic_grid,
    transcript_entropy,
    weighted_executions,
)
from protolab.model import ProtocolDef, is_oblivious, run, run_all
from protolab.oblivious import obliviousize
from protolab.treefile import protocol_from_dict
from protolab.zoo import get_entry, lift_entry

import helpers
from helpers import (
    and_mask_dict,
    masked_ping_dict,
    oracle_ic,
    oracle_pic,
    oracle_privacy_leakage,
    oracle_spy_info,
    oracle_transcript_entropy,
    random_mu,
    second_bit_dict,
    split_public_tape,
)

TOL = 1e-9


def uniform(p):
    return InputDistribution.uniform(p)


MEASURED_ZOO = [
    ("ring-parity", {"k": 3, "n": 1}),
    ("ring-parity", {"k": 4, "n": 1}),
    ("star-parity", {"k": 3, "n": 1}),
    ("star-parity", {"k": 3, "n": 2}),
    ("and-opt", {}),
    ("q-index", {"k": 3, "q": 1}),
]


# -- basic measure values versus independent oracles -------------------------


@pytest.mark.parametrize("name,params", MEASURED_ZOO)
def test_measures_agree_with_brute_force_oracles(name, params):
    entry = get_entry(name, **params)
    p = entry.protocol
    mu = uniform(p)
    assert ic(p, mu) == pytest.approx(oracle_ic(p, mu), abs=TOL)
    assert pic(p, mu) == pytest.approx(oracle_pic(p, mu), abs=TOL)
    assert transcript_entropy(p, mu) == pytest.approx(
        oracle_transcript_entropy(p, mu), abs=TOL
    )
    assert spy_info(p, mu) == pytest.approx(oracle_spy_info(p, mu), abs=TOL)
    if entry.family is not None:
        assert privacy_leakage(p, mu, entry.family) == pytest.approx(
            oracle_privacy_leakage(p, mu, entry.family), abs=TOL
        )


@pytest.mark.parametrize("name,params", MEASURED_ZOO)
def test_build_joint_family_columns_match_apply_function(name, params):
    entry = get_entry(name, **params)
    p = entry.protocol
    mu = random_mu(random.Random(name), p)
    want = build_joint(p, mu, None)
    xs = [f"x{i}" for i in p.players]
    for i in p.players:
        want = apply_function(
            want, xs, lambda key, i=i: entry.family.value(i, key), f"f{i}"
        )
    got = build_joint(p, mu, entry.family)
    assert (got.variables, got.rows, got.nums, got.den) == (
        want.variables, want.rows, want.nums, want.den
    )


def _assert_keeps_fields(child, parent, changed):
    """Every field of child but those named in changed equals parent's."""
    for f in dataclasses.fields(ProtocolDef):
        if f.name not in changed:
            assert getattr(child, f.name) == getattr(parent, f.name), f.name


def test_derived_protocols_keep_the_fields_they_do_not_change():
    tapes = ("name", "private_tape_lengths", "public_tape_length", "programs")
    ring = get_entry("ring-parity", k=3, n=1)
    for p in (ring.protocol, protocol_from_dict(masked_ping_dict())):
        _assert_keeps_fields(publicize(p), p, tapes)
    pub = publicize(ring.protocol)
    det, _ = derandomize_zero_error(pub, uniform(pub), ring.family)
    _assert_keeps_fields(det, pub, ("name", "public_tape_length", "programs"))
    q = get_entry("q-index", k=3, q=1).protocol
    _assert_keeps_fields(
        obliviousize(q, uniform(q), Fraction(1, 2)), q,
        ("name", "output_domains", "programs", "max_local_rounds"),
    )
    for name, k in (("and-opt", 3), ("order-leak", 5)):
        entry = get_entry(name)
        _assert_keeps_fields(
            lift_entry(entry, k).protocol, entry.protocol,
            ("name", "k", "input_domains", "output_domains",
             "private_tape_lengths", "programs"),
        )


def test_cc_values():
    assert cc(get_entry("ring-parity", k=3, n=2).protocol) == 6
    assert cc(get_entry("star-parity", k=4, n=1).protocol) == 3
    assert cc(get_entry("and-opt").protocol) == 2
    assert cc(get_entry("q-index", k=3, q=2).protocol) == 4


def test_acc_values():
    andp = get_entry("and-opt").protocol
    assert acc(andp, uniform(andp)) == Fraction(2)
    ring = get_entry("ring-parity", k=3, n=1).protocol
    assert acc(ring, uniform(ring)) == Fraction(3)
    tree = protocol_from_dict(second_bit_dict())
    assert acc(tree, uniform(tree)) == Fraction(3, 2)


def test_joint_dist_shape():
    p = get_entry("ring-parity", k=3, n=1).protocol
    mu = uniform(p)
    d = build_joint(p, mu)
    assert sum(w for _, w in d.outcomes) == 1
    # The pad makes player 2's received transcript uniform given the inputs.
    for x, _ in mu.weights:
        cond = d.condition({f"x{i}": x[i - 1] for i in (1, 2, 3)})
        pi2 = cond.marginal("pi2")
        assert set(pi2.values()) == {Fraction(1, 2)}
    # Deterministic protocol: transcripts are functions of the inputs.
    s = get_entry("star-parity", k=3, n=1).protocol
    ds = build_joint(s, uniform(s))
    for key in ("pi1", "pi2", "pi3", "pi"):
        assert mutual_info(ds, ("x1", "x2", "x3"), key) == pytest.approx(
            entropy(ds, key), abs=TOL
        )


def test_expected_zoo_values():
    ring = get_entry("ring-parity", k=3, n=1)
    mu = uniform(ring.protocol)
    assert ic(ring.protocol, mu) == pytest.approx(1.0, abs=TOL)
    assert pic(ring.protocol, mu) == pytest.approx(3.0, abs=TOL)
    assert pic_decomposition(ring.protocol, mu) == pytest.approx(
        (1.0, 2.0), abs=TOL
    )
    assert transcript_entropy(ring.protocol, mu) == pytest.approx(1.0, abs=TOL)
    assert privacy_leakage(ring.protocol, mu, ring.family) == pytest.approx(
        0.0, abs=TOL
    )
    # A wiretapper of a relay player XORs the message it received with the
    # one it forwarded and recovers that player's input, so the ring leaks
    # one bit per player other than player 1 to link observers.
    assert spy_info(ring.protocol, mu) == pytest.approx(2.0, abs=TOL)

    star = get_entry("star-parity", k=3, n=1)
    mus = uniform(star.protocol)
    assert pic(star.protocol, mus) == pytest.approx(2.0, abs=TOL)
    assert ic(star.protocol, mus) == pytest.approx(2.0, abs=TOL)
    assert spy_info(star.protocol, mus) == pytest.approx(2.0, abs=TOL)
    assert privacy_leakage(star.protocol, mus, star.family) > 0.0
    assert transcript_entropy(star.protocol, mus) == pytest.approx(0.0, abs=TOL)


def test_and_opt_pic_at_the_optimum():
    p = get_entry("and-opt").protocol
    mu_star = InputDistribution.independent_bits(Fraction(1, 3), Fraction(1, 2))
    assert pic(p, mu_star) == pytest.approx(math.log2(3), abs=TOL)
    mu_u = uniform(p)
    assert ic(p, mu_u) == pytest.approx(pic(p, mu_u), abs=TOL)


def test_deterministic_protocols_have_zero_random_term():
    for name, params in (("star-parity", {"k": 3, "n": 1}), ("and-opt", {})):
        p = get_entry(name, **params).protocol
        ic_term, rnd = pic_decomposition(p, uniform(p))
        assert rnd == pytest.approx(0.0, abs=TOL)


def test_pic_bounded_by_cc_over_random_distributions():
    # The communication bound on pic needs each player's set of possible
    # transcripts to be prefix-free (that is what turns entropy into
    # expected length).  Protocols that leave a player blocked in a wait
    # forever break that premise, so q-index with q < k-1 is excluded here
    # and covered by the counterexample test below.
    rng = random.Random(42)
    for name, params in MEASURED_ZOO:
        p = get_entry(name, **params).protocol
        if name == "q-index" and params["q"] < params["k"] - 1:
            continue
        worst = cc(p)
        for t in range(8):
            mu = random_mu(rng, p, name=f"rand{t}")
            value = pic(p, mu)
            assert value <= worst + TOL
            assert ic(p, mu) <= value + TOL


def test_ic_at_most_pic_everywhere():
    rng = random.Random(43)
    for name, params in MEASURED_ZOO:
        p = get_entry(name, **params).protocol
        for t in range(5):
            mu = random_mu(rng, p, name=f"rand{t}")
            assert ic(p, mu) <= pic(p, mu) + TOL


def test_blocked_wait_protocols_can_beat_the_communication_bound():
    # q-index leaves unqueried players waiting forever; the *absence* of a
    # ping is itself informative, the per-player transcript supports are
    # not prefix-free ("" prefixes "0"), and pic legitimately exceeds cc.
    p = get_entry("q-index", k=3, q=1).protocol
    mu = uniform(p)
    assert cc(p) == 2
    assert pic(p, mu) == pytest.approx(3.0, abs=TOL)
    assert oracle_pic(p, mu) == pytest.approx(3.0, abs=TOL)


def test_fifty_random_distributions_on_one_protocol():
    rng = random.Random(7)
    p = get_entry("ring-parity", k=3, n=1).protocol
    bound = cc(p)
    for t in range(50):
        # What random_mu(rng, p, name=f"r{t}") returns, with its weights.
        weights = helpers.random_weights(rng, p)
        mu = InputDistribution.from_weights(f"r{t}", weights)
        assert_exact_law(mu, weights, p)
        assert pic(p, mu) <= bound + TOL


def test_received_and_bidirectional_ic_agree_per_player():
    for name, params in MEASURED_ZOO:
        p = get_entry(name, **params).protocol
        mu = uniform(p)
        got = helpers.oracle_ic_terms(p, mu)
        bidi = helpers.oracle_bidirectional_ic_terms(p, mu)
        for a, b in zip(got, bidi):
            assert a == pytest.approx(b, abs=TOL)


def test_randomness_lower_bound_on_transcript_entropy():
    for name, params in MEASURED_ZOO:
        p = get_entry(name, **params).protocol
        mu = uniform(p)
        lhs = transcript_entropy(p, mu)
        assert lhs >= (pic(p, mu) - ic(p, mu)) / p.k - TOL


@pytest.mark.parametrize("seed", range(6))
def test_information_relations_on_random_table_protocols(seed):
    k = 3 + seed % 2
    p = helpers.random_table_protocol(seed, k, ticks=2, private=(1,) * k,
                                      public=seed % 2)
    mu = uniform(p)
    ic_value, pic_value = ic(p, mu), pic(p, mu)
    assert ic_value <= pic_value + TOLERANCE
    assert pic_value <= cc(p) + TOLERANCE
    assert pic_value == pytest.approx(ic(publicize(p), mu), abs=TOLERANCE)
    assert transcript_entropy(p, mu) >= (pic_value - ic_value) / k - TOLERANCE
    _, random_term = pic_decomposition(p, mu)
    assert random_term <= (k - 1) * sum(p.private_tape_lengths) + TOLERANCE


def test_private_protocol_randomness_corollary():
    # For the ring, pic of the parity task is n(k-1); privacy forces
    # H(Pi | X Rp) >= (n(k-1) - n)/k = n(k-2)/k.
    for k, n in ((3, 1), (3, 2), (4, 1), (4, 2)):
        entry = get_entry("ring-parity", k=k, n=n)
        mu = uniform(entry.protocol)
        te = transcript_entropy(entry.protocol, mu)
        assert te == pytest.approx(float(n), abs=TOL)
        assert te >= (n * (k - 1) - n) / k - TOL
        # Lemma-style upper bound for a private protocol: ic <= sum H(f_i).
        assert ic(entry.protocol, mu) <= n + TOL


def test_spy_information_inequality_for_deterministic_protocols():
    for name, params in (
        ("star-parity", {"k": 3, "n": 1}),
        ("star-parity", {"k": 4, "n": 2}),
        ("and-opt", {}),
        ("q-index", {"k": 3, "q": 1}),
    ):
        p = get_entry(name, **params).protocol
        mu = uniform(p)
        assert pic(p, mu) >= spy_info(p, mu) - TOL


def test_measure_report_validates_decomposition():
    entry = get_entry("ring-parity", k=3, n=1)
    report = measure_protocol(entry.protocol, uniform(entry.protocol), entry.family)
    d = report.to_dict()
    assert d["ic"] == 1.0 and d["pic"] == 3.0 and d["acc"] == "3"
    with pytest.raises(RuntimeError):
        MeasureReport(
            protocol="x", distribution="u", tolerance=1e-9, cc=1,
            acc=Fraction(1), ic=1.0, pic=0.0, pic_random_term=0.0,
            transcript_entropy=0.0, spy_info=0.0,
        )


def test_pic_decomposition_refuses_parts_that_drift_from_pic(monkeypatch):
    # Each player's pic exceeds its ic and random parts by 2 * TOLERANCE.
    p = get_entry("and-opt").protocol
    monkeypatch.setattr(measures, "mutual_infos",
                        lambda d, triples: [0.5, 0.25, 0.75 + 2 * TOLERANCE])
    with pytest.raises(InvariantError, match="pic decomposition drifted"):
        pic_decomposition(p, uniform(p))


def test_a_report_prints_no_nonzero_value_as_0():
    values = [0.0, 1.5849625007211563, 3.7983904203997434e-10, 1e-300,
              5e-324]
    assert cli._render({"v": [report_float(v) for v in values]}, "json") == (
        '{\n  "v": [\n    0.0,\n    1.584962501,\n    3.79839042e-10,\n'
        '    1e-300,\n    5e-324\n  ]\n}\n'
    )


# -- publicize / derandomize -------------------------------------------------


def test_publicize_keeps_transcripts_bit_identical():
    p = get_entry("ring-parity", k=3, n=1).protocol
    pub = publicize(p)
    assert pub.private_tape_lengths == (0, 0, 0)
    assert pub.public_tape_length == 1
    for x in p.input_space():
        for pad in ("0", "1"):
            orig = run(p, x, (pad, "", ""), "")
            new = run(pub, x, None, pad)
            got_pub, got_privs = split_public_tape(p, pad)
            assert got_pub == "" and got_privs == (pad, "", "")
            for i in p.players:
                assert (
                    orig.record(i).received == new.record(i).received
                )
            assert orig.outputs == new.outputs


def test_publicize_preserves_pic_and_obliviousness():
    cases = [get_entry("ring-parity", k=3, n=1).protocol]
    cases += [protocol_from_dict(d()) for d in (masked_ping_dict, and_mask_dict)]
    for p in cases:
        mu = uniform(p)
        pub = publicize(p)
        assert pic(pub, mu) == pytest.approx(pic(p, mu), abs=TOL)
        assert ic(pub, mu) == pytest.approx(pic(p, mu), abs=TOL)
        assert is_oblivious(pub)[0] == is_oblivious(p)[0]
        assert transcript_entropy(pub, mu) == pytest.approx(0.0, abs=TOL)


def test_publicize_of_deterministic_protocol_is_identity():
    p = get_entry("star-parity", k=3, n=1).protocol
    assert publicize(p) is p


def test_interleaving_splits_longer_tapes():
    p = protocol_from_dict(masked_ping_dict())
    # One private bit, no public bits: the combined tape is that bit.
    assert split_public_tape(p, "1") == ("", ("1", ""))


def test_seed_scores_average_to_ic():
    for build in (masked_ping_dict, and_mask_dict):
        p = publicize(protocol_from_dict(build()))
        mu = uniform(p)
        scores = public_seed_scores(p, mu)
        avg = sum(scores.values()) / len(scores)
        assert avg == pytest.approx(ic(p, mu), abs=TOL)


def test_seed_scores_are_pinned_bit_for_bit():
    """Each seed's score on the law given Rp = r, exactly as recorded."""
    h = float.fromhex("0x1.2678d477790cap-1")
    pins = {
        masked_ping_dict: ({"0": 1.0, "1": 1.0}, {"0": h, "1": h}),
        and_mask_dict: ({"0": 0.0, "1": 1.0}, {"0": 0.0, "1": h}),
    }
    for build, (under_uniform, under_random) in pins.items():
        p = publicize(protocol_from_dict(build()))
        assert public_seed_scores(p, uniform(p)) == under_uniform
        mu = helpers.random_mu(random.Random(5), p)
        assert public_seed_scores(p, mu) == under_random


def test_derandomize_picks_the_best_seed():
    p = publicize(protocol_from_dict(and_mask_dict()))
    mu = uniform(p)
    det, seed = derandomize_zero_error(p, mu)
    assert seed == "0"
    assert det.public_tape_length == 0
    assert ic(det, mu) == pytest.approx(0.0, abs=TOL)
    assert ic(det, mu) <= ic(p, mu) + TOL


def test_derandomize_on_deterministic_input_is_identity():
    p = get_entry("star-parity", k=3, n=1).protocol
    det, seed = derandomize_zero_error(p, uniform(p))
    assert det is p and seed == ""


def test_derandomize_preconditions():
    ring = get_entry("ring-parity", k=3, n=1)
    with pytest.raises(ValueError, match="publicize"):
        derandomize_zero_error(ring.protocol, uniform(ring.protocol))
    with pytest.raises(ValueError, match="defined for public-coin protocols"):
        public_seed_scores(ring.protocol, uniform(ring.protocol))
    # A protocol whose output depends on the coin is not zero-error.
    coin_flip = {
        "name": "coin-flip", "k": 2, "input_bits": [1, 1],
        "tape_bits": {"private": [0, 0], "public": 1},
        "tree": {
            "sender": 1, "receiver": 2, "msg_bits": 1,
            "message_table": {"0::0": "0", "0::1": "1",
                               "1::0": "0", "1::1": "1"},
            "children": {"0": {"outputs": ["0", "0"]},
                          "1": {"outputs": ["1", "1"]}},
        },
    }
    p = protocol_from_dict(coin_flip)
    with pytest.raises(ValueError, match="zero-error"):
        derandomize_zero_error(p, uniform(p))


def test_derandomized_ring_still_computes_parity():
    entry = get_entry("ring-parity", k=3, n=1)
    mu = uniform(entry.protocol)
    pub = publicize(entry.protocol)
    det, seed = derandomize_zero_error(pub, mu, entry.family)
    assert ic(det, mu) <= ic(pub, mu) + TOL
    for x in det.input_space():
        e = run(det, x)
        assert e.outputs[0] == entry.family.value(1, x)


# -- products ----------------------------------------------------------------


def test_product_star_star():
    s = get_entry("star-parity", k=3, n=1)
    prod = product_protocol(s.protocol, s.protocol)
    mu = uniform(s.protocol)
    mu2 = InputDistribution.product(mu, mu)
    assert cc(prod) == 2 * cc(s.protocol)
    assert pic(prod, mu2) == pytest.approx(2 * pic(s.protocol, mu), abs=TOL)
    assert ic(prod, mu2) == pytest.approx(2 * ic(s.protocol, mu), abs=TOL)
    assert is_oblivious(prod)[0]


def test_product_ring_with_lifted_and():
    ring = get_entry("ring-parity", k=3, n=1)
    lifted = lift_entry(get_entry("and-opt"), 3)
    prod = product_protocol(ring.protocol, lifted.protocol)
    mu_r = uniform(ring.protocol)
    mu_a = uniform(lifted.protocol)
    mu2 = InputDistribution.product(mu_r, mu_a)
    assert cc(prod) == cc(ring.protocol) + cc(lifted.protocol)
    assert pic(prod, mu2) == pytest.approx(
        pic(ring.protocol, mu_r) + pic(lifted.protocol, mu_a), abs=TOL
    )
    assert ic(prod, mu2) == pytest.approx(
        ic(ring.protocol, mu_r) + ic(lifted.protocol, mu_a), abs=TOL
    )
    assert acc(prod, mu2) == acc(ring.protocol, mu_r) + acc(
        lifted.protocol, mu_a
    )


def test_nested_product_is_additive():
    ring = get_entry("ring-parity", k=3, n=1).protocol
    star = get_entry("star-parity", k=3, n=1).protocol
    nested = product_protocol(product_protocol(ring, star), star)
    mu_r, mu_s = uniform(ring), uniform(star)
    mu3 = InputDistribution.product(InputDistribution.product(mu_r, mu_s), mu_s)
    assert cc(nested) == cc(ring) + 2 * cc(star) == 7
    assert ic(nested, mu3) == pytest.approx(5.0, abs=TOL)
    assert ic(nested, mu3) == pytest.approx(
        ic(ring, mu_r) + 2 * ic(star, mu_s), abs=TOL
    )


def test_product_requires_matching_player_count():
    with pytest.raises(ConfigError, match="same number"):
        product_protocol(
            get_entry("and-opt").protocol,
            get_entry("star-parity", k=3, n=1).protocol,
        )


def test_product_requires_fixed_length_input_domains():
    p = get_entry("and-opt").protocol
    mixed = dataclasses.replace(p, input_domains=(("0", "1"), ("0", "10")))
    for sides in ((mixed, p), (p, mixed)):
        with pytest.raises(ConfigError) as info:
            product_protocol(*sides)
        assert str(info.value) == ("product needs fixed-length input "
                                   "domains; player 2 of and-opt mixes lengths")


def test_product_additivity_on_random_distributions():
    rng = random.Random(9)
    s = get_entry("star-parity", k=3, n=1).protocol
    prod = product_protocol(s, s)
    for t in range(3):
        mu_a = random_mu(rng, s, name=f"a{t}")
        mu_b = random_mu(rng, s, name=f"b{t}")
        mu2 = InputDistribution.product(mu_a, mu_b)
        assert pic(prod, mu2) == pytest.approx(
            pic(s, mu_a) + pic(s, mu_b), abs=TOL
        )


# -- grid search --------------------------------------------------------------


def test_sup_pic_grid_finds_the_and_optimum():
    p = get_entry("and-opt").protocol
    result = sup_pic_grid(p, 0.001)
    assert abs(result.value - math.log2(3)) <= 1e-4
    assert abs(float(result.alpha) - 1 / 3) <= 0.01
    assert abs(float(result.beta) - 1 / 2) <= 0.01
    # The optimum formula: f(a) = -a log a + (a-1) log(1-a) + 1 - a.
    a = 1 / 3
    f = -a * math.log2(a) + (a - 1) * math.log2(1 - a) + 1 - a
    assert f == pytest.approx(math.log2(3), abs=TOL)


def test_sup_pic_grid_constant_protocol_is_flat():
    spec = {
        "name": "const", "k": 2, "input_bits": [1, 1],
        "tape_bits": {"private": [0, 0], "public": 0},
        "tree": {
            "sender": 1, "receiver": 2, "msg_bits": 1,
            "message_table": {"0": "0", "1": "0"},
            "children": {"0": {"outputs": ["0", "0"]}},
        },
    }
    p = protocol_from_dict(spec)
    result = sup_pic_grid(p, 0.05)
    assert result.value == pytest.approx(0.0, abs=TOL)
    assert result.alpha == Fraction(1, 20)
    assert result.beta == Fraction(1, 20)


def test_sup_pic_grid_rejects_wrong_arity():
    with pytest.raises(ConfigError, match="two players"):
        sup_pic_grid(get_entry("star-parity", k=3, n=1).protocol, 0.01)
    with pytest.raises(ConfigError, match="grid step too coarse"):
        sup_pic_grid(get_entry("and-opt").protocol, 0.8)


def test_sup_pic_grid_budget_caps_points_per_axis():
    p = get_entry("and-opt").protocol
    assert sup_pic_grid(p, 0.001, budget=999).alpha > 0  # 999 points per axis
    with pytest.raises(BudgetExceededError, match="999 grid points") as err:
        sup_pic_grid(p, 0.001, budget=998)
    assert err.value.unit == "grid points per axis"


@pytest.mark.parametrize("step", [1e-300, 5e-324])
def test_an_unbudgeted_pic_grid_is_capped_at_2_to_the_64_points(step):
    # Without a budget the grid is capped as run_all caps executions, so a
    # tiny step is refused by count before numpy is asked for the grid.
    with pytest.raises(BudgetExceededError, match=r"budget is 2\^64") as err:
        sup_pic_grid(get_entry("and-opt").protocol, step, budget=None)
    assert err.value.unit == "grid points per axis"
    assert err.value.required > 1 << 64


def test_a_grid_numpy_refuses_is_over_budget():
    # 2^62 points per axis are under the 2^64 cap, but numpy refuses the
    # axis before it allocates anything.
    with pytest.raises(BudgetExceededError,
                       match="4611686018427387903 grid points per axis"):
        sup_pic_grid(get_entry("and-opt").protocol, 2.0**-62, budget=None)


def _assert_same_grid(p, step):
    got = sup_pic_grid(p, step)
    want = helpers.reference_sup_pic_grid(p, step)
    assert (got.alpha, got.beta, got.value) == (
        want.alpha, want.beta, want.value
    ), (p.name, step)
    assert abs(got.grid_value - want.grid_value) <= 1e-12, (p.name, step)
    # The float scan agrees with the exact kernel at the winning point.
    assert abs(got.grid_value - got.value) <= 1e-12, (p.name, step)


@pytest.mark.parametrize("step", [0.05, 0.01, 0.005, 0.002])
def test_sup_pic_grid_matches_the_reference_scan_on_and_opt(step):
    _assert_same_grid(get_entry("and-opt").protocol, step)


def test_sup_pic_grid_matches_the_reference_scan_on_trees_with_tapes():
    tapes = set()
    for seed in range(24):
        spec = helpers.random_tree_dict(
            random.Random(seed), 1 + seed % 4,
            private=(seed % 2, seed // 2 % 2), public=seed // 4 % 3,
        )
        p = protocol_from_dict(spec)
        tapes.add((p.private_tape_lengths, p.public_tape_length))
        _assert_same_grid(p, 0.02)
    assert len(tapes) >= 8


def test_sup_pic_grid_entropy_calls_do_not_grow_with_the_grid(monkeypatch):
    from protolab import measures

    calls = [0]
    original = measures._mi_curve

    def counted(p0, p1, t):
        calls[0] += 1
        return original(p0, p1, t)

    monkeypatch.setattr(measures, "_mi_curve", counted)
    p = protocol_from_dict(helpers.random_tree_dict(
        random.Random(5), 3, private=(1, 1), public=1
    ))
    per_step = []
    for step in (0.1, 0.01):
        calls[0] = 0
        sup_pic_grid(p, step)
        per_step.append(calls[0])
    assert per_step[0] == per_step[1] <= 4, per_step  # one call per curve


def test_sup_pic_grid_memory_does_not_grow_with_the_grid():
    # 1024 executions, 512 per curve: unblocked, step 0.0002 held float
    # arrays of 4999 x 512 entries and peaked near 100 MiB.
    p = protocol_from_dict(helpers.random_tree_dict(
        random.Random(7), 3, private=(3, 3), public=2
    ))
    run_all(p)
    peaks = []
    for step in (0.01, 0.0002):
        tracemalloc.start()
        try:
            sup_pic_grid(p, step)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0] + (1 << 20), peaks
    assert peaks[1] < 16 << 20, peaks


# -- distributions -------------------------------------------------------------


def assert_exact_law(mu, reference, p=None):
    """mu holds ``reference``, a ``{input tuple: weight}`` mapping, as
    sorted distinct inputs with positive int numerators over their lcm;
    with a protocol, ``weighted_executions`` scales that lcm by the tapes."""
    assert list(mu.inputs) == sorted(set(mu.inputs))
    assert all(type(n) is int and n > 0 for n in mu.nums)
    assert sum(mu.nums) == mu.den
    assert math.gcd(mu.den, *mu.nums) == 1
    fractions = {x: Fraction(w) for x, w in reference.items() if w}
    assert mu.weights == tuple(sorted(fractions.items()))
    if p is not None:
        lcm = math.lcm(*(w.denominator for w in fractions.values()))
        assert weighted_executions(p, mu)[1] == lcm << p.total_tape_bits


def test_uniform_equals_normalized_equal_weights():
    # uniform skips the normalization's checks; its weights must still be
    # what from_weights makes of the same mapping, domains in any order.
    for p in (get_entry("star-parity", k=3, n=2).protocol,
              get_entry("q-index", k=3, q=1).protocol,
              get_entry("ring-parity", k=3, n=1).protocol,
              dataclasses.replace(get_entry("and-opt").protocol,
                                  input_domains=(("1", "0"), ("1", "0")))):
        n = math.prod(len(dom) for dom in p.input_domains)
        mapping = {x: Fraction(1, n) for x in p.input_space()}
        mu = InputDistribution.uniform(p)
        assert mu == InputDistribution.from_weights("uniform", mapping)
        assert (mu.nums, mu.den) == ((1,) * n, n)
        assert_exact_law(mu, mapping, p)


def test_input_distribution_validation():
    # Unreduced weights and pairs reduce to the same law; zeros drop out.
    quarter = {("0", "0"): Fraction(1, 4), ("1", "1"): Fraction(3, 4)}
    for weights in ({("1", "1"): Fraction(6, 8), ("0", "0"): Fraction(2, 8)},
                    [(("0", "0"), Fraction(1, 4)), (("0", "1"), 0),
                     (("1", "1"), Fraction(3, 4))]):
        mu = InputDistribution.from_weights("quarter", weights)
        assert (mu.nums, mu.den) == ((1, 3), 4)
        assert_exact_law(mu, quarter, get_entry("and-opt").protocol)
    with pytest.raises(ValueError, match="sum"):
        InputDistribution.from_weights("bad", {("0", "0"): Fraction(1, 2)})
    p = get_entry("and-opt").protocol
    mu = InputDistribution.from_weights(
        "off-domain", {("2", "0"): Fraction(1)}
    )
    with pytest.raises(ConfigError, match="outside"):
        mu.validate_for(p)
    short = InputDistribution.from_weights("short", {("0",): Fraction(1)})
    with pytest.raises(ConfigError, match="player"):
        short.validate_for(p)
    half = Fraction(1, 2)
    with pytest.raises(ValueError, match="negative weight for"):
        InputDistribution.from_weights(
            "neg", {("0", "0"): Fraction(3, 2), ("0", "1"): -half}
        )
    # True would count as 1 and False would drop its input.
    for flag in (True, False):
        with pytest.raises(TypeError, match="exact rationals, got bool"):
            InputDistribution.from_weights(
                "flag", {("0", "0"): half, ("0", "1"): flag}
            )
    # "01" names the same tuple of per-player inputs as ("0", "1").
    with pytest.raises(ValueError, match=r"duplicate input tuples: "
                       r"\('0', '1'\) is given twice"):
        InputDistribution.from_weights("dup", {"01": half, ("0", "1"): half})
    with pytest.raises(ValueError, match="player counts differ"):
        InputDistribution.product(
            uniform(get_entry("star-parity", k=3, n=1).protocol), uniform(p)
        )


# Every constructor goes through these checks; a law built directly is
# held to them too, before any measure reads it.
@pytest.mark.parametrize("inputs,nums,den,message", [
    ((("0", "0"),), (1, 1), 2, "every input needs exactly one numerator"),
    ((("1", "1"), ("0", "0")), (1, 1), 2, "inputs must be sorted and distinct"),
    ((("0", "0"), ("0", "0")), (1, 1), 2, "inputs must be sorted and distinct"),
    ((("0", "0"), ("1", "1")), (0, 1), 1,
     "input numerators must be positive ints"),
    ((("0", "0"),), (True,), 1, "input numerators must be positive ints"),
    ((("0", "0"),), (1.0,), 1, "input numerators must be positive ints"),
    ((("0", "0"),), (1,), True, "the weight denominator must be a positive int"),
    ((), (), 0, "the weight denominator must be a positive int"),
    ((), (), 1, "weights sum to 0, not 1"),
    ((("0", "0"), ("1", "1")), (1, 1), 4, "weights sum to 1/2, not 1"),
    ((("0", "0"), ("1", "1")), (2, 2), 4,
     "input numerators and denominator share a factor"),
])
def test_each_input_law_check_names_its_fault(inputs, nums, den, message):
    with pytest.raises(ValueError) as info:
        InputDistribution("bad", inputs, nums, den)
    assert str(info.value) == message
    mu = InputDistribution.uniform(get_entry("and-opt").protocol)
    with pytest.raises(ValueError) as info:
        dataclasses.replace(mu, inputs=inputs, nums=nums, den=den)
    assert str(info.value) == message


def test_validate_for_names_the_first_bad_entry():
    # Entries are checked in mu's sorted order and, within an entry, its
    # arity before its players in order; the first fault is the one named.
    p = get_entry("and-opt").protocol
    half = Fraction(1, 2)
    cases = [
        ({("0", "0"): half, ("0", "1", "1"): half},
         "distribution 'mu' has 3-tuples for a 2-player protocol"),
        ({("0", "0", "0"): half, ("0", "2"): half},
         "distribution 'mu' has 3-tuples for a 2-player protocol"),
        ({("0", "2"): half, ("1",): half},
         "distribution 'mu' puts weight on '2', outside player 2's domain"),
        ({("1", "1"): half, ("x", "y"): half},
         "distribution 'mu' puts weight on 'x', outside player 1's domain"),
    ]
    for weights, message in cases:
        mu = InputDistribution.from_weights("mu", weights)
        with pytest.raises(ConfigError) as info:
            mu.validate_for(p)
        assert str(info.value) == message, weights
    InputDistribution.uniform(p).validate_for(p)


def test_validate_for_agrees_with_a_scan_of_every_input():
    # Drawn laws with wrong lengths and values outside a domain, each
    # checked against every protocol: the check accepts and refuses what a
    # scan of every input does, with the same message.
    rng = random.Random(40)
    protocols = [get_entry("and-opt").protocol,
                 get_entry("star-parity", k=3, n=1).protocol,
                 get_entry("star-parity", k=3, n=2).protocol]
    outside = ("2", "", "000", "x")
    verdicts = Counter()
    for _ in range(300):
        p = rng.choice(protocols)
        weights = {}
        for _ in range(rng.randint(1, 6)):
            length = (p.k if rng.random() < 0.8
                      else rng.choice((p.k - 1, p.k + 1)))
            weights[tuple(
                rng.choice(outside) if rng.random() < 0.05
                else rng.choice(p.input_domains[min(at, p.k - 1)])
                for at in range(length)
            )] = rng.randint(1, 4)
        total = sum(weights.values())
        mu = InputDistribution.from_weights(
            "drawn", {x: Fraction(w, total) for x, w in weights.items()})
        for q in protocols:
            want = helpers.reference_validate_for(mu, q)
            try:
                mu.validate_for(q)
                got = None
            except ConfigError as exc:
                got = str(exc)
            assert got == want, (mu, q.name)
            verdicts[want and want.split()[2]] += 1
    # Accepted, refused for a length, refused for a value.
    assert set(verdicts) == {None, "has", "puts"}, verdicts


def test_a_law_reads_its_inputs_once_across_validations():
    class Counted(tuple):
        reads = 0

        def __iter__(self):
            Counted.reads += 1
            return super().__iter__()

    star = get_entry("star-parity", k=3, n=1).protocol
    u = InputDistribution.uniform(star)
    mu = InputDistribution(u.name, Counted(u.inputs), u.nums, u.den)
    made = Counted.reads
    mu.validate_for(star)
    first = Counted.reads
    assert first > made
    for p in (star, get_entry("ring-parity", k=3, n=1).protocol) * 20:
        mu.validate_for(p)
    assert Counted.reads == first
    with pytest.raises(ConfigError, match="3-tuples for a 2-player"):
        mu.validate_for(get_entry("and-opt").protocol)


def test_independent_bits_bounds():
    with pytest.raises(ValueError):
        InputDistribution.independent_bits(Fraction(0), Fraction(1, 2))
    a, b = Fraction(1, 3), Fraction(1, 4)
    mu = InputDistribution.independent_bits(a, b)
    assert mu.den == 12
    assert_exact_law(mu, {
        ("0", "0"): a * b, ("0", "1"): a * (1 - b),
        ("1", "0"): (1 - a) * b, ("1", "1"): (1 - a) * (1 - b),
    }, get_entry("and-opt").protocol)


def test_and_opt_leaks_despite_computing_the_function():
    entry = get_entry("and-opt")
    mu = uniform(entry.protocol)
    assert privacy_leakage(entry.protocol, mu, entry.family) > 0.0
    joint = build_joint(entry.protocol, mu)
    with pytest.raises(ValueError, match="built without a function family"):
        privacy_terms(entry.protocol, mu, entry.family, joint=joint)


def test_one_time_padded_message_carries_no_spy_information():
    p = protocol_from_dict(masked_ping_dict())
    assert spy_info(p, uniform(p)) == pytest.approx(0.0, abs=TOL)


def reference_product(a, b) -> dict:
    """The product of two laws given as ``(input, Fraction)`` pairs,
    multiplied out in Fractions."""
    out = {}
    for xa, wa in a:
        for xb, wb in b:
            key = tuple(s + t for s, t in zip(xa, xb))
            out[key] = out.get(key, 0) + wa * wb
    return out


def test_power_distribution_matches_iterated_products():
    s = get_entry("star-parity", k=3, n=1).protocol
    mu = uniform(s)
    cubed = InputDistribution.power(mu, 3)
    assert sum(w for _, w in cubed.weights) == 1
    assert len(cubed.weights) == len(mu.weights) ** 3
    twice = InputDistribution.product(mu, mu)
    assert InputDistribution.power(mu, 2).weights == twice.weights
    # t is a count: an int of at least 1, and a bool is not one.
    for t in (0, True, 2.5, "2"):
        with pytest.raises(ConfigError) as info:
            InputDistribution.power(mu, t)
        assert str(info.value) == f"power needs an int t >= 1, got {t!r}"
    # A huge t is refused by naming its count, which is never built.
    with pytest.raises(BudgetExceededError,
                       match=r"needs 8\^1000000000 inputs, budget is 2\^64"):
        InputDistribution.power(mu, 10**9, budget=None)
    rng = random.Random(11)
    a, b = random_mu(rng, s, "a"), random_mu(rng, s, "b")
    ab = InputDistribution.product(a, b)
    assert ab.name == "product(a,b)"
    assert_exact_law(ab, reference_product(a.weights, b.weights),
                     product_protocol(s, s))
    cubed = InputDistribution.power(a, 3)
    assert cubed.name == "a^3"
    squared = reference_product(a.weights, a.weights).items()
    assert_exact_law(cubed, reference_product(squared, a.weights))


# ---------------------------------------------------------------------------
# Golden pins: exact floats and report bytes recorded from the Fraction-based
# kernel; any speed-up of the joint law, the info kernel or the grid must
# reproduce them bit for bit.  The one exception is the grid's float scan
# value: when the scan became four one-dimensional curves (player i's term
# is sum_v P[X_i=v] g_iv), its summation order changed, and ``grid_value``
# was recorded again (1.5849263727797278 -> 1.5849263727797274).  The
# winning point and its exact value did not move.
# ---------------------------------------------------------------------------


def test_sup_pic_grid_golden_pin():
    g = sup_pic_grid(get_entry("and-opt").protocol, 0.01)
    assert g.alpha == Fraction(33, 100)
    assert g.beta == Fraction(1, 2)
    assert g.value == 1.5849263727797278
    assert g.grid_value == 1.5849263727797274


def test_a_measure_suite_peaks_below_a_fixed_bound():
    # ring-parity(4,2) with its parity family under uniform, cold after
    # run_all: with tuple-keyed kernel marginals and one family tuple per
    # row the suite peaked at 1180 KiB; packed keys bring it near 800 KiB.
    e = get_entry("ring-parity", k=4, n=2)
    run_all(e.protocol)
    mu = InputDistribution.uniform(e.protocol)
    tracemalloc.start()
    try:
        measure_protocol(e.protocol, mu, e.family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1000 << 10, peak


def test_measure_protocol_rejects_a_bad_tolerance():
    p = get_entry("star-parity", k=3, n=1).protocol
    for tolerance in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="tolerance"):
            measure_protocol(p, uniform(p), tolerance=tolerance)


def test_measure_report_golden_pin():
    entry = get_entry("ring-parity", k=3, n=1)
    p = entry.protocol
    mu = helpers.random_mu(random.Random(7), p)
    report = measure_protocol(p, mu, entry.family)
    assert (report.ic, report.pic, report.pic_random_term) == (
        0.9509775004326941, 2.892878689342032, 1.9419011889093378
    )
    assert (report.transcript_entropy, report.spy_info) == (
        1.0000000000000004, 2.019973094021975
    )
    assert cli._render(report.to_dict(), "json").encode() == (
        b'{\n  "acc": "3",\n  "acc_bits": 3.0,\n  "cc": 3,\n'
        b'  "distribution": "random",\n  "ic": 0.9509775,\n'
        b'  "pic": 2.892878689,\n  "pic_random_term": 1.941901189,\n'
        b'  "privacy_leakage": 0.0,\n  "protocol": "ring-parity(k=3,n=1)",\n'
        b'  "report": "measure",\n  "spy_info": 2.019973094,\n'
        b'  "tolerance": 1e-09,\n  "transcript_entropy": 1.0\n}\n'
    )
