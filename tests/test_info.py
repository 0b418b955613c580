"""Tests for the exact joint-distribution and information measures."""

import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protolab.cli import main
from protolab.errors import InvariantError
from protolab.info import (
    JointDistribution,
    _marginals,
    apply_function,
    cond_entropy,
    entropy,
    mutual_info,
    mutual_infos,
)
from protolab.measures import InputDistribution, build_joint, pic_decomposition
from protolab.model import run_all
from protolab.zoo import get_entry

from helpers import (
    random_joint,
    reference_counts,
    reference_cond_entropy,
    reference_entropy,
    reference_mutual_info,
)

TOL = 1e-9

F = Fraction


def bit_pair(pxy):
    return JointDistribution.from_mapping(("x", "y"), pxy)


UNIFORM_XY = bit_pair({
    ("0", "0"): F(1, 4), ("0", "1"): F(1, 4),
    ("1", "0"): F(1, 4), ("1", "1"): F(1, 4),
})

COPY_XY = bit_pair({("0", "0"): F(1, 2), ("1", "1"): F(1, 2)})


def test_entropy_uniform_bit():
    d = JointDistribution.from_mapping(("x",), {("0",): F(1, 2), ("1",): F(1, 2)})
    assert entropy(d, "x") == pytest.approx(1.0, abs=TOL)


def test_entropy_point_mass():
    d = JointDistribution.from_mapping(("x",), {("0",): F(1)})
    assert entropy(d, "x") == 0.0


def test_entropy_bernoulli_third():
    d = JointDistribution.from_mapping(("x",), {("0",): F(1, 3), ("1",): F(2, 3)})
    # Direct arithmetic: (1/3) log2 3 + (2/3) log2 (3/2).
    expected = (1 / 3) * math.log2(3) + (2 / 3) * math.log2(1.5)
    assert expected == pytest.approx(0.9182958340544896, abs=1e-15)
    assert entropy(d, "x") == pytest.approx(expected, abs=TOL)


def test_cond_entropy_self_is_zero():
    assert cond_entropy(UNIFORM_XY, "x", "x") == pytest.approx(0.0, abs=TOL)


def test_cond_entropy_independent():
    assert cond_entropy(UNIFORM_XY, "x", "y") == pytest.approx(1.0, abs=TOL)


def test_cond_entropy_copy():
    assert cond_entropy(COPY_XY, "x", "y") == pytest.approx(0.0, abs=TOL)


def test_mutual_info_independent_is_zero():
    assert mutual_info(UNIFORM_XY, "x", "y") == 0.0


def test_mutual_info_copy_is_one():
    assert mutual_info(COPY_XY, "x", "y") == pytest.approx(1.0, abs=TOL)


def test_mutual_info_xor_conditioned():
    # z = x xor y with x, y independent uniform bits: I(x ; y | z) = 1.
    d = JointDistribution.from_mapping(
        ("x", "y", "z"),
        {
            ("0", "0", "0"): F(1, 4),
            ("0", "1", "1"): F(1, 4),
            ("1", "0", "1"): F(1, 4),
            ("1", "1", "0"): F(1, 4),
        },
    )
    assert mutual_info(d, "x", "y", "z") == pytest.approx(1.0, abs=TOL)
    assert mutual_info(d, "x", "y") == pytest.approx(0.0, abs=TOL)


def test_mutual_info_rejects_overlap():
    with pytest.raises(ValueError, match="overlapping"):
        mutual_info(UNIFORM_XY, "x", "x")
    with pytest.raises(ValueError, match="overlapping"):
        mutual_info(UNIFORM_XY, "x", "y", "y")


def test_unknown_variable_name():
    with pytest.raises(ValueError, match="unknown variable"):
        entropy(UNIFORM_XY, "zz")
    with pytest.raises(ValueError, match="unknown variable"):
        cond_entropy(UNIFORM_XY, "x", ("y", "zz"))
    with pytest.raises(ValueError, match="empty variable selector"):
        entropy(UNIFORM_XY, [])


def test_mutual_infos_checks_and_answers_each_triple():
    triples = [("x", "y", None), ("x", "y", "y"), (("x",), "y", ())]
    with pytest.raises(ValueError, match="overlapping"):
        mutual_infos(COPY_XY, triples[:2])
    with pytest.raises(ValueError, match="empty variable selector"):
        mutual_infos(COPY_XY, triples[::2])
    assert mutual_infos(COPY_XY, []) == []
    assert mutual_infos(COPY_XY, [triples[0]] * 2) == [1.0, 1.0]
    assert mutual_infos(UNIFORM_XY, [triples[0], ("y", "x", None)]) == [0, 0]


def test_construction_validations():
    with pytest.raises(ValueError, match="sum"):
        JointDistribution.from_mapping(("x",), {("0",): F(1, 2)})
    with pytest.raises(ValueError, match="arity"):
        JointDistribution.from_mapping(("x",), {("0", "1"): F(1)})
    with pytest.raises(ValueError, match="non-positive"):
        JointDistribution.from_mapping(
            ("x",), {("0",): F(3, 2), ("1",): F(-1, 2)}
        )
    with pytest.raises(ValueError, match="duplicate variable"):
        JointDistribution.from_mapping(("x", "x"), {("0", "0"): F(1)})
    with pytest.raises(TypeError, match="exact rationals, got float"):
        JointDistribution.from_mapping(("x",), {("0",): 1.0})
    for flag in (True, False):
        with pytest.raises(TypeError, match="exact rationals, got bool"):
            JointDistribution.from_mapping(("x",), {("0",): flag})


@pytest.mark.parametrize("weight", [True, False, 0.5, 1.0, "1"])
@pytest.mark.parametrize("entry", ["from_weights", "from_mapping", "law-file"])
def test_every_law_entry_point_refuses_inexact_weights(
        entry, weight, tmp_path, capsys):
    # info.law_numerators is the one rule: an int or a Fraction, never a
    # bool (True would count as 1), a float or a string.
    message = f"weights must be exact rationals, got {type(weight).__name__}"
    if entry == "law-file":
        # A law file's num and den go through the same check.
        path = tmp_path / "mu.json"
        for num, den in ((weight, 1), (1, weight)):
            path.write_text(json.dumps(
                [{"inputs": ["0", "0"], "num": num, "den": den}]))
            code = main(["measure", "--protocol", "and-opt",
                         "--mu", f"file:{path}"])
            captured = capsys.readouterr()
            assert (code, captured.out) == (1, "")
            assert captured.err == (
                f"error: bad distribution entry in {path}: {message}\n")
        return
    with pytest.raises(TypeError) as raised:
        if entry == "from_weights":
            InputDistribution.from_weights("mu", {("0", "0"): weight})
        else:
            JointDistribution.from_mapping(("x",), {("0",): weight})
    assert str(raised.value) == message


# The checks test_construction_validations does not reach through
# from_mapping, each with its whole message.
@pytest.mark.parametrize("variables,rows,nums,den,message", [
    ((), ((),), (1,), 1, "a distribution needs at least one variable"),
    (("x",), (), (), 1, "a distribution needs at least one outcome"),
    (("x",), (("0",),), (1, 1), 2, "every outcome needs exactly one weight"),
    (("x",), (("0",),), (1.0,), 1, "weight numerators must be ints"),
    (("x",), (("0",), ("0",)), (1, 1), 2, "duplicate outcome ('0',)"),
    (("x",), (("0",),), (1,), 1.0,
     "the weight denominator must be a positive int"),
    (("x",), (("0",),), (1,), 0,
     "the weight denominator must be a positive int"),
    (("x",), (("0",),), (True,), 1, "weight numerators must be ints"),
    (("x",), (("0",),), (1,), True,
     "the weight denominator must be a positive int"),
])
def test_each_construction_check_names_its_fault(variables, rows, nums, den,
                                                 message):
    with pytest.raises(ValueError) as info:
        JointDistribution(variables, rows, nums, den)
    assert str(info.value) == message


def test_apply_function_identity_and_constant():
    d = apply_function(UNIFORM_XY, "x", lambda v: v[0], "fx")
    assert mutual_info(d, "x", "fx") == pytest.approx(entropy(d, "x"), abs=TOL)
    d2 = apply_function(UNIFORM_XY, "x", lambda v: "c", "cx")
    assert entropy(d2, "cx") == 0.0


def test_apply_function_and_gate():
    f = {("0", "0"): "0", ("0", "1"): "0", ("1", "0"): "0", ("1", "1"): "1"}
    d = apply_function(UNIFORM_XY, ("x", "y"), f, "and")
    # h(1/4) = 2 - (3/4) log2 3, by direct evaluation.
    expected = 0.25 * math.log2(4) + 0.75 * math.log2(4 / 3)
    assert expected == pytest.approx(0.8112781244591328, abs=1e-15)
    assert entropy(d, "and") == pytest.approx(expected, abs=TOL)
    # Original marginals unchanged.
    assert d.marginal(("x", "y")) == UNIFORM_XY.marginal(("x", "y"))


def test_apply_function_requires_totality():
    partial = {("0", "0"): "0"}
    with pytest.raises(ValueError, match="not total"):
        apply_function(UNIFORM_XY, ("x", "y"), partial, "f")
    with pytest.raises(ValueError, match="already exists"):
        apply_function(UNIFORM_XY, "x", lambda v: v[0], "y")


def test_apply_function_single_name_bare_keys():
    d = apply_function(UNIFORM_XY, "x", {"0": "a", "1": "b"}, "fx")
    assert set(v[0] for v in d.marginal("fx")) == {"a", "b"}


def test_condition():
    d = COPY_XY.condition({"x": "0"})
    assert d.marginal("y") == {("0",): F(1)}
    with pytest.raises(ValueError, match="zero mass"):
        COPY_XY.condition({"x": "2"})
    with pytest.raises(ValueError) as info:
        COPY_XY.condition({"nope": "0"})
    assert str(info.value) == "unknown variable name: nope"


def test_mi_clamps_tiny_negative_only(monkeypatch):
    # Exact-rational path should not produce noticeable negatives at all.
    rng = random.Random(11)
    for _ in range(20):
        d = random_joint(rng)
        names = d.variables
        assert mutual_info(d, names[0], names[1]) >= 0.0
    # A raw sum just below 0 is rounding residue; one past the residue
    # bound is a bug.
    sums = "protolab.info._info_sums"
    monkeypatch.setattr(sums, lambda d, triples: [-1e-13])
    assert mutual_info(UNIFORM_XY, "x", "y") == 0.0
    monkeypatch.setattr(sums, lambda d, triples: [-1e-11])
    with pytest.raises(InvariantError, match="-1e-11"):
        mutual_info(UNIFORM_XY, "x", "y")


# -- property suite ---------------------------------------------------------


def test_chain_rule_on_random_distributions():
    rng = random.Random(101)
    for _ in range(40):
        d = random_joint(rng, n_vars=4)
        a, b, c, e = d.variables
        lhs = mutual_info(d, (a, b), c, e)
        rhs = mutual_info(d, a, c, e) + mutual_info(d, b, c, (e, a))
        assert abs(lhs - rhs) <= TOL


def test_symmetry_on_random_distributions():
    rng = random.Random(102)
    for _ in range(40):
        d = random_joint(rng, n_vars=3)
        a, b, c = d.variables
        assert abs(mutual_info(d, a, b, c) - mutual_info(d, b, a, c)) <= TOL


def test_data_processing_on_random_functions():
    rng = random.Random(103)
    for _ in range(40):
        d = random_joint(rng, n_vars=3)
        a, b, c = d.variables
        support = sorted(d.marginal(b))
        f = {v: f"g{rng.randrange(2)}" for v in support}
        d2 = apply_function(d, b, f, "fb")
        assert mutual_info(d2, a, "fb", c) <= mutual_info(d2, a, b, c) + TOL


def test_monotonicity_props_with_constructed_premises():
    rng = random.Random(104)
    for _ in range(30):
        d = random_joint(rng, n_vars=3)
        a, b, c = d.variables
        # d1 = g(a, c) makes I(b ; d1 | a c) = 0 exactly:
        support = sorted(d.marginal((a, c)))
        g = {v: f"d{rng.randrange(2)}" for v in support}
        d1 = apply_function(d, (a, c), g, "w")
        assert mutual_info(d1, b, "w", (a, c)) <= 1e-12
        assert (
            mutual_info(d1, a, b, c)
            >= mutual_info(d1, a, b, (c, "w")) - TOL
        )
        # d2 = h(c) makes I(b ; d2 | c) = 0 exactly:
        hsup = sorted(d.marginal(c))
        h = {v: f"e{rng.randrange(2)}" for v in hsup}
        d2 = apply_function(d, c, h, "w")
        assert mutual_info(d2, b, "w", c) <= 1e-12
        assert (
            mutual_info(d2, a, b, c)
            <= mutual_info(d2, a, b, (c, "w")) + TOL
        )


def test_entropy_support_bound():
    rng = random.Random(105)
    for _ in range(40):
        d = random_joint(rng)
        for name in d.variables:
            assert entropy(d, name) <= math.log2(len(d.counts(name))) + TOL


def test_entropy_prefix_free_expected_length_bound():
    rng = random.Random(106)
    for _ in range(40):
        # Random prefix-free code from a random binary tree.
        words = [""]
        for _ in range(rng.randint(1, 5)):
            at = rng.randrange(len(words))
            w = words.pop(at)
            words += [w + "0", w + "1"]
        denom = rng.randint(len(words), 4 * len(words))
        remaining = denom
        weights = {}
        for idx, w in enumerate(words):
            left = len(words) - idx - 1
            num = rng.randint(1, remaining - left) if left else remaining
            weights[(w,)] = Fraction(num, denom)
            remaining -= num
        d = JointDistribution.from_mapping(("s",), weights)
        expected_len = sum(
            float(p) * len(v[0]) for v, p in d.marginal("s").items()
        )
        assert entropy(d, "s") <= expected_len + TOL


@st.composite
def tiny_joint(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**9)))
    return random_joint(rng)


@settings(max_examples=50)
@given(tiny_joint())
def test_mutual_info_nonnegative(d):
    names = d.variables
    assert mutual_info(d, names[0], names[1:]) >= 0.0


@settings(max_examples=50)
@given(tiny_joint())
def test_conditioning_reduces_entropy(d):
    # H(X | Y) <= H(X), a direct consequence of I >= 0.
    names = d.variables
    assert (
        cond_entropy(d, names[0], names[1]) <= entropy(d, names[0]) + TOL
    )


def test_integer_kernel_equals_fraction_reference():
    """Bit-for-bit equality with the Fraction kernel on 1000 random joints:
    H(A) for every subset A; H(A | C) for every conditioning set C and every
    union A + C (a target overlapping C resolves to the same call); and
    I(A ; B | C) for every split of the variables into A, B, C and unused,
    up to swapping A and B.  The mutual informations also run as one
    ``mutual_infos`` call per joint over all of its triples; H(A) also runs
    on the law conditioned on the first outcome's first value.
    """
    rng = random.Random(20261017)
    for _ in range(1000):
        d = random_joint(rng)
        vs = d.variables
        subsets = [
            s for r in range(1, len(vs) + 1) for s in itertools.combinations(vs, r)
        ]
        cond = d.condition({vs[0]: d.rows[0][0]})
        for a in subsets:
            assert entropy(d, a) == reference_entropy(d, a)
            assert entropy(cond, a) == reference_entropy(cond, a)
        for ac in subsets:
            for c in subsets:
                if set(c) <= set(ac):
                    h = reference_cond_entropy(d, ac, c)
                    assert cond_entropy(d, ac, c) == h
        triples, expected = [], []
        for roles in itertools.product("abc-", repeat=len(vs)):
            if "a" not in roles or "b" not in roles:
                continue
            if roles.index("b") < roles.index("a"):
                continue  # I(B ; A | C) repeats the same computation
            a, b, c = ([v for v, r in zip(vs, roles) if r == g] for g in "abc")
            given = c or None
            i = reference_mutual_info(d, a, b, given)
            assert mutual_info(d, a, b, given) == i
            triples.append((a, b, given))
            expected.append(i)
        assert mutual_infos(d, triples) == expected


def test_public_api_keeps_fraction_weights():
    d = JointDistribution.from_mapping(
        ("x", "y"),
        {("0", "0"): F(1, 6), ("0", "1"): F(1, 3), ("1", "1"): F(1, 2)},
    )
    # Mixed denominators are scaled to their lcm; an int is exact too.
    assert (d.nums, d.den) == ((1, 2, 3), 6)
    assert JointDistribution.from_mapping(("x",), {("0",): 1}).nums == (1,)
    assert all(isinstance(w, Fraction) for _, w in d.outcomes)
    assert sum(w for _, w in d.outcomes) == 1
    assert d.outcomes[0] == (("0", "0"), F(1, 6))
    m = d.marginal("y")
    assert m == {("0",): F(1, 6), ("1",): F(5, 6)}
    assert all(isinstance(w, Fraction) for w in m.values())
    cond = d.condition({"y": "1"})
    assert cond.marginal("x") == {("0",): F(2, 5), ("1",): F(3, 5)}
    assert sum(w for _, w in cond.outcomes) == 1
    assert len(d.counts("x")) == 2


# -- packed kernel keys -------------------------------------------------------


def assert_packed_counts(d, selectors):
    """One ``_marginals`` call over ``selectors``, in their order, gives each
    marginal as ``reference_counts`` counts it from the decoded rows: the
    same numerators, in the same key order, one packed key per value
    tuple; ``counts`` gives the same dict."""
    masks = [sum(d._masks[n] for n in sel) for sel in selectors]
    memo = _marginals(d, masks)
    for sel, mask in zip(selectors, masks):
        idx = [d.variables.index(n) for n in d.resolve(sel)]
        key_of = {}
        for values, row in zip(d.rows, d._rows):
            sub = tuple(values[i] for i in idx)
            assert key_of.setdefault(sub, row & mask) == row & mask
        counted = reference_counts(d, sel)
        expected = [(key_of[k], n) for k, n in counted.items()]
        assert list(memo[mask].items()) == expected, sel
        assert list(d.counts(sel).items()) == list(counted.items()), sel


def wide_joint():
    """8 variables with 300+ values each: 9-bit fields, 72-bit rows."""
    rng = random.Random(2028)
    rows = {
        tuple(str(rng.randrange(400)) for _ in range(8)): rng.randint(1, 5)
        for _ in range(700)
    }
    d = JointDistribution(tuple(f"w{j}" for j in range(8)), tuple(rows),
                          tuple(rows.values()), sum(rows.values()))
    assert all(len(d.counts(n)) > 256 for n in d.variables)
    assert max(d._rows).bit_length() > 64
    return d


def odd_values_joint():
    """Derived values that are no strings: ints, None and tuples, with
    ``1 == True == 1.0``, ``0 == False`` and ``hash(-1) == hash(-2)``."""
    d = random_joint(random.Random(7), n_vars=3, max_vals=4)
    pool = [1, None, True, (1, "a"), 0, -1, False, -2, 1.0, ("a",), (1, "a")]
    f = {v: pool[j % len(pool)] for j, v in enumerate(d.counts(d.variables))}
    d = apply_function(d, d.variables, f, "odd")
    d = apply_function(d, ("v2", "odd"), lambda v: (v[1], v[0][-1]), "pair")
    # 16 outcomes reach 7 distinct values: 1, True and 1.0 are one value.
    assert len(d.counts("odd")) == 7
    assert {None, -1, -2} <= {v for v, in d.counts("odd")}
    return d


def constant_joint():
    """A law conditioned on its first value, plus a constant column."""
    d = random_joint(random.Random(8), n_vars=4)
    d = d.condition({"v0": d.rows[0][0]})
    d = apply_function(d, "v1", lambda v: "k", "k")
    assert len(d.counts("v0")) == len(d.counts("k")) == 1
    assert all(d._masks[n].bit_count() == 1 for n in ("v0", "k"))
    return d


@pytest.mark.parametrize("make", [wide_joint, odd_values_joint, constant_joint])
def test_packed_kernel_matches_counts_and_the_fraction_reference(make):
    """Packed marginals against the decoded rows, counted big-to-small
    (each from a counted superset) and in a shuffled order; H(A),
    I(A ; B | C) and H(A B | B C) with overlapping selectors, bit for bit
    against the Fraction kernels of ``helpers``."""
    d = make()
    rng = random.Random(make.__name__)
    vs = d.variables
    subsets = [
        s for r in range(1, len(vs) + 1) for s in itertools.combinations(vs, r)
    ]
    assert_packed_counts(d, sorted(subsets, key=len, reverse=True))
    assert_packed_counts(d, rng.sample(subsets, len(subsets)))
    for a in rng.sample(subsets, min(len(subsets), 40)):
        assert entropy(d, a) == reference_entropy(d, a)
    for _ in range(40):
        roles = [rng.choice("abc-") for _ in vs]
        a, b, c = ([v for v, r in zip(vs, roles) if r == g] for g in "abc")
        if not a or not b:
            continue
        given = c or None
        assert mutual_info(d, a, b, given) == reference_mutual_info(d, a, b, given)
        assert cond_entropy(d, a + b, b + c) == reference_cond_entropy(
            d, a + b, b + c
        )


def test_a_joint_reads_its_outcomes_once_block_by_block():
    """2500 outcomes from a generator span three blocks of the constructor,
    and ``a`` passes 256 values inside the first: the rows read back in
    order, and a fault in a later block is still named."""
    rows = [(str(j), str(j % 3), str(j * 7 % 11)) for j in range(2500)]
    nums = [1 + j % 4 for j in range(2500)]
    d = JointDistribution(("a", "b", "c"), iter(rows), iter(nums), sum(nums))
    assert d.rows == tuple(rows) and d.nums == tuple(nums)
    assert d._masks["a"].bit_count() == 12
    for sel in ("a", "b", ("b", "c")):
        assert d.counts(sel) == reference_counts(d, sel)
    at = 2000  # in the second block
    faults = [
        (rows[:at] + [rows[5]] + rows[at + 1:], nums,
         "duplicate outcome ('5', '2', '2')"),
        (rows[:at] + [("x",)] + rows[at + 1:], nums,
         "outcome ('x',) has arity 1, expected 3"),
        (rows, nums[:at] + [0] + nums[at + 1:],
         "outcome ('2000', '2', '8') has non-positive weight"),
        (rows, nums[:-1], "every outcome needs exactly one weight"),
        (rows, nums + [1], "every outcome needs exactly one weight"),
    ]
    for bad_rows, bad_nums, message in faults:
        with pytest.raises(ValueError) as info:
            JointDistribution(("a", "b", "c"), iter(bad_rows), bad_nums,
                              sum(bad_nums))
        assert str(info.value) == message


def test_a_joint_keeps_only_its_packed_rows():
    """ring-parity(4,2)'s joint under its family, after the joint is built
    and after a whole pic decomposition, holds under 200 B per outcome:
    no outcome tuples, only a packed int, a numerator and its share of the
    value tables.  The protocol caches its table before tracing starts."""
    entry = get_entry("ring-parity", k=4, n=2)
    p = entry.protocol
    mu = InputDistribution.uniform(p)
    run_all(p)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        d = build_joint(p, mu, entry.family)
        built = tracemalloc.get_traced_memory()[0] - base
        pic_decomposition(p, mu, joint=d)
        after = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    outcomes = len(d.nums)
    assert outcomes == 1024
    for kept in (built, after):
        assert kept / outcomes < 200, kept / outcomes
