"""Property tests: the paper's relations on random protocols under random
input laws, drawn by ``hypothesis`` (derandomized in ``conftest.py``).

The seeded tests elsewhere check these relations under the uniform law;
here every draw also draws its law.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protolab.compression import compress_run, compression_theorem_check
from protolab.lcp import LcpBox
from protolab.measures import (
    TOLERANCE,
    InputDistribution,
    build_joint,
    cc,
    ic,
    measure_protocol,
    pic,
    pic_decomposition,
    product_protocol,
    publicize,
    transcript_entropy,
)
from protolab.errors import ModelViolationError
from protolab.model import (
    ObliviousStructure,
    ProgramDriver,
    _execute,
    bitstrings,
    run,
    run_all,
    run_relaxed,
)
from protolab.treefile import protocol_from_dict
from protolab.zoo import FunctionFamily

import helpers


@st.composite
def table_protocols(draw, k=None, public=None):
    """``helpers.random_table_protocol`` with k in {3, 4}, at most two
    ticks, a drawn private bit count per player and 0 or 1 public bit."""
    k = draw(st.sampled_from((3, 4))) if k is None else k
    return helpers.random_table_protocol(
        draw(st.integers(0, 2**32 - 1)),
        k,
        ticks=draw(st.integers(1, 2)),
        private=tuple(draw(st.lists(st.integers(0, 1), min_size=k,
                                    max_size=k))),
        public=draw(st.integers(0, 1)) if public is None else public,
    )


@st.composite
def tree_protocols(draw):
    """``helpers.random_multiparty_tree_dict`` compiled, with k in {2, 3},
    0 to 2 private tape bits per player and 0 or 1 public bit, so the
    players' tapes often differ in length."""
    k = draw(st.sampled_from((2, 3)))
    return protocol_from_dict(helpers.random_multiparty_tree_dict(
        draw(st.integers(0, 2**32 - 1)),
        k,
        depth=draw(st.integers(1, 3)),
        private=tuple(draw(st.lists(st.integers(0, 2), min_size=k,
                                    max_size=k))),
        public=draw(st.integers(0, 1)),
    ))


@st.composite
def laws(draw, p):
    """``helpers.random_mu`` over p's inputs, from a drawn seed."""
    return helpers.random_mu(random.Random(draw(st.integers(0, 2**32 - 1))), p)


@st.composite
def protocols_with_laws(draw, **protocol_args):
    p = draw(table_protocols(**protocol_args))
    return p, draw(laws(p))


@settings(max_examples=30)
@given(protocols_with_laws(), st.data())
def test_information_relations_hold_on_every_draw(drawn, data):
    p, mu = drawn
    joint = build_joint(p, mu)
    ic_value, pic_value = ic(p, mu, joint=joint), pic(p, mu, joint=joint)
    assert ic_value <= pic_value + TOLERANCE
    assert pic_value <= cc(p) + TOLERANCE
    assert pic_value == pytest.approx(ic(publicize(p), mu), abs=TOLERANCE)
    te = transcript_entropy(p, mu, joint=joint)
    assert te >= (pic_value - ic_value) / p.k - TOLERANCE
    _, random_term = pic_decomposition(p, mu, joint=joint)
    assert random_term <= (
        (p.k - 1) * sum(p.private_tape_lengths) + TOLERANCE
    )
    table = run_all(p)
    (x, privs, pub), e = data.draw(st.sampled_from(sorted(table.items())))
    assert run(p, x, privs, pub) == e


@settings(max_examples=10)
@given(st.sampled_from((3, 4)).flatmap(
    lambda k: st.tuples(protocols_with_laws(k=k, public=0),
                        protocols_with_laws(k=k, public=0))))
def test_ic_and_cc_add_up_over_products(pair):
    (p, mu_p), (q, mu_q) = pair
    prod = product_protocol(p, q)
    mu = InputDistribution.product(mu_p, mu_q)
    assert ic(prod, mu) == pytest.approx(ic(p, mu_p) + ic(q, mu_q),
                                         abs=TOLERANCE)
    assert cc(prod) == cc(p) + cc(q)


@settings(max_examples=20)
@given(protocols_with_laws(public=0))
def test_exact_compression_keeps_the_error_and_stays_within_ic(drawn):
    p, mu = drawn
    p = publicize(p)
    zeros = FunctionFamily("zeros", (lambda x: "0",) * p.k)
    report = compression_theorem_check(p, mu, 0.1, zeros)
    assert report.measured_error == report.original_error
    assert report.expected_stages <= report.ic_original + TOLERANCE


@settings(max_examples=40)
@given(protocols_with_laws(public=0))
def test_every_exact_run_stays_within_its_weight_bound(drawn):
    # Each move at least halves the mover's node weight, and the node
    # always holds the true leaf, so the bound holds run by run.
    p, mu = drawn
    p = publicize(p)
    struct = ObliviousStructure.build(p)
    trees: dict = {}
    for x in mu.inputs:
        for pub in bitstrings(p.public_tape_length):
            r = compress_run(p, mu, x, pub, LcpBox(mode="exact"),
                             structure=struct, trees=trees)
            assert r.stages <= r.log_weight_bound + TOLERANCE
            for i in p.players:
                tree = trees[(i, x[i - 1], pub)]
                assert r.moves_per_player[i] <= math.log2(
                    tree.root.weight / tree.reached[x].weight) + 1


def bitstrings_of(length):
    return st.lists(st.sampled_from("01"), min_size=length,
                    max_size=length).map("".join)


def first_input(k, undo=None):
    """f_i(x) = player 1's input, read through ``undo`` if given."""
    read = (lambda v: v) if undo is None else undo.__getitem__
    return FunctionFamily("first-input", (lambda x: read(x[0]),) * k)


def assert_same_measures(a, b):
    assert (b.cc, b.acc) == (a.cc, a.acc)
    for name in ("ic", "pic", "pic_random_term", "transcript_entropy",
                 "spy_info", "privacy_leakage"):
        assert getattr(b, name) == pytest.approx(getattr(a, name),
                                                 abs=TOLERANCE), name


@settings(max_examples=30)
@given(protocols_with_laws(), st.data())
def test_masking_the_tapes_changes_no_measure(drawn, data):
    p, mu = drawn
    masks = tuple(data.draw(bitstrings_of(n)) for n in p.private_tape_lengths)
    masked = helpers.xor_tapes(p, masks,
                               data.draw(bitstrings_of(p.public_tape_length)))
    family = first_input(p.k)
    assert_same_measures(measure_protocol(p, mu, family),
                         measure_protocol(masked, mu, family))


@settings(max_examples=30)
@given(protocols_with_laws(), st.data())
def test_relabeling_the_inputs_changes_no_measure(drawn, data):
    p, mu = drawn
    labels = st.sampled_from(("0", "1", "00", "01", "10", "11"))
    relabel = tuple(
        dict(zip(dom, data.draw(st.lists(labels, min_size=len(dom),
                                         max_size=len(dom), unique=True))))
        for dom in p.input_domains
    )
    q, nu = helpers.relabel_inputs(p, mu, relabel)
    undo = {new: old for old, new in relabel[0].items()}
    assert_same_measures(measure_protocol(p, mu, first_input(p.k)),
                         measure_protocol(q, nu, first_input(p.k, undo)))


@settings(max_examples=60)
@given(tree_protocols())
def test_a_table_position_is_the_execution_a_fresh_run_gives(p):
    # The table stores no keys: an execution's inputs and tapes are read
    # off its position, so every position must hold the run on its key.
    table = run_all(p)
    assert len(table) == helpers.execution_count(p)
    keys = []
    for key, e in table.items():
        assert table.get(*key) == run(p, *key) == e
        keys.append(key)
    assert keys == [(x, privs, pub) for x in p.input_space()
                    for privs, pub in p.tape_space()]


@settings(max_examples=100)
@given(st.one_of(tree_protocols(), table_protocols()))
def test_the_engine_gives_every_execution_the_model_gives(p):
    # The oracle calls every program on every view, with no trie and no
    # driver, so a trie walk that skips, repeats or misplaces a round
    # shows up as a record that differs.
    table = run_all(p)
    oracle = []
    for key, e in table.items():
        oracle.append(helpers.reference_execute(p, *key))
        assert e.records == oracle[-1], key
    assert table.codebooks == helpers.codebooks_of(oracle)


def _outcome(execute):
    """The records of a run, or the type of the model error it raised."""
    try:
        return execute()
    except ModelViolationError as err:
        return type(err)


class _Replayed:
    """One schedule as a single iterator that drivers share, replayed from
    its start by ``rewind`` before each execution."""

    def __init__(self, schedule):
        self.schedule = schedule
        self.rewind()

    def rewind(self):
        self.left = iter(self.schedule)

    def __iter__(self):
        return self

    def __next__(self):
        return next(self.left)


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1), st.integers(3, 4), st.integers(1, 3),
       st.lists(st.integers(1, 4), max_size=12))
def test_relaxed_runs_follow_the_model_under_any_schedule(seed, k, ticks,
                                                          schedule):
    # Wait-any reads draw from one schedule iterator that every driver
    # shares, so a driver that loses its place, or a sweep that skips a
    # player, reads a different sender.  A fresh run meets every view once;
    # drivers kept across the inputs also walk views their tries hold.
    p = helpers.random_relaxed_protocol(seed, k, ticks)
    replayed = _Replayed(schedule)
    drivers = [ProgramDriver(p, i, replayed) for i in p.players]
    no_tapes = ("",) * k
    for x in p.input_space():
        replayed.rewind()
        kept = _outcome(lambda: _execute(x, no_tapes, "", drivers))
        fresh = _outcome(lambda: run_relaxed(p, x, schedule=schedule).records)
        oracle = _outcome(lambda: helpers.reference_execute(
            p, x, schedule=schedule))
        assert kept == fresh == oracle, x
