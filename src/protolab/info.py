"""Exact finite joint distributions and entropy/mutual-information measures.

Weights are positive integer numerators over one common integer denominator
``den``, so every probability is still an exact rational.
``law_numerators`` is the one rule that turns exact weights (ints and
``Fraction``s) into such numerators, and ``check_total`` the one check,
shared with ``measures.InputDistribution``, that they sum to a positive int
``den``.  Floating point enters only through ``n / den`` (a weight) and ``math.log2`` of an exact
integer ratio; Python's ``int / int`` is correctly rounded, so each of these
is the double nearest the exact value.  Every measure is therefore a sum of
terms ``p * log2(ratio)`` where both ``p`` and ``ratio`` are exact rationals,
which keeps conditional decompositions free of drift.  One such sum serves
every measure: I(A ; B | C), then H(A | C) at B = A and H(A) at C = {}.

A joint stores each outcome as one packed int, and nothing else per
outcome.  Its constructor codes each variable's values as 0..m-1, in the
order the outcomes first reach them, as the outcomes arrive; it then
gives each variable its own bit field and packs every outcome into one
int.  ``rows``, ``counts``, ``marginal``, ``condition`` and
``apply_function`` decode from these rows and one value table per
variable.  A selector is the OR of its variables' field masks, and an
outcome's key in a marginal is ``row & mask``.  One kernel call
(``mutual_infos`` takes several triples) counts each marginal it needs
once, from the smallest marginal it has already counted whose mask covers
it (or from the packed rows), and its memo is freed when the call
returns; ``counts`` is one such call.

Conventions:
  * ``0 * log(1/0) = 0`` (outcomes with zero conditional mass are skipped);
  * mutual information is clamped to ``0.0`` when the float residue is a
    rounding artifact in ``(-1e-12, 0)``; anything more negative raises,
    because it would indicate a real bug rather than rounding.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import or_
from typing import Any

from .errors import InvariantError

#: Raw mutual-information sums below this are treated as rounding residue.
NEGATIVE_RESIDUE = 1e-12

Outcome = tuple[Any, ...]

#: Outcomes the constructor reads and codes at a time.
_BLOCK = 1024


def exact_weight(w: Any) -> int | Fraction:
    """``w`` if it is an exact rational weight, an int or a ``Fraction``;
    a bool, float, str or anything else raises ``TypeError``."""
    if type(w) is bool or not isinstance(w, (int, Fraction)):
        raise TypeError(f"weights must be exact rationals, got {type(w).__name__}")
    return w


def law_numerators(
    weights: Mapping[Outcome, Any] | Iterable[tuple[Outcome, Any]],
) -> tuple[tuple[Outcome, ...], tuple[int, ...], int]:
    """The one rule that turns weights into an exact law.

    ``weights`` is ``{outcome: weight}`` or ``(outcome, weight)`` pairs,
    each weight checked by ``exact_weight``.  Returns ``(outcomes, nums,
    den)``: the outcomes as tuples, in the order given, each weight's
    integer numerator over ``den``, and ``den``, the lcm of the weights'
    denominators.  Signs, zeros and repeats are the caller's to check.
    """
    pairs = weights.items() if isinstance(weights, Mapping) else weights
    outcomes, values = [], []
    for outcome, w in pairs:
        outcomes.append(tuple(outcome))
        values.append(exact_weight(w))
    den = math.lcm(*(w.denominator for w in values))
    return (tuple(outcomes),
            tuple([w.numerator * (den // w.denominator) for w in values]), den)


def check_total(nums: tuple[int, ...], den: int) -> None:
    """The total check both law types share: ``den`` is a positive int and
    the numerators sum to it."""
    if type(den) is not int or den <= 0:
        raise ValueError("the weight denominator must be a positive int")
    total = sum(nums)
    if total != den:
        raise ValueError(f"weights sum to {Fraction(total, den)}, not 1")


class JointDistribution:
    """Probability mass over tuples of named discrete variables.

    ``variables`` gives the coordinate order of every outcome tuple.
    Outcome ``rows[j]`` has probability ``nums[j] / den``; the numerators
    are positive ints summing to exactly ``den``.  ``rows`` may be any
    iterable: it is read once, ``_BLOCK`` outcomes at a time, and only
    the packed rows are kept.  Variable ``v`` holds its value's code in
    the bit field ``_masks[v]`` of each packed row, and ``_values[v]``
    lists its values by code; a value equal to an earlier one (``1`` and
    ``True``) shares its code and reads back as the earlier one.
    """

    def __init__(self, variables: Iterable[str], rows: Iterable[Outcome],
                 nums: Iterable[int], den: int):
        self.variables = variables = tuple(variables)
        if not variables:
            raise ValueError("a distribution needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        self.nums = nums = tuple(nums)
        tables: list[dict[Any, int]] = [{} for _ in variables]
        # Each variable's codes, one chunk per block: bytes while the
        # variable has at most 256 values, a list of ints after.
        columns: list[list] = [[] for _ in variables]
        count, outcomes = 0, iter(rows)
        for block in iter(lambda: list(islice(outcomes, _BLOCK)), []):
            weights = nums[count:count + len(block)]
            count += len(block)
            # An outcome past the last weight is refused after the loop.
            for values, n in zip(block, weights):
                if len(values) != len(variables):
                    raise ValueError(
                        f"outcome {values!r} has arity {len(values)}, "
                        f"expected {len(variables)}"
                    )
                if type(n) is not int:
                    raise ValueError("weight numerators must be ints")
                if n <= 0:
                    raise ValueError(f"outcome {values!r} has non-positive weight")
            for table, column, values in zip(tables, columns, zip(*block)):
                # A value new to its table takes the table's size: the next code.
                codes = list(map(table.setdefault, values, map(len, repeat(table))))
                column.append(bytes(codes) if len(table) <= 256 else codes)
        if not count:
            raise ValueError("a distribution needs at least one outcome")
        if count != len(nums):
            raise ValueError("every outcome needs exactly one weight")
        # A variable with m values gets max(1, (m - 1).bit_length()) bits.
        self._rows: list[int] = [0] * count
        self._masks: dict[str, int] = {}
        self._values: dict[str, tuple] = {}
        shift = 0
        for name, table, column in zip(variables, tables, columns):
            shifted = [code << shift for code in range(len(table))]
            codes = map(shifted.__getitem__, chain.from_iterable(column))
            self._rows = list(map(or_, self._rows, codes))
            column.clear()
            width = max(1, (len(table) - 1).bit_length())
            self._masks[name] = ((1 << width) - 1) << shift
            self._values[name] = tuple(table)
            shift += width
        if len(set(self._rows)) != count:
            seen: set[int] = set()
            row = next(r for r in self._rows if r in seen or seen.add(r))
            raise ValueError(f"duplicate outcome {self._decoder(variables)(row)!r}")
        check_total(nums, den)
        self.den = den

    @classmethod
    def from_mapping(
        cls, variables: Iterable[str], weights: Mapping[Outcome, Any]
    ) -> "JointDistribution":
        """Joint law from ``{outcome: exact weight}``, through
        ``law_numerators``."""
        return cls(variables, *law_numerators(weights))

    @property
    def rows(self) -> tuple[Outcome, ...]:
        """The outcome tuples, decoded on each read."""
        return tuple(map(self._decoder(self.variables), self._rows))

    @property
    def outcomes(self) -> tuple[tuple[Outcome, Fraction], ...]:
        """``(value_tuple, weight)`` pairs with exact ``Fraction`` weights."""
        return tuple(zip(self.rows, map(Fraction, self.nums, repeat(self.den))))

    # -- selectors ---------------------------------------------------------

    def resolve(self, selector: str | Iterable[str]) -> tuple[str, ...]:
        """Normalize a selector to variable names in distribution order."""
        names = (selector,) if isinstance(selector, str) else tuple(selector)
        if not names:
            raise ValueError("empty variable selector")
        unknown = [n for n in names if n not in self.variables]
        if unknown:
            raise ValueError(f"unknown variable name(s): {unknown}")
        chosen = set(names)
        return tuple(n for n in self.variables if n in chosen)

    def _decoder(self, names: Iterable[str]) -> Callable[[int], Outcome]:
        """Function mapping a packed row, or a key whose mask covers
        ``names``, to the values of ``names``."""
        fields = []
        for n in names:
            mask = self._masks[n]
            fields.append((mask, (mask & -mask).bit_length() - 1, self._values[n]))
        return lambda row: tuple([
            values[(row & mask) >> shift] for mask, shift, values in fields
        ])

    def counts(self, selector: str | Iterable[str]) -> dict[Outcome, int]:
        """Marginal numerators over ``den`` of the selected variables, keyed
        in the order the outcomes first reach each key."""
        names = self.resolve(selector)
        mask = sum(self._masks[n] for n in names)
        decode = self._decoder(names)
        return {decode(key): n for key, n in _marginals(self, [mask])[mask].items()}

    def marginal(self, selector: str | Iterable[str]) -> dict[Outcome, Fraction]:
        """Exact marginal mass over the selected variables."""
        return {key: Fraction(n, self.den) for key, n in self.counts(selector).items()}

    def condition(self, assignment: Mapping[str, Any]) -> "JointDistribution":
        """Renormalized distribution given ``variable == value`` constraints.

        Conditioned variables are kept (as constants) so selectors written
        against the original distribution keep working.  The kept outcomes
        keep their numerators; the denominator becomes their total.
        """
        for n in assignment:
            if n not in self.variables:
                raise ValueError(f"unknown variable name: {n}")
        pick, wanted = self._decoder(assignment), tuple(assignment.values())
        kept = [(row, n) for row, n in zip(self._rows, self.nums)
                if pick(row) == wanted]
        if not kept:
            raise ValueError(f"conditioning event {dict(assignment)!r} has zero mass")
        rows, nums = zip(*kept)
        decode = self._decoder(self.variables)
        return JointDistribution(self.variables, map(decode, rows), nums, sum(nums))


def _marginals(
    d: JointDistribution, masks: Iterable[int]
) -> dict[int, dict[int, int]]:
    """Numerators over ``den`` of the marginal at each packed mask, keyed by
    ``row & mask`` in the order the outcomes first reach each key.

    Each new mask is counted from the smallest marginal already counted
    whose mask covers it, or from the packed rows; the sub-keys of a
    superset come in its key order, so first-reach order is kept.
    """
    rows = d._rows
    memo = {0: {0: d.den}}
    for mask in masks:
        if mask in memo:
            continue
        source = min(
            (m for s, m in memo.items() if s & mask == mask),
            key=len, default=None,
        )
        pairs = source.items() if source is not None else zip(rows, d.nums)
        out: dict[int, int] = {}
        get = out.get
        for key, n in pairs:
            key &= mask
            out[key] = get(key, 0) + n
        memo[mask] = out
    return memo


def _info_sums(d: JointDistribution, triples) -> list[float]:
    """The raw sum ``sum p(abc) * log2(p(abc) p(c) / (p(ac) p(bc)))`` on
    integer numerators, where the den factors cancel, for each resolved
    ``(a, b, c)``.  A selector is the OR of its variables' field masks, so
    an abc key projects to its ac, bc and c keys with one AND each; the
    marginals come from one ``_marginals`` memo, freed on return."""
    fields = d._masks
    groups = []
    for a, b, c in triples:
        m_a, m_b, m_c = (sum(fields[n] for n in g) for g in (a, b, c))
        groups.append((m_a | m_b | m_c, m_a | m_c, m_b | m_c, m_c))
    memo = _marginals(d, (m for group in groups for m in group))
    den = d.den
    sums = []
    for m_abc, m_ac, m_bc, m_c in groups:
        n_ac, n_bc, n_c = memo[m_ac], memo[m_bc], memo[m_c]
        total = 0.0
        for key, w in memo[m_abc].items():
            num = w * n_c[key & m_c]
            dnm = n_ac[key & m_ac] * n_bc[key & m_bc]
            if num != dnm:
                total += (w / den) * math.log2(num / dnm)
        sums.append(total)
    return sums


def entropy(d: JointDistribution, selector: str | Iterable[str]) -> float:
    """Shannon entropy H(A) in bits of the selected marginal: H(A | {})."""
    a = d.resolve(selector)
    return _info_sums(d, [(a, a, ())])[0]


def cond_entropy(
    d: JointDistribution,
    selector: str | Iterable[str],
    given: str | Iterable[str],
) -> float:
    """Conditional entropy H(A | C) in bits: the information sum at B = A.

    Overlapping selectors are allowed; shared variables contribute nothing
    (H(X | X) = 0), matching the expectation-over-conditionals definition.
    """
    a = d.resolve(selector)
    return _info_sums(d, [(a, a, d.resolve(given))])[0]


def mutual_infos(d: JointDistribution, triples) -> list[float]:
    """Conditional mutual informations I(A ; B | C) in bits, non-negative,
    one per ``(A, B, C)`` selector triple (C may be None).

    One call counts each marginal its triples share once.  Each triple's
    selectors must be disjoint.  Raises if a raw sum falls below
    ``-NEGATIVE_RESIDUE``.
    """
    resolved = []
    for a_sel, b_sel, given in triples:
        a = d.resolve(a_sel)
        b = d.resolve(b_sel)
        c = d.resolve(given) if given is not None else ()
        for g, h in ((a, b), (a, c), (b, c)):
            shared = set(g) & set(h)
            if shared:
                raise ValueError(f"overlapping selectors: {sorted(shared)}")
        resolved.append((a, b, c))
    out = []
    for total in _info_sums(d, resolved):
        if total < 0.0:
            if total < -NEGATIVE_RESIDUE:
                raise InvariantError(
                    f"mutual information evaluated to {total}; "
                    "residue exceeds the rounding tolerance"
                )
            total = 0.0
        out.append(total)
    return out


def mutual_info(
    d: JointDistribution,
    a_sel: str | Iterable[str],
    b_sel: str | Iterable[str],
    given: str | Iterable[str] | None = None,
) -> float:
    """Conditional mutual information I(A ; B | C) in bits, non-negative:
    ``mutual_infos`` of the one triple."""
    return mutual_infos(d, [(a_sel, b_sel, given)])[0]


def apply_function(
    d: JointDistribution,
    selector: str | Iterable[str],
    f: Mapping[Any, Any] | Callable[[Outcome], Any],
    new_name: str,
) -> JointDistribution:
    """Extend the distribution with a derived variable ``new_name = f(A)``.

    ``f`` may be a finite map or a callable; a map must be total on the
    marginal support of the selector (for single-variable selectors bare
    values are accepted as keys).  Original marginals are unchanged.
    """
    if new_name in d.variables:
        raise ValueError(f"variable {new_name!r} already exists")
    names = d.resolve(selector)

    def evaluate(key: Outcome) -> Any:
        if callable(f):
            return f(key)
        if key in f:
            return f[key]
        if len(key) == 1 and key[0] in f:
            return f[key[0]]
        raise ValueError(f"function not total on support: missing {key!r}")

    key_of, decode = d._decoder(names), d._decoder(d.variables)
    rows = (decode(row) + (evaluate(key_of(row)),) for row in d._rows)
    return JointDistribution(d.variables + (new_name,), rows, d.nums, d.den)
