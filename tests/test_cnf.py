import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIGURE_CLAUSES, FIGURE_DIMACS, brute_satisfied_count
from satmdp.cnf import (
    EXHAUSTIVE_LIMIT,
    assignment_from_mask,
    brute_force_max_sat,
    brute_force_sat,
    formula_from_ints,
    gap_threshold_count,
    hamming,
    mask_from_assignment,
    occurrence_bound,
    parse_dimacs,
    satisfied_count,
    to_dimacs,
)
from satmdp.errors import FormulaError, ParseError, ResourceLimitError


def all_assignments(v):
    return itertools.product((-1, 1), repeat=v)


def test_parse_figure_formula():
    f = parse_dimacs(FIGURE_DIMACS)
    assert f.v == 5 and f.m == 5
    assert f == formula_from_ints(5, FIGURE_CLAUSES)


def test_parse_rejects_short_clause_in_strict_mode():
    with pytest.raises(ParseError, match="^line 2: clause 0 must have 3 distinct"):
        parse_dimacs("p cnf 1 1\n1 0\n")
    # lenient mode accepts it
    f = parse_dimacs("p cnf 1 1\n1 0\n", strict=False)
    assert f.m == 1 and not f.strict


def test_parse_rejects_variable_out_of_range():
    with pytest.raises(ParseError,
                       match=r"^line 2: clause 0: variable 6 out of range \(v=5\)$"):
        parse_dimacs("p cnf 5 1\n1 2 6 0\n")


def test_parse_errors_name_the_line():
    with pytest.raises(ParseError, match="line 3"):
        parse_dimacs("c comment\np cnf 3 1\n1 2 xyz 0\n")


@pytest.mark.parametrize("text, strict, message", [
    ("p cnf 3 1\n1 1 2 0\n", True,
     r"^line 2: clause 0 must have 3 distinct variables in strict mode$"),
    # a clause is named by the line of its terminating 0
    ("p cnf 3 2\n1 2 3 0\nc note\n-1\n2 4 0\n", True,
     r"^line 5: clause 1: variable 4 out of range \(v=3\)$"),
    ("p cnf 3 1\n1 2 3 -1 0\n", False, r"^line 2: clause 0 has 4 literals$"),
    ("p cnf 3 2\n1 2 3 0\n\n0\n", False, r"^line 4: clause 1 has 0 literals$"),
    ("p cnf 5 1\n1 2 -9223372036854775808 0\n", True,
     r"^line 2: clause 0: variable 9223372036854775808 out of range \(v=5\)$"),
], ids=["repeated", "spans-lines", "long", "empty", "int64-min"])
def test_clause_errors_name_their_line(text, strict, message):
    with pytest.raises(ParseError, match=message):
        parse_dimacs(text, strict=strict)


@pytest.mark.parametrize("token", ["+1", "1_0", "\u0661", "\uff11", "1-"])
def test_parse_rejects_tokens_int_reads_but_dimacs_does_not(token):
    # int() reads all but the last of these as a number
    with pytest.raises(ParseError, match=f"^line 2: bad token {re.escape(repr(token))}$"):
        parse_dimacs(f"p cnf 12 1\n{token} 2 3 0\n")
    with pytest.raises(ParseError, match="^line 1: malformed header"):
        parse_dimacs(f"p cnf {token} 1\n1 2 3 0\n")


def test_parse_rejects_count_mismatch_and_missing_header():
    with pytest.raises(ParseError, match="declares"):
        parse_dimacs("p cnf 3 2\n1 2 3 0\n")
    with pytest.raises(ParseError, match="header"):
        parse_dimacs("1 2 3 0\n")


def test_parse_bytes_decodes_utf8_and_rejects_other_bytes():
    assert parse_dimacs(("c \u00e9t\u00e9\n" + FIGURE_DIMACS).encode()) == \
        parse_dimacs(FIGURE_DIMACS)
    with pytest.raises(ParseError, match="line 2: not UTF-8 text"):
        parse_dimacs(b"p cnf 3 1\n1 2 3 \xff 0\n")
    with pytest.raises(ParseError, match="line 3: not UTF-8 text"):
        parse_dimacs(b"c old line ends\rp cnf 3 1\r1 2 \xe9 0\r")


def test_parse_refuses_literals_beyond_int64():
    big = 10**20
    with pytest.raises(ParseError,
                       match="^line 2: clause 0: a literal exceeds the int64 range$"):
        parse_dimacs(f"p cnf {big} 1\n{big} 1 2 0\n")


def test_roundtrip_fixed(figure_formula):
    assert parse_dimacs(to_dimacs(figure_formula)) == figure_formula


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_roundtrip_random(data):
    v = data.draw(st.integers(3, 8))
    m = data.draw(st.integers(1, 10))
    int_clauses = []
    for _ in range(m):
        variables = data.draw(
            st.lists(st.integers(1, v), min_size=3, max_size=3, unique=True))
        signs = data.draw(st.lists(st.booleans(), min_size=3, max_size=3))
        int_clauses.append([(-x if neg else x) for x, neg in zip(variables, signs)])
    f = formula_from_ints(v, int_clauses)
    assert parse_dimacs(to_dimacs(f)) == f


def test_satisfied_count_figure(figure_formula):
    for a in [(-1, 1, -1, -1, -1), (-1, 1, 1, 1, 1), (1, 1, 1, 1, 1)]:
        assert satisfied_count(figure_formula, a) == brute_satisfied_count(
            FIGURE_CLAUSES, a)
    # frozen oracle values for the two assignments Figure 1 walks through
    assert satisfied_count(figure_formula, (-1, 1, -1, -1, -1)) == 2
    assert satisfied_count(figure_formula, (-1, 1, 1, 1, 1)) == 3


def test_occurrence_bound(figure_formula):
    # variable a sits in clauses 0, 2, 3, 4
    assert occurrence_bound(figure_formula) == 4
    single = formula_from_ints(3, [[1, 2, 3]])
    assert occurrence_bound(single) == 1


def test_brute_force_sat_agrees_with_enumeration(figure_formula):
    f = figure_formula
    expected = None
    for a in all_assignments(f.v):
        if brute_satisfied_count(FIGURE_CLAUSES, a) == f.m:
            expected = a
            break
    got = brute_force_sat(f)
    assert got == expected
    assert satisfied_count(f, got) == f.m


def test_brute_force_sat_unsat_and_tautology():
    contradiction = formula_from_ints(2, [[1], [-1], [2]], strict=False)
    assert brute_force_sat(contradiction) is None
    taut = formula_from_ints(2, [[1, -1, 2]], strict=False)
    assert brute_force_sat(taut) == (-1, -1)  # all-false is lexicographically first


def test_brute_force_max_sat(figure_formula):
    best, witness = brute_force_max_sat(figure_formula)
    counts = [brute_satisfied_count(FIGURE_CLAUSES, a)
              for a in all_assignments(5)]
    assert best == max(counts) == 5
    assert satisfied_count(figure_formula, witness) == best

    contradiction = formula_from_ints(1, [[1], [-1]], strict=False)
    best, _ = brute_force_max_sat(contradiction)
    assert best == contradiction.m - 1

    # more clauses than a uint16 counter holds: the count must not wrap
    copies = formula_from_ints(3, [[1, 2, 3]] * 65_536)
    best, witness = brute_force_max_sat(copies)
    assert best == satisfied_count(copies, witness) == 65_536


def test_exhaustive_limit_refusal():
    f = formula_from_ints(30, [[1, 2, 3]] * 30)
    with pytest.raises(ResourceLimitError):
        brute_force_sat(f)
    with pytest.raises(ResourceLimitError):
        brute_force_max_sat(f)
    assert EXHAUSTIVE_LIMIT == 24


@pytest.mark.parametrize("m, epsilon, count", [
    (5, 0.25, 4), (16, 1 / 16, 16), (3, 1 / 3, 3), (8, 0.25, 7), (1, 0.5, 1)])
def test_gap_threshold_count(m, epsilon, count):
    # more than a (1 - epsilon) fraction: one past (1 - epsilon) m when it is whole
    assert gap_threshold_count(m, epsilon) == count


def test_formula_validation():
    with pytest.raises(FormulaError):
        formula_from_ints(3, [])  # m >= 1
    with pytest.raises(FormulaError):
        formula_from_ints(3, [[1, 2]])  # strict needs 3 distinct
    with pytest.raises(FormulaError):
        formula_from_ints(3, [[1, 1, 2]])  # repeated variable
    with pytest.raises(FormulaError):
        formula_from_ints(3, [[1, 2, 4]])  # out of range
    with pytest.raises(FormulaError):
        formula_from_ints(3, [[1, 2, 0]])  # literal 0 reserved


def test_formula_errors_name_the_first_bad_clause():
    with pytest.raises(FormulaError, match=r"^clause 1: variable 4 out of range \(v=3\)$"):
        formula_from_ints(3, [[1, 2, 3], [1, -4, 2], [1, 2]])
    with pytest.raises(FormulaError, match="^clause 0 has 4 literals$"):
        formula_from_ints(3, [[1, 2, 3, 9], [1, 2]], strict=False)
    with pytest.raises(FormulaError, match="^clause 1 has 0 literals$"):
        formula_from_ints(3, [[1], [], [7]], strict=False)
    with pytest.raises(FormulaError, match="^clause 2 must have 3 distinct"):
        formula_from_ints(3, [[1, 2, 3], [-1, 2, 3], [1, -1, 2]])
    with pytest.raises(FormulaError, match="literal 0"):
        formula_from_ints(3, [[1, 2, 4], [1, 2, 3, 0]])
    # np.abs(-2**63) is negative, so the range check must not take it
    with pytest.raises(FormulaError, match=r"^clause 1: variable 9223372036854775808 "
                                           r"out of range \(v=5\)$") as refused:
        formula_from_ints(5, [[1, 2, 3], [1, 2, -2**63]])
    assert refused.value.clause == 1


@pytest.mark.parametrize("v, int_clauses, strict", [
    (5, FIGURE_CLAUSES, True),
    (4, [[2], [-1, 3], [4, -4, 1], [-3, -3]], False),
])
def test_clause_view_matches_the_literal_array(v, int_clauses, strict):
    """`Formula.clauses` is the view readers outside the package build their
    own clause lists from; it must agree with `lits`, padding dropped."""
    f = formula_from_ints(v, int_clauses, strict=strict)
    assert f.lits.shape == (len(int_clauses), 3)
    view = [[(lit.var, lit.negated) for lit in c.literals] for c in f.clauses]
    assert view == [[(abs(x) - 1, x < 0) for x in row if x]
                    for row in f.lits.tolist()]
    assert view == [[(abs(x) - 1, x < 0) for x in row] for row in int_clauses]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_satisfied_count_matches_oracle_random(data):
    v = data.draw(st.integers(2, 7))
    m = data.draw(st.integers(1, 8))
    int_clauses = []
    for _ in range(m):
        width = data.draw(st.integers(1, 3))
        lits = data.draw(st.lists(
            st.integers(-v, v).filter(lambda x: x != 0),
            min_size=width, max_size=width))
        int_clauses.append(lits)
    f = formula_from_ints(v, int_clauses, strict=False)
    a = tuple(data.draw(st.sampled_from((-1, 1))) for _ in range(v))
    assert satisfied_count(f, a) == brute_satisfied_count(int_clauses, a)
    # max-sat really is the max over every assignment
    best, witness = brute_force_max_sat(f)
    assert best == max(brute_satisfied_count(int_clauses, b)
                       for b in all_assignments(v))
    assert satisfied_count(f, witness) == best


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from((-1, 1)), min_size=1, max_size=16))
def test_mask_roundtrip(bits):
    a = tuple(bits)
    assert assignment_from_mask(mask_from_assignment(a), len(a)) == a


def test_hamming_matches_tuple_distance():
    a = (-1, 1, 1, -1)
    b = (1, 1, -1, -1)
    direct = sum(x != y for x, y in zip(a, b))
    assert hamming(mask_from_assignment(a), mask_from_assignment(b)) == direct
