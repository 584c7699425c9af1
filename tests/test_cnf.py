import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    FIGURE_CLAUSES,
    FIGURE_DIMACS,
    brute_satisfied_count,
    random_lenient_formula,
)
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
from satmdp.gapsat import bounded_occurrence_transform


def all_assignments(v):
    return itertools.product((-1, 1), repeat=v)


# The line-by-line parser that the whole-text passes replaced, kept as their
# reference. One rule differs from it: only ASCII blanks separate tokens and
# only \n, \r\n and \r end lines, where `str.split` and `str.splitlines`
# also took non-ASCII spaces and the separators \x1c-\x1f for them.
_REF_LINE_END = re.compile(r"\r\n|\r|\n")
_REF_BLANKS = re.compile(r"[ \t\v\f]+")
# int() also reads '+', '_' and non-ASCII digits and spaces, which DIMACS does not have
_REF_NON_DIMACS = re.compile(r"[^0-9-]")


def reference_parse_dimacs(text, strict=True):
    if isinstance(text, bytes):
        try:
            text = text.decode()
        except UnicodeDecodeError as exc:
            line = len(_REF_LINE_END.split((text[:exc.start] + b"x").decode()))
            raise ParseError(f"line {line}: not UTF-8 text "
                             f"(byte 0x{text[exc.start]:02x})") from None
    v = None
    declared_m = None
    int_clauses = []
    ends = []  # line of each clause's terminating 0
    current = []
    for lineno, raw in enumerate(_REF_LINE_END.split(text), start=1):
        line = raw.strip(" \t\v\f")
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if v is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            parts = _REF_BLANKS.split(line)
            try:
                if (len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf"
                        or _REF_NON_DIMACS.search(parts[2] + parts[3])):
                    raise ValueError
                v, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: malformed header {line!r}") from None
            if v < 1 or declared_m < 1:
                raise ParseError(f"line {lineno}: header needs v >= 1 and m >= 1")
            continue
        if v is None:
            raise ParseError(f"line {lineno}: clause before 'p cnf' header")
        for tok in _REF_BLANKS.split(line):
            try:
                if _REF_NON_DIMACS.search(tok):
                    raise ValueError
                lit = int(tok)
            except ValueError:
                raise ParseError(f"line {lineno}: bad token {tok!r}") from None
            if lit == 0:
                int_clauses.append(current)
                ends.append(lineno)
                current = []
            else:
                current.append(lit)
    if current:
        raise ParseError("unterminated clause at end of input")
    if v is None:
        raise ParseError("missing 'p cnf' header")
    if len(int_clauses) != declared_m:
        raise ParseError(
            f"header declares {declared_m} clauses, found {len(int_clauses)}")
    try:
        return formula_from_ints(v, int_clauses, strict=strict)
    except FormulaError as exc:
        raise ParseError(f"line {ends[exc.clause]}: {exc}") from exc


_EDGE_LITERALS = ("0", "-0", "007", str(2**63 - 1), str(-2**63), str(2**63),
                  str(-2**63 - 1), str(10**20), str(-10**20))
_ODD_TOKENS = ("+1", "1-", "--1", "-", "1-2", "1_0", "\xa01", "x", "%")
_BLANK_RUNS = (" ", " ", " ", "\t", "  ", " \v", "\f")
_LINE_ENDS = ("\n",) * 8 + ("\r\n", "\r")
# blanks or refused characters, not line ends
_ODD_LINE_ENDS = ("\v", "\f", "\x1c", "\u2028", "\x85")
_COMMENTS = ("c", "c a comment", "  c 1 2 0", "c \u00e9t\u00e9\x1c\u2028\x85", "cnf 1")


@st.composite
def dimacs_texts(draw):
    """DIMACS text, mostly well formed: clauses of 0-4 literals, in and out
    of range, at the int64 bounds and past them, and tokens DIMACS does not
    have; clauses spread over lines or sharing one; comment lines anywhere;
    a clause count that is right or one off; a header that is first, late,
    doubled or missing, and whose keyword is mostly `p` but may only start
    with it; any blank runs and line ends."""
    v = draw(st.integers(3, 6))
    n = draw(st.integers(1, 4))
    tokens = []
    for _ in range(n):
        if draw(st.integers(0, 3)):  # three distinct variables
            variables = draw(st.lists(st.integers(1, v), min_size=3, max_size=3,
                                      unique=True))
            tokens += [str(draw(st.sampled_from((x, -x)))) for x in variables]
        else:
            for _ in range(draw(st.integers(0, 4))):
                tokens.append(draw(st.one_of(
                    st.integers(-v - 2, v + 2).map(str),
                    st.sampled_from(_EDGE_LITERALS + _ODD_TOKENS))))
        tokens.append("0")
    if draw(st.integers(0, 9)) == 0:
        tokens.pop()  # the last clause unterminated
    lines, line = [], []
    for tok in tokens:
        line.append(tok)
        if draw(st.integers(0, 4)) == 0 or tok == "0" and draw(st.booleans()):
            lines.append(draw(st.sampled_from(_BLANK_RUNS)).join(line))
            line = []
    if line:
        lines.append(" ".join(line))
    declared = n + draw(st.sampled_from((0,) * 8 + (1, -1)))
    header = draw(st.sampled_from(_BLANK_RUNS)).join(
        [draw(st.sampled_from(("p",) * 8 + ("pfoo", "problem"))), "cnf",
         str(draw(st.sampled_from((v,) * 8 + (0, 10**20)))), str(declared)])
    place = draw(st.sampled_from(("first",) * 8 + ("late", "twice", "missing")))
    if place != "missing":
        lines.insert(1 if place == "late" else 0, header)
    if place == "twice":
        lines.insert(draw(st.integers(1, len(lines))), header)
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_COMMENTS)))
    ends = st.sampled_from(_LINE_ENDS + _ODD_LINE_ENDS * (draw(st.integers(0, 3)) == 0))
    return "".join(draw(st.sampled_from(("",) * 4 + (" ", "\t"))) + line + draw(ends)
                   for line in lines)


@settings(max_examples=300, deadline=None)
@given(dimacs_texts(), st.booleans(), st.sampled_from(("str", "utf-8", "0xff")))
def test_parse_matches_the_reference_parser(text, strict, form):
    """The whole-text passes return the reference's formula, or raise a
    ParseError with its text."""
    if form != "str":
        text = text.encode()
    if form == "0xff":
        text = text[:len(text) // 2] + b"\xff" + text[len(text) // 2:]
    try:
        expected = reference_parse_dimacs(text, strict)
    except ParseError as exc:
        with pytest.raises(ParseError) as refused:
            parse_dimacs(text, strict)
        assert str(refused.value) == str(exc)
    else:
        assert parse_dimacs(text, strict) == expected


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


@pytest.mark.parametrize("token", ["+1", "1_0", "\u0661", "\uff11", "\xa01", "1\x1c",
                                   "\u20281", "1\x85", "\x1f1", "1-"])
def test_parse_rejects_tokens_int_reads_but_dimacs_does_not(token):
    # int() reads all but the last of these as a number; only ASCII blanks
    # separate tokens
    with pytest.raises(ParseError, match=f"^line 2: bad token {re.escape(repr(token))}$"):
        parse_dimacs(f"p cnf 12 1\n{token} 2 3 0\n")
    with pytest.raises(ParseError, match="^line 1: malformed header"):
        parse_dimacs(f"p cnf {token} 1\n1 2 3 0\n")


@pytest.mark.parametrize("end", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029"])
def test_parse_ends_lines_only_at_lf_crlf_and_cr(end):
    # \v and \f are blanks; the rest are refused outside comment lines
    with pytest.raises(ParseError, match=re.escape(
            f"line 1: malformed header {'p cnf 3 1' + end + '1 2 3 0'!r}")):
        parse_dimacs(f"p cnf 3 1{end}1 2 3 0\n")


@pytest.mark.parametrize("keyword", ["problem", "pfoo"])
def test_parse_refuses_a_header_keyword_other_than_p(keyword):
    with pytest.raises(ParseError, match=re.escape(
            f"line 1: malformed header '{keyword} cnf 3 1'")):
        parse_dimacs(f"{keyword} cnf 3 1\n1 2 3 0\n")
    assert parse_dimacs("p\tcnf 3 1\n1 2 3 0\n") == formula_from_ints(3, [[1, 2, 3]])


@pytest.mark.parametrize("text", ["p cnf 3 1\n1 2 3 -\n", "p cnf 3 1\n- 1 2 3 0\n"],
                         ids=["as the terminator", "before a literal"])
def test_parse_refuses_a_lone_minus(text):
    with pytest.raises(ParseError, match="^line 2: bad token '-'$"):
        parse_dimacs(text)


def test_parse_rejects_count_mismatch_and_missing_header():
    with pytest.raises(ParseError, match="declares"):
        parse_dimacs("p cnf 3 2\n1 2 3 0\n")
    with pytest.raises(ParseError, match="header"):
        parse_dimacs("1 2 3 0\n")


def test_parse_bytes_decodes_utf8_and_rejects_other_bytes():
    # a comment line holds any UTF-8, and spaces or separators do not end it
    comment = "c \u00e9t\u00e9 \x1c 1 2 3 0 \u2028 p cnf 9 9 \x85\xa0\n"
    assert parse_dimacs((comment + FIGURE_DIMACS).encode()) == \
        parse_dimacs(FIGURE_DIMACS)
    assert parse_dimacs(FIGURE_DIMACS.replace("\n", "\n" + comment, 2).encode()) == \
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
    # a lenient transform output holds clauses of 1, 2 and 3 literals
    lenient = random_lenient_formula(np.random.default_rng(3), 6, 24)
    psi = bounded_occurrence_transform(lenient, 6)
    assert not psi.strict and {int((row != 0).sum()) for row in psi.lits} == {1, 2, 3}
    copy = parse_dimacs(to_dimacs(psi), strict=False)
    assert copy == psi and not copy.lits.flags.writeable


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
    # max-sat really is the max over every assignment, and its witness is the
    # first maximiser in lexicographic order, which brute_force_sat relies on
    counts = [(b, brute_satisfied_count(int_clauses, b)) for b in all_assignments(v)]
    best, witness = brute_force_max_sat(f)
    assert best == max(c for _, c in counts)
    assert satisfied_count(f, witness) == best
    assert witness == next(b for b, c in counts if c == best)
    assert brute_force_sat(f) == next((b for b, c in counts if c == m), None)


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
