"""3-CNF formulas: DIMACS parsing, array-backed clauses, exhaustive SAT / Max-SAT oracles.

A formula holds its clauses as one read-only (m, 3) int64 array `lits` of
signed 1-based DIMACS literals: variable i (0-based) true is i + 1, false is
-(i + 1). The 1- and 2-literal clauses that only lenient formulas have are
padded with trailing 0s. `formula_from_ints` is the constructor and checks the
clauses; `Formula.clauses` rebuilds them as `Clause`/`Literal` tuples on every
access, for readers outside the package.

`parse_dimacs` decides every input in whole-text passes: numpy reads all the
clause tokens at once and cuts the clauses at their zeros, and the checks
`formula_from_ints` makes run on that flat array. Outside comment lines the
text is ASCII: only space, tab, vertical tab and form feed separate tokens, and
lines end only at LF, CRLF or CR. Text the passes refuse is walked line by
line, only to name its first error.

Assignments are tuples over {-1, +1}: -1 is false, +1 is true. One exhaustive
Max-SAT sweep counts the unsatisfied clauses of all 2^v assignments with numpy,
mapping variable 0 to the most significant bit so that numeric index order
equals lexicographic order with false < true. Its witness is the first
maximiser, so it also answers SAT: when it satisfies every clause, it is the
lexicographically smallest satisfying assignment.
"""
from __future__ import annotations

import math
import re
import warnings
from fractions import Fraction
from itertools import chain
from typing import NamedTuple, NoReturn

import numpy as np

from .errors import FormulaError, InvariantViolation, ParseError, ResourceLimitError

FALSE = -1
TRUE = 1

#: Largest v the exhaustive oracles accept (2^24 sweeps, seconds-scale).
EXHAUSTIVE_LIMIT = 24

Assignment = tuple


class Literal(NamedTuple):
    var: int        # 0-based variable
    negated: bool


class Clause(NamedTuple):
    literals: tuple  # of Literal


class Formula:
    """Array-backed CNF formula; build it with `formula_from_ints`.

    ``lits`` is the read-only (m, 3) literal array described above.
    ``strict`` marks that every clause has exactly 3 literals on 3 distinct
    variables, which the MDP construction requires; lenient formulas (1..3
    literals, repeats allowed) only occur inside the bounded-occurrence
    transform and its tests. Nothing in it is sized by ``v``, so a header may
    declare far more variables than the clauses use.
    """

    __slots__ = ("v", "lits", "strict")

    def __init__(self, v: int, lits: np.ndarray, strict: bool):
        lits.flags.writeable = False
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "lits", lits)
        object.__setattr__(self, "strict", strict)

    def __setattr__(self, name, value):
        raise AttributeError("Formula is immutable")

    @property
    def m(self) -> int:
        return len(self.lits)

    @property
    def clauses(self) -> tuple:
        """The clauses as `Clause(literals)` of `Literal(var, negated)`."""
        return tuple(Clause(tuple(Literal(abs(x) - 1, x < 0) for x in row if x))
                     for row in self.lits.tolist())

    def __eq__(self, other):
        return (isinstance(other, Formula) and self.v == other.v
                and self.strict == other.strict
                and np.array_equal(self.lits, other.lits))

    def __hash__(self):
        return hash((self.v, self.lits.tobytes()))

    def __repr__(self):
        return f"Formula(v={self.v}, m={self.m}, strict={self.strict})"


def formula_from_ints(v: int, int_clauses, strict: bool = True) -> Formula:
    """Build a formula from signed 1-based literal lists (DIMACS convention).

    Raises FormulaError for a literal 0 anywhere, v < 1, no clauses, or else
    for the first clause that has a literal outside int64, no or more than 3
    literals, a variable out of range or, in strict mode, fewer than 3
    distinct variables; the error's `clause` is that clause's index.
    """
    rows = list(int_clauses)
    widths = np.fromiter(map(len, rows), np.int64, len(rows))
    try:
        flat = np.fromiter(chain.from_iterable(rows), np.int64, int(widths.sum()))
    except OverflowError:
        ci = next(ci for ci, row in enumerate(rows)
                  if not all(-2**63 <= x < 2**63 for x in row))
        raise FormulaError(f"clause {ci}: a literal exceeds the int64 range",
                           ci) from None
    return _formula_from_flat(v, flat, widths, strict)


def _formula_from_flat(v: int, flat: np.ndarray, widths: np.ndarray,
                       strict: bool) -> Formula:
    """`formula_from_ints` from the clauses' literals laid end to end in the
    int64 array `flat`, clause i holding the next `widths[i]` of them: every
    check but the int64 one. The formula may view `flat`, so the caller must
    not keep it."""
    m = len(widths)
    if not flat.all():
        raise FormulaError("literal 0 is reserved as the clause terminator")
    if v < 1:
        raise FormulaError("formula needs at least one variable")
    if not m:
        raise FormulaError("formula needs at least one clause (m >= 1)")
    if (widths == 3).all():
        lits = flat.reshape(m, 3)
    else:  # pad; a clause over 3 literals is cut here and refused below
        column = np.arange(flat.size) - np.repeat(np.cumsum(widths) - widths, widths)
        kept = column < 3
        lits = np.zeros((m, 3), np.int64)
        lits[np.repeat(np.arange(m), widths)[kept], column[kept]] = flat[kept]
    # compared signed: np.abs(-2**63) wraps to itself
    out_of_range = (lits > v) | (lits < -v)
    bad_width = (widths < 1) | (widths > 3)
    bad_range = out_of_range[:, 0] | out_of_range[:, 1] | out_of_range[:, 2]
    bad = bad_width | bad_range
    if strict:
        var = np.abs(lits)
        bad |= ((widths != 3) | (var[:, 0] == var[:, 1]) | (var[:, 0] == var[:, 2])
                | (var[:, 1] == var[:, 2]))
    if bad.any():
        ci = int(np.argmax(bad))
        if bad_width[ci]:
            raise FormulaError(f"clause {ci} has {widths[ci]} literals", ci)
        if bad_range[ci]:
            x = abs(int(lits[ci][out_of_range[ci]][0]))
            raise FormulaError(f"clause {ci}: variable {x} out of range (v={v})", ci)
        raise FormulaError(
            f"clause {ci} must have 3 distinct variables in strict mode", ci)
    return Formula(v, lits, strict)


# Outside comment lines DIMACS text is ASCII: tokens are `-?[0-9]+`, blanks
# (space, tab, \v, \f) separate them, and lines end at \n, \r\n or \r.
_LINE_END = re.compile(r"\r\n?|\n")
_BLANKS = re.compile(r"[ \t\v\f]+")
_TOKEN = re.compile(r"-?[0-9]+")
# after line ends become \n: blank and comment lines, then the header
_HEAD = re.compile(r"(?:[ \t\v\f]*(?:c.*)?\n)*[ \t\v\f]*p[ \t\v\f]+cnf"
                   r"[ \t\v\f]+([0-9]+)[ \t\v\f]+([0-9]+)[ \t\v\f]*(?:\n|\Z)")
_COMMENT = re.compile(r"^[ \t\v\f]*c.*", re.MULTILINE)
_CLAUSE_BYTES = b"0123456789- \t\v\f\n"
_INT64 = np.iinfo(np.int64)


def parse_dimacs(text: str | bytes, strict: bool = True) -> Formula:
    r"""Parse DIMACS CNF text: 'c' comment lines, one 'p cnf v m' header
    before the clauses, 0-terminated clauses that may span lines. Bytes are
    decoded as UTF-8, and comment lines may hold any of it; elsewhere only
    ASCII digits, '-' and blanks (space, tab, \v, \f) may appear, and lines
    end at \n, \r\n or \r.

    Whole-text passes decide every input (`_read_bulk`): they find the header
    and the comment lines, check the characters of the clause text, read
    it with one `np.fromstring` and cut the clauses at its zeros. Text they
    refuse is walked line by line (`_raise_first_error`), which raises the
    ParseError for the first broken rule in line order and never returns a
    formula. A clause that `formula_from_ints`'s checks refuse is named by
    the line of its terminating 0."""
    if isinstance(text, bytes):
        try:
            text = text.decode()
        except UnicodeDecodeError as exc:
            # numbered as the line walk numbers lines
            line = 1 + len(_LINE_END.findall(text[:exc.start].decode()))
            raise ParseError(f"line {line}: not UTF-8 text "
                             f"(byte 0x{text[exc.start]:02x})") from None
    formula = _read_bulk(text, strict)
    if formula is None:
        _raise_first_error(text, strict)
    return formula


def _read_bulk(text: str, strict: bool) -> Formula | None:
    """The formula `text` holds, or None when it breaks any rule."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    head = _HEAD.match(text)
    if head is None:
        return None
    v, m = int(head[1]), int(head[2])
    if v < 1 or m < 1:
        return None
    body = text[head.end():]
    if "c" in body:
        body = _COMMENT.sub("", body)
    if not body.isascii():
        return None
    data = body.encode()
    if data.translate(None, _CLAUSE_BYTES):  # a byte but digits, '-', blanks, \n
        return None
    with warnings.catch_warnings():
        # older numpy warns, and does not raise, on text it cannot read to its end
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(data, np.int64, sep=" ")
        except (ValueError, DeprecationWarning):  # '1-', '--1'
            return None
    # fromstring reads '-' as 0, '- 1' as -1 and blank text as [0], so each
    # token must be one run of digits and read as one value; past the
    # character check, a token's bytes are above ' ' and a digit's above '-'
    codes = np.frombuffer(b" " + data, np.uint8)
    token, digit = codes > 32, codes > 45
    tokens = np.count_nonzero(token[1:] > token[:-1])
    digit_runs = np.count_nonzero(digit[1:] > digit[:-1])
    if not len(values) == tokens == digit_runs:
        return None
    ends = np.flatnonzero(values == 0)
    if len(ends) != m or values[-1]:  # or the last clause unterminated
        return None
    # fromstring reads a literal beyond int64 as one of its bounds
    if values.max() == _INT64.max or values.min() == _INT64.min:
        if not all(_INT64.min <= int(tok) <= _INT64.max for tok in body.split()):
            return None
    try:
        return _formula_from_flat(v, values[values != 0],
                                  np.diff(ends, prepend=-1) - 1, strict)
    except FormulaError:
        return None


def _raise_first_error(text: str, strict: bool) -> NoReturn:
    """Raise the ParseError for the first rule `text` breaks, in line order:
    a header or token error, an unterminated last clause, no header, a
    clause count other than the header's, then the first clause that
    `formula_from_ints` refuses."""
    v = declared_m = None
    int_clauses: list[list[int]] = []
    ends: list[int] = []  # line of each clause's terminating 0
    current: list[int] = []
    for lineno, raw in enumerate(_LINE_END.split(text), start=1):
        line = raw.strip(" \t\v\f")
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if v is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            parts = _BLANKS.split(line)
            if (len(parts) != 4 or parts[:2] != ["p", "cnf"]
                    or not all(map(_TOKEN.fullmatch, parts[2:]))):
                raise ParseError(f"line {lineno}: malformed header {line!r}")
            v, declared_m = int(parts[2]), int(parts[3])
            if v < 1 or declared_m < 1:
                raise ParseError(f"line {lineno}: header needs v >= 1 and m >= 1")
            continue
        if v is None:
            raise ParseError(f"line {lineno}: clause before 'p cnf' header")
        for tok in _BLANKS.split(line):
            if not _TOKEN.fullmatch(tok):
                raise ParseError(f"line {lineno}: bad token {tok!r}")
            lit = int(tok)
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
        formula_from_ints(v, int_clauses, strict=strict)
    except FormulaError as exc:
        # the header and the clause count rule out the clause-free errors
        raise ParseError(f"line {ends[exc.clause]}: {exc}") from exc
    raise InvariantViolation("the bulk DIMACS pass refused text that every rule admits")


def to_dimacs(f: Formula) -> str:
    lines = [f"p cnf {f.v} {f.m}"]
    lines += [" ".join([str(x) for x in row if x] + ["0"]) for row in f.lits.tolist()]
    return "\n".join(lines) + "\n"


def satisfied_count(f: Formula, a: Assignment) -> int:
    """Number of clauses with at least one true literal under a."""
    if len(a) != f.v:
        raise FormulaError(f"assignment length {len(a)} != v={f.v}")
    # a literal holds when its sign matches its variable's value; padding has
    # sign 0 and never holds
    values = np.asarray(a)[np.abs(f.lits) - 1] * np.sign(f.lits)
    return int((values > 0).any(axis=1).sum())


def gap_threshold_count(m: int, epsilon: float) -> int:
    """Fewest satisfied clauses that are more than a (1 - epsilon) fraction of m:
    floor((1 - epsilon) m) + 1, with epsilon read exactly."""
    return math.floor((1 - Fraction(epsilon)) * m) + 1


def occurrence_bound(f: Formula) -> int:
    """Max over variables of the number of clauses the variable appears in,
    counted over the variables that occur, so its cost does not grow with v."""
    var = np.sort(np.abs(f.lits), axis=1)
    var[:, 1:][var[:, 1:] == var[:, :-1]] = 0  # each variable once per clause
    return int(np.unique(var[var != 0], return_counts=True)[1].max())


def _index_to_assignment(k: int, v: int) -> Assignment:
    # Variable 0 sits at the most significant bit, so ascending k is
    # lexicographic order on assignment tuples with false < true.
    return tuple(TRUE if (k >> (v - 1 - j)) & 1 else FALSE for j in range(v))


def _clause_subcubes(f: Formula):
    """(mask, pattern) per non-tautological clause: k falsifies the clause iff
    (k & mask) == pattern under the MSB variable-0 indexing."""
    out = []
    for row in f.lits.tolist():
        if any(-x in row for x in row if x):
            continue  # a tautology is never falsified
        mask = pattern = 0
        for x in row:
            if x:
                bit = 1 << (f.v - abs(x))
                mask |= bit
                if x < 0:
                    pattern |= bit
        out.append((mask, pattern))
    return out


def _check_exhaustive_limit(f: Formula):
    if f.v > EXHAUSTIVE_LIMIT:
        raise ResourceLimitError(
            f"exhaustive oracle refused: v={f.v} exceeds limit {EXHAUSTIVE_LIMIT}")


def brute_force_sat(f: Formula) -> Assignment | None:
    """Lexicographically smallest satisfying assignment, or None if unsatisfiable:
    the Max-SAT witness when it satisfies every clause."""
    best, witness = brute_force_max_sat(f)
    return witness if best == f.m else None


def brute_force_max_sat(f: Formula) -> tuple[int, Assignment]:
    """Maximum satisfied-clause count over all assignments, with the
    lexicographically smallest witness."""
    _check_exhaustive_limit(f)
    idx = np.arange(1 << f.v, dtype=np.uint32)
    # narrowest type that holds m, so the count cannot wrap
    count_type = np.min_scalar_type(f.m)
    unsat_counts = np.zeros(1 << f.v, dtype=count_type)
    for mask, pattern in _clause_subcubes(f):
        unsat_counts += ((idx & np.uint32(mask)) == np.uint32(pattern)).astype(count_type)
    best = int(np.argmin(unsat_counts))
    return f.m - int(unsat_counts[best]), _index_to_assignment(best, f.v)


# --- bitmask helpers shared with the MDP engine ---------------------------------

def mask_from_assignment(a: Assignment) -> int:
    """Bit i set iff variable i is true (+1)."""
    m = 0
    for i, val in enumerate(a):
        if val == TRUE:
            m |= 1 << i
    return m


def assignment_from_mask(mask: int, v: int) -> Assignment:
    return tuple(TRUE if (mask >> i) & 1 else FALSE for i in range(v))


def hamming(mask_a: int, mask_b: int) -> int:
    return (mask_a ^ mask_b).bit_count()
