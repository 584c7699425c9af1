"""3-CNF formulas: DIMACS parsing, array-backed clauses, exhaustive SAT / Max-SAT oracles.

A formula holds its clauses as one read-only (m, 3) int64 array `lits` of
signed 1-based DIMACS literals: variable i (0-based) true is i + 1, false is
-(i + 1). The 1- and 2-literal clauses that only lenient formulas have are
padded with trailing 0s. `formula_from_ints` is the constructor and checks the
clauses; `Formula.clauses` rebuilds them as `Clause`/`Literal` tuples on every
access, for readers outside the package.

Assignments are tuples over {-1, +1}: -1 is false, +1 is true. The exhaustive
oracles enumerate all 2^v assignments with numpy, mapping variable 0 to the most
significant bit so that numeric index order equals lexicographic order with
false < true.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import FormulaError, ParseError, ResourceLimitError

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
    ``occ[x]`` lists the indices of clauses containing variable x (each clause
    at most once), built on every access. ``strict`` marks that every clause
    has exactly 3 literals on 3 distinct variables, which the MDP construction
    requires; lenient formulas (1..3 literals, repeats allowed) only occur
    inside the bounded-occurrence transform and its tests.
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
    def occ(self) -> tuple:
        occ = [[] for _ in range(self.v)]
        for ci, row in enumerate(self.lits.tolist()):
            for x in {abs(x) for x in row if x}:
                occ[x - 1].append(ci)
        return tuple(map(tuple, occ))

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
    m = len(rows)
    widths = np.fromiter(map(len, rows), np.int64, m)
    try:
        flat = np.fromiter(chain.from_iterable(rows), np.int64, int(widths.sum()))
    except OverflowError:
        ci = next(ci for ci, row in enumerate(rows)
                  if not all(-2**63 <= x < 2**63 for x in row))
        raise FormulaError(f"clause {ci}: a literal exceeds the int64 range",
                           ci) from None
    if not flat.all():
        raise FormulaError("literal 0 is reserved as the clause terminator")
    if v < 1:
        raise FormulaError("formula needs at least one variable")
    if not m:
        raise FormulaError("formula needs at least one clause (m >= 1)")
    if (widths == 3).all():
        lits = flat.reshape(m, 3)
    else:  # pad; a clause over 3 literals is cut here and refused below
        lits = np.zeros((m, 3), np.int64)
        for ci, row in enumerate(rows):
            lits[ci, :min(len(row), 3)] = row[:3]
    # compared signed: np.abs(-2**63) wraps to itself
    out_of_range = (lits > v) | (lits < -v)
    bad_width = (widths < 1) | (widths > 3)
    bad_range = out_of_range.any(axis=1)
    bad = bad_width | bad_range
    if strict:
        var = np.sort(np.abs(lits), axis=1)
        bad |= (widths != 3) | (np.diff(var) == 0).any(axis=1)
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


# int() also reads '+', '_' and non-ASCII digits, which DIMACS does not have
_NON_DIMACS = re.compile(r"[^0-9\s-]")


def parse_dimacs(text: str | bytes, strict: bool = True) -> Formula:
    """Parse DIMACS CNF text: 'c' comments, 'p cnf v m' header, 0-terminated
    clauses. Bytes are decoded as UTF-8. The parser owns tokens, header and
    line numbers; `formula_from_ints` checks the clauses, and a clause it
    refuses is a ParseError naming the line of that clause's terminating 0."""
    if isinstance(text, bytes):
        try:
            text = text.decode()
        except UnicodeDecodeError as exc:
            # numbered as the scanner below numbers lines
            line = len((text[:exc.start] + b"x").decode().splitlines())
            raise ParseError(f"line {line}: not UTF-8 text "
                             f"(byte 0x{text[exc.start]:02x})") from None
    v = None
    declared_m = None
    int_clauses: list[list[int]] = []
    ends: list[int] = []  # line of each clause's terminating 0
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if v is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            parts = line.split()
            try:
                if (len(parts) != 4 or parts[1] != "cnf"
                        or _NON_DIMACS.search(parts[2] + parts[3])):
                    raise ValueError
                v, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: malformed header {line!r}") from None
            if v < 1 or declared_m < 1:
                raise ParseError(f"line {lineno}: header needs v >= 1 and m >= 1")
            continue
        if v is None:
            raise ParseError(f"line {lineno}: clause before 'p cnf' header")
        # one search per line; only a line that fails it is searched per token
        foreign = _NON_DIMACS.search(line) is not None
        for tok in line.split():
            try:
                if foreign and _NON_DIMACS.search(tok):
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
        # the header and the clause count rule out the clause-free errors
        raise ParseError(f"line {ends[exc.clause]}: {exc}") from exc


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
    """Max over variables of the number of clauses the variable appears in."""
    var = np.sort(np.abs(f.lits), axis=1)
    var[:, 1:][var[:, 1:] == var[:, :-1]] = 0  # each variable once per clause
    return int(np.bincount(var.ravel())[1:].max())


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
    """Lexicographically smallest satisfying assignment, or None if unsatisfiable."""
    _check_exhaustive_limit(f)
    idx = np.arange(1 << f.v, dtype=np.uint32)
    any_unsat = np.zeros(1 << f.v, dtype=bool)
    for mask, pattern in _clause_subcubes(f):
        any_unsat |= (idx & np.uint32(mask)) == np.uint32(pattern)
    sat = ~any_unsat
    if not sat.any():
        return None
    return _index_to_assignment(int(np.argmax(sat)), f.v)


def brute_force_max_sat(f: Formula) -> tuple[int, Assignment]:
    """Maximum satisfied-clause count over all assignments, with a witness."""
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
