"""3-CNF formulas: DIMACS parsing, indexed evaluation, exhaustive SAT / Max-SAT oracles.

Assignments are tuples over {-1, +1}: -1 is false, +1 is true. The exhaustive
oracles enumerate all 2^v assignments with numpy, mapping variable 0 to the most
significant bit so that numeric index order equals lexicographic order with
false < true.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormulaError, ParseError, ResourceLimitError

FALSE = -1
TRUE = 1

#: Largest v the exhaustive oracles accept by default (2^24 sweeps, seconds-scale).
EXHAUSTIVE_LIMIT = 24

Assignment = tuple


@dataclass(frozen=True)
class Literal:
    var: int
    negated: bool = False

    def holds(self, value: int) -> bool:
        return value == (FALSE if self.negated else TRUE)

    def to_int(self) -> int:
        """Signed 1-based DIMACS literal."""
        return -(self.var + 1) if self.negated else self.var + 1


@dataclass(frozen=True)
class Clause:
    literals: tuple[Literal, ...]

    @property
    def variables(self) -> tuple[int, ...]:
        return tuple(lit.var for lit in self.literals)

    def satisfied_by(self, assignment: Assignment) -> bool:
        return any(lit.holds(assignment[lit.var]) for lit in self.literals)


class Formula:
    """Indexed CNF formula.

    ``occ[x]`` lists the indices of clauses containing variable x (each clause
    at most once). ``strict`` marks that every clause has exactly 3 literals on
    3 distinct variables, which the MDP construction requires; lenient formulas
    (1..3 literals, repeats allowed) only occur inside the bounded-occurrence
    transform and its tests.
    """

    __slots__ = ("v", "clauses", "occ", "strict")

    def __init__(self, v: int, clauses, strict: bool = True):
        clauses = tuple(clauses)
        if v < 1:
            raise FormulaError("formula needs at least one variable")
        if not clauses:
            raise FormulaError("formula needs at least one clause (m >= 1)")
        for ci, clause in enumerate(clauses):
            lits = clause.literals
            if not 1 <= len(lits) <= 3:
                raise FormulaError(f"clause {ci} has {len(lits)} literals")
            for lit in lits:
                if not 0 <= lit.var < v:
                    raise FormulaError(
                        f"clause {ci}: variable {lit.var + 1} out of range (v={v})")
            if strict and (len(lits) != 3 or len(set(clause.variables)) != 3):
                raise FormulaError(
                    f"clause {ci} must have 3 distinct variables in strict mode")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "clauses", clauses)
        object.__setattr__(self, "strict", strict)
        occ = [[] for _ in range(v)]
        for ci, clause in enumerate(clauses):
            for var in sorted(set(clause.variables)):
                occ[var].append(ci)
        object.__setattr__(self, "occ", tuple(tuple(o) for o in occ))

    def __setattr__(self, name, value):
        raise AttributeError("Formula is immutable")

    @property
    def m(self) -> int:
        return len(self.clauses)

    def __eq__(self, other):
        return (isinstance(other, Formula) and self.v == other.v
                and self.clauses == other.clauses and self.strict == other.strict)

    def __hash__(self):
        return hash((self.v, self.clauses))

    def __repr__(self):
        return f"Formula(v={self.v}, m={self.m}, strict={self.strict})"


def formula_from_ints(v: int, int_clauses, strict: bool = True) -> Formula:
    """Build a formula from signed 1-based literal lists (DIMACS convention)."""
    clauses = []
    for raw in int_clauses:
        lits = []
        for lit in raw:
            if lit == 0:
                raise FormulaError("literal 0 is reserved as the clause terminator")
            lits.append(Literal(abs(lit) - 1, lit < 0))
        clauses.append(Clause(tuple(lits)))
    return Formula(v, clauses, strict=strict)


def parse_dimacs(text: str | bytes, strict: bool = True) -> Formula:
    """Parse DIMACS CNF text: 'c' comments, 'p cnf v m' header, 0-terminated clauses."""
    if isinstance(text, bytes):
        text = text.decode("ascii")
    v = None
    declared_m = None
    int_clauses: list[list[int]] = []
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if v is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"line {lineno}: malformed header {line!r}")
            try:
                v, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: malformed header {line!r}") from None
            if v < 1 or declared_m < 1:
                raise ParseError(f"line {lineno}: header needs v >= 1 and m >= 1")
            continue
        if v is None:
            raise ParseError(f"line {lineno}: clause before 'p cnf' header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ParseError(f"line {lineno}: bad token {tok!r}") from None
            if lit == 0:
                if not current:
                    raise ParseError(f"line {lineno}: empty clause")
                if len(current) > 3:
                    raise ParseError(
                        f"line {lineno}: clause has {len(current)} literals (max 3)")
                int_clauses.append(current)
                current = []
            else:
                if not 1 <= abs(lit) <= v:
                    raise ParseError(
                        f"line {lineno}: variable {abs(lit)} out of range (v={v})")
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
        raise ParseError(str(exc)) from exc


def to_dimacs(f: Formula) -> str:
    lines = [f"p cnf {f.v} {f.m}"]
    for clause in f.clauses:
        lines.append(" ".join(str(lit.to_int()) for lit in clause.literals) + " 0")
    return "\n".join(lines) + "\n"


def satisfied_count(f: Formula, a: Assignment) -> int:
    """Number of clauses with at least one true literal under a."""
    if len(a) != f.v:
        raise FormulaError(f"assignment length {len(a)} != v={f.v}")
    return sum(1 for clause in f.clauses if clause.satisfied_by(a))


def occurrence_bound(f: Formula) -> int:
    """Max over variables of the number of clauses the variable appears in."""
    return max(len(o) for o in f.occ)


def _index_to_assignment(k: int, v: int) -> Assignment:
    # Variable 0 sits at the most significant bit, so ascending k is
    # lexicographic order on assignment tuples with false < true.
    return tuple(TRUE if (k >> (v - 1 - j)) & 1 else FALSE for j in range(v))


def _clause_subcubes(f: Formula):
    """(mask, pattern) per non-tautological clause: k falsifies the clause iff
    (k & mask) == pattern under the MSB variable-0 indexing."""
    out = []
    for clause in f.clauses:
        mask = 0
        pattern = 0
        tautology = False
        seen: dict[int, bool] = {}
        for lit in clause.literals:
            if lit.var in seen and seen[lit.var] != lit.negated:
                tautology = True
                break
            seen[lit.var] = lit.negated
            bit = 1 << (f.v - 1 - lit.var)
            mask |= bit
            if lit.negated:
                pattern |= bit
        if not tautology:
            out.append((mask, pattern))
    return out


def _check_exhaustive_limit(f: Formula, limit: int):
    if f.v > limit:
        raise ResourceLimitError(
            f"exhaustive oracle refused: v={f.v} exceeds limit {limit}")


def brute_force_sat(f: Formula, limit: int = EXHAUSTIVE_LIMIT) -> Assignment | None:
    """Lexicographically smallest satisfying assignment, or None if unsatisfiable."""
    _check_exhaustive_limit(f, limit)
    idx = np.arange(1 << f.v, dtype=np.uint32)
    any_unsat = np.zeros(1 << f.v, dtype=bool)
    for mask, pattern in _clause_subcubes(f):
        any_unsat |= (idx & np.uint32(mask)) == np.uint32(pattern)
    sat = ~any_unsat
    if not sat.any():
        return None
    return _index_to_assignment(int(np.argmax(sat)), f.v)


def brute_force_max_sat(f: Formula, limit: int = EXHAUSTIVE_LIMIT) -> tuple[int, Assignment]:
    """Maximum satisfied-clause count over all assignments, with a witness."""
    _check_exhaustive_limit(f, limit)
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
