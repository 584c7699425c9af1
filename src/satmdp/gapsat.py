"""Bounded-occurrence 3-CNF transform and gap-promise checking at desk scale.

The transform replaces every variable occurring in more than b-2 clauses by one
fresh copy per occurrence, chained into an implication cycle whose 2-literal
consistency clauses are padded to strict 3-CNF with one fresh variable each.
Copies land on the cycle with positive and negative occurrences interleaved,
which keeps the Max-SAT deficit of the output no smaller than the input's on
every instance we test (a plain occurrence-ordered cycle does not).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .cnf import (
    EXHAUSTIVE_LIMIT,
    Formula,
    brute_force_max_sat,
    formula_from_ints,
    gap_threshold_count,
    occurrence_bound,
)
from .errors import FormulaError, ParameterError


class PromiseKind(Enum):
    SATISFIABLE = "satisfiable"
    GAP_UNSATISFIABLE = "gap_unsatisfiable"
    PROMISE_VIOLATED = "promise_violated"


@dataclass(frozen=True)
class PromiseStatus:
    kind: PromiseKind
    max_sat: int


def check_gap_promise(f: Formula, epsilon: float) -> PromiseStatus:
    """Classify f as satisfiable, gap-unsatisfiable, or promise-violating.

    The gap reading is inclusive: max-sat <= (1-epsilon)*m, that is max-sat
    below `gap_threshold_count`, counts as gap-unsatisfiable.
    """
    best, _ = brute_force_max_sat(f)
    if best == f.m:
        return PromiseStatus(PromiseKind.SATISFIABLE, best)
    if best < gap_threshold_count(f.m, epsilon):
        return PromiseStatus(PromiseKind.GAP_UNSATISFIABLE, best)
    return PromiseStatus(PromiseKind.PROMISE_VIOLATED, best)


def _interleave_by_sign(occurrences):
    """Order clause-occurrences so positive and negative literals alternate as
    evenly as possible around the copy cycle (Bresenham merge of the two runs)."""
    pos = [o for o in occurrences if not o[1]]
    neg = [o for o in occurrences if o[1]]
    if not pos or not neg:
        return occurrences
    big, small = (pos, neg) if len(pos) >= len(neg) else (neg, pos)
    out = []
    acc = 0
    si = 0
    for item in big:
        out.append(item)
        acc += len(small)
        if acc >= len(big) and si < len(small):
            out.append(small[si])
            si += 1
            acc -= len(big)
    out.extend(small[si:])
    return out


def bounded_occurrence_transform(f: Formula, b: int) -> Formula:
    """Rewrite f so that no variable occurs in more than b clauses.

    Satisfiability is preserved exactly in both directions (the implication
    cycle forces all copies of a variable equal). Output is strict 3-CNF when
    the input is; clause count grows by at most a factor of 7. Refuses with
    FormulaError, before building anything, a v whose new variables would be
    numbered past the int64 range.
    """
    if b < 5:
        raise ParameterError(
            "b must be >= 5: each copy lands in its original clause plus two "
            "padded implication pairs (5 clauses total)")
    if occurrence_bound(f) <= b:
        return f

    rows = [[x for x in row if x] for row in f.lits.tolist()]
    # 1-based var -> the clauses it occurs in, each once; only the variables
    # that occur, since the declared v may be far larger
    occ_of: dict[int, list[int]] = {}
    for ci, row in enumerate(rows):
        for var in {abs(x) for x in row}:
            occ_of.setdefault(var, []).append(ci)
    # one copy and one padding variable per occurrence of a heavy variable
    added = 2 * sum(len(occ) for occ in occ_of.values() if len(occ) > b - 2)
    if f.v + added >= 2**63:
        raise FormulaError(
            f"the transform numbers {added} new variables after v = {f.v}, "
            f"past the int64 range")
    next_var = f.v
    # 1-based var -> {clause index -> 1-based copy variable}, for clause rewriting
    copy_of: dict[int, dict[int, int]] = {}
    cycles: list[list[int]] = []
    for var, occ in sorted(occ_of.items()):
        if len(occ) <= b - 2:
            continue
        occurrences = [(ci, all(x < 0 for x in rows[ci] if abs(x) == var))
                       for ci in occ]
        occurrences = _interleave_by_sign(occurrences)
        copies = list(range(next_var + 1, next_var + 1 + len(occurrences)))
        next_var += len(copies)
        copy_of[var] = {ci: c for (ci, _), c in zip(occurrences, copies)}
        cycles.append(copies)

    new_clauses = [[x if abs(x) not in copy_of
                    else copy_of[x][ci] if x > 0 else -copy_of[-x][ci] for x in row]
                   for ci, row in enumerate(rows)]
    for copies in cycles:
        for a, c in zip(copies, copies[1:] + copies[:1]):
            next_var += 1
            # (not a or c) padded: both clauses share the implication literals
            new_clauses += [[-a, c, next_var], [-a, c, -next_var]]
    return formula_from_ints(next_var, new_clauses, strict=f.strict)


def strictify(f: Formula) -> Formula:
    """Pad 1- and 2-literal clauses with fresh variables into strict 3-CNF.

    A 2-literal clause (l1 or l2) becomes (l1 or l2 or z) and (l1 or l2 or -z);
    a unit clause is padded in two rounds, yielding four clauses.
    """
    next_var = f.v
    queue = [[x for x in row if x] for row in f.lits.tolist()]
    out = []
    while queue:
        lits = queue.pop(0)
        if len(lits) == 3:
            if len({abs(x) for x in lits}) != 3:
                raise FormulaError("cannot strictify a clause with repeated variables")
            out.append(lits)
            continue
        next_var += 1
        queue.append(lits + [next_var])
        queue.append(lits + [-next_var])
    return formula_from_ints(next_var, out, strict=True)


def transform_report(f: Formula, psi: Formula, b: int) -> dict:
    """Property report for a transform run; Max-SAT entries only at desk scale."""
    report = {
        "b_requested": b,
        "b_achieved": occurrence_bound(psi),
        "clauses_in": f.m,
        "clauses_out": psi.m,
        "size_ratio": psi.m / f.m,
        "maxsat_in": None,
        "maxsat_out": None,
    }
    if f.v <= EXHAUSTIVE_LIMIT and psi.v <= EXHAUSTIVE_LIMIT:
        report["maxsat_in"] = brute_force_max_sat(f)[0]
        report["maxsat_out"] = brute_force_max_sat(psi)[0]
    return report
