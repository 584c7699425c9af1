"""Seeded formula and instance generators used by the CLI and the test suites.

Random instance generation is rejection sampling with explicit gates: the
formula must be satisfiable, within the occurrence bound, start below the
satisfaction threshold (so the game does not end at the first state), and
enumerate to a bounded tree. Everything is deterministic in the seed.
"""
from __future__ import annotations

import numpy as np

from .cnf import Formula, formula_from_ints, occurrence_bound
from .errors import ParameterError, ResourceLimitError
from .mdp import build_instance, enumerate_reachable, initial_state
from .reward import params_for_rounds

ALL_POSITIVE_FRACTION = 0.4  # share of all-positive clauses in a random formula
MAX_ATTEMPTS = 500  # formulas drawn per random instance before giving up


def random_strict_formula(rng: np.random.Generator, v: int, m: int) -> Formula:
    """Random 3-distinct-variable clauses; a fraction are all-positive so the
    all-false start leaves enough clauses unsatisfied."""
    clauses = []
    n_pos = int(round(ALL_POSITIVE_FRACTION * m))
    for ci in range(m):
        lits = np.sort(rng.choice(v, size=3, replace=False)) + 1
        if ci >= n_pos:
            lits = np.where(rng.integers(0, 2, size=3) == 1, -lits, lits)
        clauses.append(lits)
    return formula_from_ints(v, clauses)


def random_satisfiable_instance(seed: int, v: int, h: int, p: int = 2,
                                q: int = 4, epsilon: float = 0.25, b: int = 6,
                                tree_budget: int = 20_000):
    """A satisfiable, gap-checked instance whose game tree fits the budget.

    Returns (instance, wstar, attempts). The start must sit strictly below the
    satisfaction threshold and the full reachable tree must enumerate within
    tree_budget states.
    """
    if v < 3:
        raise ParameterError("need v >= 3: every clause has 3 distinct variables")
    params = params_for_rounds(v=v, h=h, p=p, q=q, epsilon=epsilon, b=b)
    rng = np.random.Generator(np.random.Philox(key=seed))
    for attempt in range(1, MAX_ATTEMPTS + 1):
        m = int(rng.integers(v, 2 * v + 1))
        f = random_strict_formula(rng, v, m)
        if occurrence_bound(f) > b:
            continue
        inst = build_instance(f, params)
        if inst.wstar is None or initial_state(inst).is_terminal:
            continue
        try:
            enumerate_reachable(inst, budget=tree_budget)
        except ResourceLimitError:
            continue
        return inst, inst.wstar_assignment(), attempt
    raise ResourceLimitError(
        f"no acceptable instance found in {MAX_ATTEMPTS} attempts for v={v}, h={h}")


def regular_planted_formula(v: int, seed: int):
    """3-CNF with every variable in exactly 6 clauses (six random partitions
    of the variables into triples, m = 2v, v divisible by 3) and random signs
    repaired to satisfy a planted random assignment.

    Under any assignment far from the planted one the satisfied fraction
    concentrates near 7/8, so random play stays well below thresholds of the
    form (1 - eps) with eps well under 1/8. Returns (formula, planted)."""
    if v % 3 != 0:
        raise ParameterError("v must be divisible by 3")
    rng = np.random.Generator(np.random.Philox(key=seed))
    planted = tuple(1 if rng.integers(0, 2) else -1 for _ in range(v))
    clauses = []
    for _ in range(6):
        perm = rng.permutation(v)
        for j in range(0, v, 3):
            trio = sorted(int(x) for x in perm[j:j + 3])
            negs = [bool(rng.integers(0, 2)) for _ in trio]
            satisfied = any(
                (planted[x] == 1) != neg for x, neg in zip(trio, negs))
            if not satisfied:
                fix = int(rng.integers(0, 3))
                negs[fix] = planted[trio[fix]] == -1
            clauses.append([-(x + 1) if neg else x + 1 for x, neg in zip(trio, negs)])
    return formula_from_ints(v, clauses), planted


def random_gap_unsat_formula(rng: np.random.Generator, v: int) -> Formula:
    """Unsatisfiable strict 3-CNF: all eight sign patterns on one variable
    triple (every assignment misses at least one), plus random clauses on the
    remaining variables up to m in [v, 16]. With epsilon <= 1/m the gap promise
    holds since at least one clause always fails."""
    if v < 6:
        raise ParameterError("need v >= 6 to keep occurrence bounds when padding")
    if v > 16:
        raise ParameterError("need v <= 16: m is drawn from [v, 16]")
    block_vars = sorted(int(x) for x in rng.choice(v, size=3, replace=False))
    clauses = []
    for bits in range(8):
        clauses.append([-(var + 1) if (bits >> i) & 1 else var + 1
                        for i, var in enumerate(block_vars)])
    others = [x for x in range(v) if x not in block_vars]
    m = int(rng.integers(max(v, 9), 17))
    while len(clauses) < m:
        variables = rng.choice(len(others), size=3, replace=False)
        negs = rng.integers(0, 2, size=3)
        clauses.append([-(others[int(i)] + 1) if n else others[int(i)] + 1
                        for i, n in sorted(zip(variables, negs), key=lambda t: t[0])])
    return formula_from_ints(v, clauses)
