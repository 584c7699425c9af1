import numpy as np
import pytest

from conftest import random_lenient_formula
from satmdp.cnf import (
    brute_force_max_sat,
    brute_force_sat,
    formula_from_ints,
    occurrence_bound,
)
from satmdp.errors import FormulaError, ParameterError, ResourceLimitError
from satmdp.gapsat import (
    PromiseKind,
    bounded_occurrence_transform,
    check_gap_promise,
    strictify,
    transform_report,
)


def test_identity_when_already_bounded(figure_formula):
    assert bounded_occurrence_transform(figure_formula, 6) is figure_formula


def test_transform_rejects_small_b(figure_formula):
    with pytest.raises(ParameterError):
        bounded_occurrence_transform(figure_formula, 4)


def test_transform_properties_random():
    rng = np.random.default_rng(2024)
    checked = 0
    worst_ratio = 0.0
    while checked < 200:
        v = int(rng.integers(3, 9))
        m = int(rng.integers(max(3, v), 2 * v + 3))
        f = random_lenient_formula(rng, v, m)
        psi = bounded_occurrence_transform(f, 6)
        if psi.v > 22:
            continue  # keep both sides brute-forceable
        checked += 1
        assert occurrence_bound(psi) <= 6
        assert f.m <= psi.m
        worst_ratio = max(worst_ratio, psi.m / f.m)
        # satisfiability equivalence, both directions
        assert (brute_force_sat(f) is None) == (brute_force_sat(psi) is None)
        # max-sat deficit never shrinks
        max_in, _ = brute_force_max_sat(f)
        max_out, _ = brute_force_max_sat(psi)
        assert max_out <= max_in + psi.m - f.m
    assert worst_ratio <= 10.0


def test_transform_adversarial_unit_stacks():
    # k1 positive + k2 negative unit clauses on one variable: an assignment
    # setting copies blockwise would beat the deficit without sign interleaving
    for k1, k2 in ((2, 2), (3, 3), (4, 2), (5, 5), (6, 1), (7, 3)):
        f = formula_from_ints(1, [[1]] * k1 + [[-1]] * k2, strict=False)
        psi = bounded_occurrence_transform(f, 6)
        max_in, _ = brute_force_max_sat(f)
        max_out, _ = brute_force_max_sat(psi)
        assert max_out <= max_in + psi.m - f.m
        assert f.m - max_in == min(k1, k2)


def test_transform_padded_contradiction():
    f = strictify(formula_from_ints(1, [[1], [-1]], strict=False))
    assert brute_force_sat(f) is None
    psi = bounded_occurrence_transform(f, 6)
    assert brute_force_sat(psi) is None
    max_in, _ = brute_force_max_sat(f)
    max_out, _ = brute_force_max_sat(psi)
    assert max_out <= max_in + psi.m - f.m


def _one_heavy_variable_formula():
    # variable 1 occurs in all 8 clauses; the companions stay under b - 2, so
    # only variable 1 is rewritten and the output stays brute-forceable
    int_clauses = [[1, 2, 3], [1, 4, 5], [-1, 6, 7], [1, -2, -4],
                   [-1, 3, -6], [1, -5, 7], [-1, 2, -7], [1, -3, 6]]
    return formula_from_ints(7, int_clauses)


def test_transform_output_is_strict_for_strict_input():
    f = _one_heavy_variable_formula()
    assert occurrence_bound(f) == 8
    psi = bounded_occurrence_transform(f, 6)
    assert psi.strict
    assert psi.v == 7 + 16  # 8 copies + 8 padding variables
    assert occurrence_bound(psi) <= 6
    assert (brute_force_sat(f) is None) == (brute_force_sat(psi) is None)


def test_strictify_padded_contradiction_maxsat():
    f = strictify(formula_from_ints(1, [[1], [-1]], strict=False))
    assert f.strict and f.m == 8
    best, _ = brute_force_max_sat(f)
    assert best == f.m - 1


def test_strictify_tautology_rejected():
    with pytest.raises(FormulaError):
        strictify(formula_from_ints(2, [[1, -1, 2]], strict=False))


def test_check_gap_promise_satisfiable(figure_formula):
    status = check_gap_promise(figure_formula, 0.25)
    assert status.kind is PromiseKind.SATISFIABLE
    assert status.max_sat == figure_formula.m


def test_check_gap_promise_boundary_inclusive():
    # three clauses, max-sat exactly 2 = (1 - 1/3) * 3: inclusive boundary
    f = formula_from_ints(2, [[1], [-1], [2]], strict=False)
    assert brute_force_max_sat(f)[0] == 2
    status = check_gap_promise(f, 1 / 3)
    assert status.kind is PromiseKind.GAP_UNSATISFIABLE


def test_check_gap_promise_violated():
    f = formula_from_ints(2, [[1], [-1], [2], [2], [2], [2], [2], [2]],
                          strict=False)
    # max-sat = 7 of 8; with eps = 1/4 the promise fails
    status = check_gap_promise(f, 0.25)
    assert status.kind is PromiseKind.PROMISE_VIOLATED
    assert status.max_sat == 7


def test_check_gap_promise_refuses_large():
    f = formula_from_ints(30, [[1, 2, 3]] * 30)
    with pytest.raises(ResourceLimitError):
        check_gap_promise(f, 0.25)


def test_transform_report_fields():
    f = _one_heavy_variable_formula()
    psi = bounded_occurrence_transform(f, 6)
    report = transform_report(f, psi, 6)
    assert report["b_achieved"] <= 6
    assert report["size_ratio"] == psi.m / f.m
    assert report["maxsat_in"] == brute_force_max_sat(f)[0]
    assert report["maxsat_out"] == brute_force_max_sat(psi)[0]
