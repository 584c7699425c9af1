"""A catalogue of source mutants and the tests that must kill them.

Each entry names a file, an exact snippet of it, the snippet's replacement,
and either the test ids that must fail once the replacement is made or the
reason the mutant survives. Run it from the repo root:

    python tools/mutants.py

Each mutant is applied to a fresh copy of the repo in a temporary directory,
and only its listed tests run there. It is killed when every listed test
fails on its own assertion (an error in a fixture does not count). When
pytest runs none of them (a misspelt id, a collection error), the runner
prints pytest's error line and counts the mutant as not killed. The
runner exits 1 if any mutant is not killed. Survivors are reported with
their reasons and not run.

The test suite does not collect this file (it is not a `test_*.py`), so it
runs only when called. In the suite, `tests/test_mutant_catalogue.py` checks
that every snippet occurs exactly once in its file and that pytest collects
every listed test id, so a refactor that moves a guarded line or renames a
killing test must update its entry here.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPY_IGNORE = shutil.ignore_patterns(
    ".git", ".hypothesis", ".pytest_cache", ".benchmarks", "__pycache__", "out")
TIMEOUT_S = 600  # a mutant's test run; one that hangs is not killed

MDP = "src/satmdp/mdp.py"
AGENTS = "src/satmdp/agents.py"
REF = "tests/test_reference_game.py::test_engine_matches_the_reference_"
DAG = REF + "on_every_pool_dag_node"
FIGURE = REF + "on_pinned_figure_cases"
V69 = REF + "across_rollovers_to_the_last_level[69-5-3-1]"
V768 = REF + "across_rollovers_to_the_last_level[768-7-2-64]"
EXACT = "tests/test_reference_game.py::test_greedy_is_exactly_optimal_on_"
EXACT_POOL = EXACT + "every_pool_dag_node"
EXACT_P4 = EXACT + "the_p4_q2_trees"
EXACT_V9 = EXACT + "a_tree_of_over_a_million_states"
SUMMARY_FIELDS = "tests/test_mdp.py::test_round_summary_is_every_field_but_step_and_chain"
GATE = "tests/test_mdp.py::test_summary_tree_agrees_with_enumeration_on_every_gate_attempt"
GATE_POOL = GATE + "[_criterion_1_draws-54-4]"
GATE_LINEARITY = GATE + "[_linearity_draws-16-0]"
NET = "tests/test_agents.py::test_epsilon_net_"
NET_GOLDEN_H4 = NET + "counts_golden[spec1-81173-counts1]"
NET_EXACT = tuple(NET + f"decides_each_point_exactly[{d}]" for d in (2, 3, 4))
NET_ROUNDING = tuple(NET + f"rounding_fits_the_largest_admitted_ball[{d}]"
                     for d in (2, 3, 4))
NET_REFUSES_SLIP = NET + "refuses_rounding_past_the_cover_radius"
CUTS = "tests/test_agents.py::test_pair_cuts_"
CUTS_EXACT = tuple(CUTS + f"match_exact_scores[{seed}]" for seed in range(4))
CUTS_RIM = CUTS + "settle_copied_rows_and_the_ball_rim"


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple = ()        # every one must fail
    survivor: str = ""       # why no test can kill it; then `tests` is empty


CATALOGUE = (
    # the round rules, against the reference game
    Mutant("highest eligible clause offered", MDP,
           "        return STAGE_ONE, (eligible & -eligible).bit_length() - 1",
           "        return STAGE_ONE, eligible.bit_length() - 1",
           (DAG, FIGURE, V69, V768)),
    Mutant("used variables left eligible", MDP,
           "        eligible ^= eligible & inst.occ_clause_bits[var]",
           "        pass",
           (FIGURE, V69, V768, SUMMARY_FIELDS)),
    Mutant("highest free variable offered", MDP,
           "    return STAGE_TWO, (free & -free).bit_length() - 1",
           "    return STAGE_TWO, free.bit_length() - 1",
           (DAG, FIGURE, V69, V768)),
    Mutant("rollover keeps w_round", MDP,
           "        n, w_round, free = n + 1, w, inst.all_mask",
           "        n, w_round, free = n + 1, w_round, inst.all_mask",
           (DAG, FIGURE, V69, V768)),
    Mutant("flag False at LAST_LEVEL", MDP,
           "        stage, cursor, eligible, terminal = LAST_LEVEL, None, 0, True",
           "        stage, cursor, eligible, terminal = LAST_LEVEL, None, 0, False",
           (FIGURE, V69, V768)),
    Mutant("flag False at GAP_SATISFIED", MDP,
           "        stage, cursor, eligible, terminal = GAP_SATISFIED, None, 0, True",
           "        stage, cursor, eligible, terminal = GAP_SATISFIED, None, 0, False",
           (FIGURE,)),
    Mutant("> for >= at the threshold", MDP,
           "    if sat >= inst.gap_threshold_count:",
           "    if sat > inst.gap_threshold_count:",
           (DAG, FIGURE)),
    # the stored terminal flag
    Mutant("initial_state leaves the flag False", MDP,
           "                    eligible=eligible, is_terminal=terminal)",
           "                    eligible=eligible, is_terminal=False)",
           (FIGURE,
            "tests/test_mdp.py::test_initial_state_terminates_when_start_satisfies")),
    Mutant("_summary without the flag", MDP,
           "    return s[:7] + s[9:]",
           "    return s[:7] + s[9:11]",
           (SUMMARY_FIELDS,)),
    # the summary walk
    Mutant("budget checked at a terminal root", MDP,
           "        if kids and counted > budget:",
           "        if counted > budget:",
           ("tests/test_mdp.py::test_summary_tree_matches_enumeration_at_the_edges",)),
    Mutant("multiplicity overwritten, not added", MDP,
           "            mult[j] += mult[i]",
           "            mult[j] = mult[i]",
           (GATE_POOL, GATE_LINEARITY, EXACT_P4, EXACT_V9)),
    Mutant("nodes counted, not states", MDP,
           "        counted += len(kids) * mult[i]",
           "        counted += len(kids)",
           (GATE_POOL, EXACT_P4)),
    Mutant("no summary merge", MDP,
           "            j = below.setdefault(_summary(child), len(nodes))",
           "            j = len(nodes)",
           ("tests/test_mdp.py::test_summary_tree_nodes_are_distinct_and_children_come_later",
            "tests/test_agents.py::test_summary_dag_agrees_with_the_tree_at_every_pool_state",
            EXACT_V9)),
    Mutant("one summary dict for the whole walk", MDP,
           "        if i == level_end:",
           "        if False:",
           survivor="memory only: a summary fixes its depth, so the nodes are "
                    "the same; the reset frees finished levels (peak RSS "
                    "357 -> 466 MB on a v=10 tree)"),
    # the payout and the tree values, against the exact ones
    Mutant("free and used disagreements swapped", MDP,
           "free_d, used_d, inst.params)",
           "used_d, free_d, inst.params)",
           (EXACT_POOL, EXACT_P4, V69, V768)),
    Mutant("current round priced at the distance to w*", MDP,
           "hamming(nxt.w_round, nxt.w),",
           "hamming(nxt.w_round, inst.wstar),",
           (EXACT_POOL, EXACT_P4, V69, V768)),
    Mutant("used disagreements priced in the current round", "src/satmdp/reward.py",
           "    value *= g(n + 1, used_dist, params)",
           "    value *= g(n, used_dist, params)",
           (EXACT_POOL, EXACT_P4, V69, V768)),
    Mutant("V* without the payout", AGENTS,
           "values[i] = max(values[i], reward_mean(inst, states[j]) + values[j])",
           "values[i] = max(values[i], values[j])",
           (EXACT_POOL, EXACT_P4)),
    Mutant("V_greedy without the payout", AGENTS,
           "            values[i] = reward_mean(inst, states[j]) + values[j]",
           "            values[i] = values[j]",
           (EXACT_POOL, EXACT_P4)),
    # the features, against θ(w*) and the exact greedy values
    Mutant("signed table's negative half written unsigned", "src/satmdp/polyfeat.py",
           "    signed[sign:sign + coef.size] = 0.0 - coef.ravel()",
           "    signed[sign:sign + coef.size] = coef.ravel()",
           (EXACT_POOL, EXACT_P4, EXACT_V9,
            "tests/test_acceptance.py::test_criterion_1_linearity")),
    # the epsilon-net's cuts on integer-rounded features
    Mutant("features not rounded", AGENTS,
           "        return np.rint(feats * scale)",
           "        return feats",
           (NET_GOLDEN_H4, *NET_EXACT)),
    Mutant("K one bit past the limit", AGENTS,
           "    return 51 - (dim * (top + 1)).bit_length()",
           "    return 52 - (dim * (top + 1)).bit_length()",
           (*NET_ROUNDING, NET_REFUSES_SLIP)),
    Mutant("c > 0 for c >= 0 at h = 0", AGENTS,
           "            cuts[p] = np.where(c >= 0, lo, top)",
           "            cuts[p] = np.where(c > 0, lo, top)",
           (*CUTS_EXACT, CUTS_RIM, NET_GOLDEN_H4, NET + "counts_its_work[spec1-work1]",
            *NET_EXACT)),
    Mutant("floor for ceil at h > 0", AGENTS,
           "            np.ceil(t, out=t)",
           "            np.floor(t, out=t)",
           (*CUTS_EXACT, CUTS_RIM, CUTS + "divide_exactly_at_the_largest_ball[1]",
            CUTS + "divide_exactly_at_the_largest_ball[-1]",
            NET + "counts_golden[spec0-45765-counts0]", NET_GOLDEN_H4,
            NET + "counts_golden[spec2-7394773-counts2]")),
    Mutant("the |psi_j| <= 1 refusal removed", AGENTS,
           "        if not (np.abs(feats) <= 1).all():",
           "        if False:",
           tuple(NET + f"refuses_features_outside_the_unit_box[{x}-True]"
                 for x in ("1.0000000000000002", "-1.5", "nan"))),
    Mutant("the rounding-bound refusal removed", AGENTS,
           "    if slip >= cover:",
           "    if False:",
           (NET_REFUSES_SLIP,)),
    # the toy's planting, against its memory bound: the planted bytes do not
    # move, so `test_planted_golden` passes on it
    Mutant("full draw kept alive through planting", "src/satmdp/toys.py",
           "    raw = struct.normal(size=(internal, 1 + k, dim))[:, 1:].reshape(-1, dim)",
           "    draw = struct.normal(size=(internal, 1 + k, dim))\n"
           "    raw = draw[:, 1:].reshape(-1, dim)",
           ("tests/test_toys.py::test_planting_holds_no_full_size_temporary",)),
    # the horizon split's residual gate
    Mutant("residual gate opened", AGENTS,
           "RESIDUAL_TOL = 1e-8",
           "RESIDUAL_TOL = 1e30",
           survivor="no input reaches the gate: every row `expand` solves for "
                    "is a row of the matrix its basis was selected from"),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Replace the snippet in `root`'s copy of the file, refusing a snippet
    that does not occur exactly once."""
    path = root / mutant.path
    text = path.read_text()
    if text.count(mutant.snippet) != 1:
        raise SystemExit(f"{mutant.name}: snippet occurs "
                         f"{text.count(mutant.snippet)} times in {mutant.path}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement))


def failed_tests(root: Path, tests) -> set | None:
    """The ids among `tests` that pytest reports FAILED when run in `root`,
    or None when it ran none of them: a test id not found, or a collection
    error. Exit codes 0 and 1 mean the tests ran."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             *tests], cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"    timed out after {TIMEOUT_S} s")
        return set()
    if proc.returncode not in (0, 1):
        lines = (proc.stdout + proc.stderr).splitlines()
        error = next((line for line in lines if line.startswith("ERROR")),
                     f"pytest exit code {proc.returncode}")
        print(f"    tests did not run: {error}")
        return None
    prefix = "FAILED "
    return {line[len(prefix):].split(" - ")[0]
            for line in proc.stdout.splitlines() if line.startswith(prefix)}


def run(mutant: Mutant) -> bool:
    """Whether the mutant is killed by every one of its tests."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(ROOT, root, ignore=COPY_IGNORE)
        apply(mutant, root)
        failed = failed_tests(root, mutant.tests)
    if failed is None:
        return False
    survived = set(mutant.tests) - failed
    for test in sorted(survived):
        print(f"    not failed: {test}")
    return not survived


def main() -> int:
    bad = 0
    for mutant in CATALOGUE:
        if mutant.survivor:
            print(f"survivor  {mutant.name}: {mutant.survivor}")
            continue
        t0 = time.perf_counter()
        killed = bool(mutant.tests) and run(mutant)
        bad += not killed
        print(f"{'killed' if killed else 'SURVIVED'}    {mutant.name} "
              f"({len(mutant.tests)} tests, {time.perf_counter() - t0:.1f} s)")
    print(f"{len(CATALOGUE)} mutants: {bad} not killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
