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
AGENTS_TESTS = "tests/test_agents.py::"
NET = AGENTS_TESTS + "test_epsilon_net_"
NET_REF_H3 = NET + "matches_its_reference_at_the_criterion_specs[H3]"
NET_REF_H4 = NET + "matches_its_reference_at_the_criterion_specs[H4]"
NET_GOLDEN_D3 = NET + "counts_golden[spec2-7394773-counts2]"
NET_ROUNDING = tuple(NET + f"rounding_fits_the_largest_admitted_ball[{d}]"
                     for d in (2, 3, 4))
NET_REFUSES_SLIP = NET + "refuses_rounding_past_the_cover_radius"
CUTS = AGENTS_TESTS + "test_pair_cuts_"
CUTS_EXACT = tuple(CUTS + f"match_exact_scores[{seed}]" for seed in range(4))
CUTS_RIM = CUTS + "settle_copied_rows_and_the_ball_rim"
SPLIT = AGENTS_TESTS + "test_horizon_split_matches_its_definition"
SPLIT_ALL = tuple(SPLIT + f"[{horizon}]" for horizon in (1, 4, 9))
SPLIT_SEGMENTED = SPLIT_ALL[1:]  # H = 4 and 9, whose walks take tails
PIVOTS = AGENTS_TESTS + "test_select_independent_pivots_at_its_tolerance"
ACCURACY = AGENTS_TESTS + "test_baselines_refuse_bad_accuracy_before_any_query"
ACCURACY_CASES = tuple(
    f"{ACCURACY}[{search}-{case}]"
    for search in ("epsilon_net_search", "horizon_split_q", "horizon_split_policy")
    for case in ("eps=nan", "delta=1")) + tuple(
    f"{ACCURACY}[{search}-sample_cap=0]"
    for search in ("horizon_split_q", "horizon_split_policy"))
TOYS = "src/satmdp/toys.py"
CNF = "src/satmdp/cnf.py"
CNF_TESTS = "tests/test_cnf.py::"
CLI = "src/satmdp/cli.py"
CLI_TESTS = "tests/test_cli.py::"
THRESHOLDS = CLI_TESTS + "test_linearity_suite_holds_its_thresholds"
SECOND_PASS = tuple(
    "tests/test_caches.py::test_a_second_pass_over_a_sweep_of_trees_builds_no_value"
    f"[{case}]" for case in ("sweep-1076-1524", "pool-1834-3635"))
POLYFEAT = "src/satmdp/polyfeat.py"
POLYFEAT_TESTS = "tests/test_polyfeat.py::"
CELLS = POLYFEAT_TESTS + "test_cell_index_is_parity_free_and_used_counts"
DRAWS = POLYFEAT_TESTS + "test_features_and_theta_golden_on_random_draws"
SUBSETS = POLYFEAT_TESTS + "test_subset_masks_match_the_combinations_builder"
REPORTING = "src/satmdp/reporting.py"
REPORT_TESTS = "tests/test_cli.py::test_report_check_"
AGREES = REPORT_TESTS + "agrees_with_jsonschema_on_mutants"
UNREAD = REPORT_TESTS + "refuses_a_schema_it_does_not_read"
TOY_STATES = tuple("tests/test_toys.py::test_toy_refuses_states_outside_its_tree"
                   f"[{case}]" for case in ("depth3-dim2", "depth1", "dim1"))


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
    # the unsatisfied-clause mask at the root and at each rollover
    Mutant("unsat mask read from the high bit", MDP,
           'f"{w:0{inst.formula.v}b}"[::-1]',
           'f"{w:0{inst.formula.v}b}"',
           ("tests/test_mdp.py::test_unsat_mask_matches_a_clause_scan_at_v768",)),
    Mutant("_summary without the flag", MDP,
           "    return s[:7] + s[9:]",
           "    return s[:7] + s[9:11]",
           (SUMMARY_FIELDS,)),
    # the summary walk
    Mutant("budget checked at a terminal root", MDP,
           "        if kids and counted > budget:",
           "        if counted > budget:",
           ("tests/test_mdp.py::test_summary_tree_agrees_with_enumeration_at_a_terminal_root",)),
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
           (GATE_POOL,
            "tests/test_agents.py::test_summary_dag_agrees_with_the_tree_at_every_pool_state")),
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
    # the cell index's subset sums, against itertools.combinations and the
    # bit_count reference
    Mutant("cell mask one bit too wide", POLYFEAT,
           "index &= cell(2 * sign - 1)",
           "index &= cell(4 * sign - 1)",
           (CELLS + "[9-5]", CELLS + "[66-3]", DRAWS + "[48-5]", DRAWS + "[66-3]")),
    Mutant("last subset block dropped", POLYFEAT,
           "    for i, src, dst in blocks:",
           "    for i, src, dst in blocks[:-1]:",
           (SUBSETS + "[48-5]", SUBSETS + "[768-3]", CELLS + "[1-3]")),
    Mutant("a free variable counted k, not k - 1", POLYFEAT,
           "f * cell(k - 1)",
           "f * cell(k)",
           (CELLS + "[9-5]", CELLS + "[66-3]", DRAWS + "[48-5]")),
    # the round-summary caches, sized to the sweeps they serve
    Mutant("terminal-mean cache at 1024", "src/satmdp/reward.py",
           "@lru_cache(maxsize=4096)",
           "@lru_cache(maxsize=1024)",
           SECOND_PASS),
    Mutant("coefficient-table cache at 1024", POLYFEAT,
           "@lru_cache(maxsize=4096)",
           "@lru_cache(maxsize=1024)",
           SECOND_PASS),
    # verify-claims' linearity suite, at ten times each threshold
    Mutant("linearity threshold 1e-7", CLI,
           "max_lin <= 1e-8",
           "max_lin <= 1e-7",
           (THRESHOLDS + "[2e-08-0.0-False]",)),
    Mutant("optimality threshold 1e-8", CLI,
           "max_opt <= 1e-9",
           "max_opt <= 1e-8",
           (THRESHOLDS + "[0.0-2e-09-False]",)),
    Mutant("parser built on every call", CLI,
           "@functools.cache\ndef build_parser()",
           "def build_parser()",
           (CLI_TESTS + "test_main_builds_its_parser_once_and_looks_commands_up_per_call",)),
    # the epsilon-net's cuts on integer-rounded features, against its
    # reference; unrounded, the H = 4 spec's twin siblings no longer tie
    Mutant("features not rounded", AGENTS,
           "        rounded = np.rint(feats * scale)",
           "        rounded = feats",
           (NET_REF_H4,)),
    Mutant("K one bit past the limit", AGENTS,
           "    return 51 - (dim * (top + 1)).bit_length()",
           "    return 52 - (dim * (top + 1)).bit_length()",
           (*NET_ROUNDING, NET_REFUSES_SLIP)),
    Mutant("c > 0 for c >= 0 at h = 0", AGENTS,
           "            cuts[p] = np.where(c >= 0, lo, top)",
           "            cuts[p] = np.where(c > 0, lo, top)",
           (*CUTS_EXACT, CUTS_RIM, NET_REF_H4)),
    Mutant("floor for ceil at h > 0", AGENTS,
           "            np.ceil(t, out=t)",
           "            np.floor(t, out=t)",
           (*CUTS_EXACT, CUTS_RIM, CUTS + "divide_exactly_at_the_largest_ball[1]",
            CUTS + "divide_exactly_at_the_largest_ball[-1]", NET_REF_H3, NET_REF_H4,
            NET_GOLDEN_D3)),
    Mutant("the |psi_j| <= 1 refusal removed", AGENTS,
           "        if not (np.abs(feats) <= 1).all():",
           "        if False:",
           tuple(NET + f"refuses_features_outside_the_unit_box[{x}-True]"
                 for x in ("1.0000000000000002", "-1.5", "nan"))),
    Mutant("the rounding-bound refusal removed", AGENTS,
           "    if slip >= cover:",
           "    if False:",
           (NET_REFUSES_SLIP,)),
    # the epsilon-net's replay of a recorded partition: each read is made
    # and checked, in the order the search first made it
    Mutant("replay skips the feature comparison", AGENTS,
           "                if sa_features(states[path], path).tobytes() != seen:",
           "                if sa_features(states[path], path) is None:",
           (NET + "recounts_when_a_read_child_moves_one_rounding_unit",)),
    Mutant("replay skips the settle check", AGENTS,
           "                if ends(s, path) != seen:",
           "                if ends(s, path) is None:",
           (NET + "recounts_when_an_edge_settles_elsewhere",)),
    Mutant("a hit does not walk the recorded edges into leaves", AGENTS,
           "            else:\n                s = states[path] =",
           "            elif not seen:\n                s = states[path] =",
           tuple(NET + f"asks_the_same_queries_on_a_hit_as_on_a_miss[{spec}]"
                 for spec in ("H3", "H4", "d3"))),
    Mutant("a hit left where it was recorded", AGENTS,
           "        _recordings.move_to_end(hit)\n",
           "",
           ("tests/test_caches.py::"
            "test_the_epsilon_net_memo_keeps_its_most_recently_used_recordings",)),
    # the toy's state checks
    Mutant("negative states take actions", TOYS,
           "if not 0 <= s < self._internal:",
           "if not s < self._internal:",
           TOY_STATES),
    Mutant("the first leaf takes actions", TOYS,
           "if not 0 <= s < self._internal:",
           "if not 0 <= s <= self._internal:",
           TOY_STATES),
    Mutant("v_star of a negative state", TOYS,
           "if not 0 <= s < len(self._value):",
           "if not s < len(self._value):",
           TOY_STATES),
    Mutant("v_star one past the tree", TOYS,
           "if not 0 <= s < len(self._value):",
           "if not 0 <= s <= len(self._value):",
           TOY_STATES),
    # the toy's planting, against its memory bound: the planted bytes do not
    # move, so `test_planted_golden` passes on it
    Mutant("full draw kept alive through planting", TOYS,
           "    raw = struct.normal(size=(internal, 1 + k, dim))[:, 1:].reshape(-1, dim)",
           "    draw = struct.normal(size=(internal, 1 + k, dim))\n"
           "    raw = draw[:, 1:].reshape(-1, dim)",
           ("tests/test_toys.py::test_planting_holds_no_full_size_temporary",)),
    # the horizon split against its definition: Q*, the closed-form work and
    # the ranks of its candidate rows
    Mutant("worst tail kept for a basis pair", AGENTS,
           "            len(bases[t]), k ** (levels[t + 1] - levels[t] - 1)).max(axis=1)",
           "            len(bases[t]), k ** (levels[t + 1] - levels[t] - 1)).min(axis=1)",
           SPLIT_SEGMENTED),
    Mutant("one kappa batch counted per walk", AGENTS,
           '            work["reward_samples"] += KAPPA_SAMPLES * len(steps)',
           '            work["reward_samples"] += KAPPA_SAMPLES',
           SPLIT_SEGMENTED),
    Mutant("one transition counted per walk", AGENTS,
           '                work["transitions"] += len(steps)',
           '                work["transitions"] += 1',
           SPLIT_SEGMENTED),
    Mutant("the root's out-of-basis actions left unexpanded", AGENTS,
           "    root_q.update(zip(rest, expand(level_feats[0][rest], 0).tolist()))",
           "    root_q.update((a, 0.0) for a in rest)",
           SPLIT_ALL),
    Mutant("terminal samples always at the cap", AGENTS,
           "    n_term = min(theoretical, sample_cap)",
           "    n_term = sample_cap",
           SPLIT_ALL),
    # select_independent's pivot tolerance, at a tenth and at ten times
    Mutant("PIVOT_TOL / 10", AGENTS,
           "PIVOT_TOL = 1e-10",
           "PIVOT_TOL = 1e-11",
           (PIVOTS + "[3e-11-2]",)),
    Mutant("PIVOT_TOL * 10", AGENTS,
           "PIVOT_TOL = 1e-10",
           "PIVOT_TOL = 1e-9",
           (PIVOTS + "[3e-10-3]",)),
    # the baselines' refusals and work limits
    Mutant("accuracy check returns at once", AGENTS,
           '    baselines call it before they ask the oracle anything."""',
           '    baselines call it before they ask the oracle anything."""\n    return',
           ACCURACY_CASES),
    Mutant("line budget refused at its bound", AGENTS,
           "    if line_bound > LINE_BUDGET:",
           "    if line_bound >= LINE_BUDGET:",
           (NET + "line_budget_holds_at_its_bound",)),
    Mutant("range points refused at MAX_RANGE", "src/satmdp/reward.py",
           "    if 2 * v + 1 > MAX_RANGE:",
           "    if 2 * v + 1 >= MAX_RANGE:",
           ("tests/test_reward.py::test_range_claim_refuses_points_over_its_limit",)),
    # the DIMACS bulk pass, whose refusals the line walk then names
    Mutant("header keyword any word that starts with p", CNF,
           r'[ \t\v\f]*p[ \t\v\f]+cnf"',
           r'[ \t\v\f]*p[^ \t\v\f\n]*[ \t\v\f]+cnf"',
           tuple(CNF_TESTS + f"test_parse_refuses_a_header_keyword_other_than_p[{word}]"
                 for word in ("problem", "pfoo"))),
    Mutant("token count not checked against the values read", CNF,
           "if not len(values) == tokens == digit_runs:",
           "if False:",
           tuple(CNF_TESTS + f"test_parse_refuses_a_lone_minus[{case}]"
                 for case in ("as the terminator", "before a literal"))),
    Mutant("literals past int64 read as its bounds", CNF,
           "if values.max() == _INT64.max or values.min() == _INT64.min:",
           "if False:",
           (CNF_TESTS + "test_parse_refuses_literals_beyond_int64",)),
    Mutant("clause count not checked against the header", CNF,
           "if len(ends) != m or values[-1]:",
           "if values[-1]:",
           (CNF_TESTS + "test_parse_rejects_count_mismatch_and_missing_header",)),
    # the report check, against jsonschema's verdicts and its own messages
    Mutant("bool accepted as integer", REPORTING,
           '"integer": lambda x: not isinstance(x, bool) and (',
           '"integer": lambda x: (',
           (AGREES + "[seed=True]", AGREES + "[seed=False]",
            REPORT_TESTS + "names_the_field_and_the_rule")),
    Mutant("bool accepted as number", REPORTING,
           '"number": lambda x: not isinstance(x, bool) and isinstance(x, numbers.Number),',
           '"number": lambda x: isinstance(x, numbers.Number),',
           (AGREES + "[wallclock_sec=True]", AGREES + "[wallclock_sec=False]")),
    Mutant("1.0 refused as integer", REPORTING,
           "isinstance(x, int) or isinstance(x, float) and x.is_integer()),",
           "isinstance(x, int)),",
           (AGREES + "[seed=1.0]", AGREES + "[seed=np.float64(2.0)]")),
    Mutant("pattern matched whole, not searched", REPORTING,
           "and not re.search(pattern, value):",
           "and not re.fullmatch(pattern, value):",
           ("tests/test_cli.py::test_config_hash_ending_in_a_newline_is_refused_by_both_checks",)),
    Mutant("extra fields not checked", REPORTING,
           "    if extra:",
           "    if False:",
           (AGREES + "[extra field]", REPORT_TESTS + "names_the_field_and_the_rule")),
    Mutant("unread top-level keyword not refused", REPORTING,
           "if (set(schema) != keywords or",
           "if (False or",
           (UNREAD + "[top-level keyword]",)),
    Mutant("unread field keyword not refused", REPORTING,
           'if (not set(rule) <= {"type", "pattern", "maxLength"} or not types',
           "if (False or not types",
           (UNREAD + "[field keyword]",)),
    Mutant("null refused", REPORTING,
           '"null": lambda x: x is None,',
           '"null": lambda x: False,',
           (AGREES + "[seed=None]", AGREES + "[answer=None]",
            "tests/test_cli.py::test_report_schema_rejects_malformed")),
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
