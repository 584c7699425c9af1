import copy
import functools
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import satmdp
from conftest import FIGURE_DIMACS
from satmdp import reporting
from satmdp.cli import main
from satmdp.errors import InvariantViolation
from satmdp.reporting import (
    REPORT_SCHEMA,
    VOLATILE_FIELDS,
    config_hash,
    make_report,
    validate_report,
)


@pytest.fixture
def cnf_file(tmp_path):
    path = tmp_path / "figure.cnf"
    path.write_text(FIGURE_DIMACS)
    return path


@functools.cache
def _jsonschema_validator():
    import jsonschema
    return jsonschema.Draft202012Validator(REPORT_SCHEMA)


@pytest.fixture(autouse=True)
def reports_checked_by_jsonschema_too():
    """Every report a test here makes is also checked by jsonschema, the
    reference the package's check follows, which must reach the same verdict."""
    def checked_twice(report):
        expected = _jsonschema_validator().is_valid(report)
        try:
            validate_report(report)
        except InvariantViolation:
            assert not expected, f"jsonschema accepts {report!r}"
            raise
        assert expected, f"jsonschema refuses {report!r}"

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reporting, "validate_report", checked_twice)
        yield


def read_json(path):
    return json.loads(path.read_text())


def strip_volatile(report):
    return {k: v for k, v in report.items() if k not in VOLATILE_FIELDS}


def test_gen_writes_bundle(tmp_path, cnf_file):
    out = tmp_path / "bundle"
    rc = main(["gen", "--cnf", str(cnf_file), "--out", str(out),
               "--q", "2", "--rounds", "2"])
    assert rc == 0
    bundle = read_json(out / "instance.json")
    assert bundle["metadata"]["v"] == 5
    assert bundle["metadata"]["m"] == 5
    assert bundle["metadata"]["H"] == 10
    assert bundle["metadata"]["d"] == 31
    assert bundle["metadata"]["satisfiable"] is True
    assert bundle["config"]["cnf_path"] == "../figure.cnf"
    assert bundle["config"]["cnf_sha256"] == \
        hashlib.sha256(cnf_file.read_bytes()).hexdigest()
    # gen draws nothing, so it takes no seed
    assert "seed" not in bundle["config"]
    report = read_json(out / "report.json")
    validate_report(report)
    assert report["seed"] is None


def test_bundle_runs_from_another_directory(tmp_path, monkeypatch):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "a" / "fig.cnf").write_text(FIGURE_DIMACS)
    monkeypatch.chdir(tmp_path / "a")
    assert main(["gen", "--cnf", "fig.cnf", "--out", "bundle",
                 "--q", "2", "--rounds", "2"]) == 0
    monkeypatch.chdir(tmp_path / "b")
    assert main(["run", "--instance", "../a/bundle/instance.json",
                 "--out", "rollouts"]) == 0


def test_bundle_refuses_changed_cnf(tmp_path, cnf_file, capsys):
    bundle = tmp_path / "bundle"
    assert main(["gen", "--cnf", str(cnf_file), "--out", str(bundle),
                 "--q", "2", "--rounds", "2"]) == 0
    cnf_file.write_text(FIGURE_DIMACS + "c edited\n")
    rc = main(["run", "--instance", str(bundle / "instance.json"),
               "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "cnf_sha256" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("cnf_path", None), ("cnf_sha256", None), ("mode", None), ("p", "two"),
    ("wstar", 7), ("wstar", "1x1x0"), ("start_assignment", "11111"),
    ("q", 500), ("alpha", -3.0),
    # json writes an infinite alpha as Infinity, which json.loads reads back
    ("p", 2.5), ("h", 2.5), ("q", 2.5), ("b", 6.5), ("alpha", float("inf")),
    ("p", True),
])
def test_bundle_missing_or_malformed_key(tmp_path, cnf_file, capsys, key, value):
    bundle = tmp_path / "bundle"
    assert main(["gen", "--cnf", str(cnf_file), "--out", str(bundle),
                 "--q", "2", "--rounds", "2"]) == 0
    data = read_json(bundle / "instance.json")
    if value is None:
        del data["config"][key]
    else:
        data["config"][key] = value
    (bundle / "instance.json").write_text(json.dumps(data))
    assert main(["run", "--instance", str(bundle / "instance.json"),
                 "--out", str(tmp_path / "r")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--wstar", "1x1x0"),
                                         ("--start", "0a000")])
def test_gen_rejects_non_binary_assignment(tmp_path, cnf_file, capsys, flag,
                                           value):
    rc = main(["gen", "--cnf", str(cnf_file), "--out", str(tmp_path / "b"),
               "--q", "2", "--rounds", "2", flag, value])
    assert rc == 2
    assert "0s and 1s" in capsys.readouterr().err


def test_gen_refuses_start_that_meets_threshold(tmp_path, cnf_file, capsys):
    # 11111 satisfies every clause of the figure formula: the episode would
    # end before its first step
    out = tmp_path / "b"
    rc = main(["gen", "--cnf", str(cnf_file), "--out", str(out),
               "--q", "2", "--rounds", "2", "--start", "11111"])
    assert rc == 2
    assert "threshold" in capsys.readouterr().err
    assert not (out / "instance.json").exists()


@pytest.mark.parametrize("command", ["gen", "reduce", "transform"])
def test_non_utf8_cnf_is_a_usage_error(tmp_path, capsys, command):
    path = tmp_path / "latin1.cnf"
    path.write_bytes(FIGURE_DIMACS.encode() + b"c caf\xe9 \xff\n")
    argv = {"gen": ["--out", str(tmp_path / "b"), "--q", "2", "--rounds", "2"],
            "reduce": ["--q", "2", "--rounds", "2"],
            "transform": []}[command]
    assert main([command, "--cnf", str(path), *argv]) == 2
    assert "line 8: not UTF-8 text" in capsys.readouterr().err


def test_gen_missing_file(tmp_path):
    rc = main(["gen", "--cnf", str(tmp_path / "nope.cnf"),
               "--out", str(tmp_path / "x")])
    assert rc == 2


@pytest.fixture
def unsat_cnf(tmp_path):
    # strictified (x)(~x): v=7, m=8, occurrence bound 8; every assignment
    # satisfies exactly 7 of the 8 clauses
    from satmdp.cnf import formula_from_ints, to_dimacs
    from satmdp.gapsat import strictify
    f = strictify(formula_from_ints(1, [[1], [-1]], strict=False))
    path = tmp_path / "unsat.cnf"
    path.write_text(to_dimacs(f))
    return path


def test_gen_refuses_default_start_that_meets_threshold(tmp_path, unsat_cnf,
                                                        capsys):
    # at the default eps = 1/4 the threshold is 7 of 8, which the all-false
    # start already meets: every episode would end at step 0
    out = tmp_path / "bundle"
    rc = main(["gen", "--cnf", str(unsat_cnf), "--out", str(out),
               "--rounds", "2", "--b", "8"])
    assert rc == 2
    assert "threshold" in capsys.readouterr().err
    assert not out.exists()


def test_gen_unsat_zero_reward_mode(tmp_path, unsat_cnf):
    # eps = 1/8: the threshold is 8 of 8, which no assignment meets
    out = tmp_path / "bundle"
    rc = main(["gen", "--cnf", str(unsat_cnf), "--out", str(out),
               "--rounds", "2", "--b", "8", "--epsilon", "0.125"])
    assert rc == 0
    meta = read_json(out / "instance.json")["metadata"]
    assert meta["satisfiable"] is False and meta["wstar"] is None


def test_simulator_bundle_pays_zero_everywhere(tmp_path, cnf_file, capsys):
    bundle = tmp_path / "bundle"
    assert main(["gen", "--cnf", str(cnf_file), "--out", str(bundle),
                 "--q", "2", "--rounds", "2", "--mode", "simulator",
                 "--start", "01000"]) == 0
    meta = read_json(bundle / "instance.json")["metadata"]
    assert meta["satisfiable"] is None and meta["wstar"] is None
    out = tmp_path / "rr"
    assert main(["run", "--instance", str(bundle / "instance.json"),
                 "--agent", "random", "--episodes", "40", "--seed", "3",
                 "--out", str(out)]) == 0
    outcomes = read_json(out / "report.json")["outcomes"]
    assert "gap_satisfied" in outcomes["terminal_kinds"]
    assert outcomes["episode_rewards"] == [0] * 40
    lines = (out / "trajectories.jsonl").read_text().splitlines()
    assert {json.loads(line)["reward"] for line in lines} == {0}
    capsys.readouterr()
    assert main(["run", "--instance", str(bundle / "instance.json"),
                 "--agent", "greedy", "--out", str(tmp_path / "rg")]) == 2
    assert "greedy agent needs a satisfying assignment" in capsys.readouterr().err


def test_gen_simulator_refuses_wstar(tmp_path, cnf_file, capsys):
    out = tmp_path / "bundle"
    assert main(["gen", "--cnf", str(cnf_file), "--out", str(out),
                 "--q", "2", "--rounds", "2", "--mode", "simulator",
                 "--wstar", "11111"]) == 2
    assert "simulator takes no wstar" in capsys.readouterr().err
    assert not out.exists()


def test_run_deterministic_reports(tmp_path, cnf_file):
    bundle = tmp_path / "bundle"
    assert main(["gen", "--cnf", str(cnf_file), "--out", str(bundle),
                 "--q", "2", "--rounds", "2"]) == 0
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        rc = main(["run", "--instance", str(bundle / "instance.json"),
                   "--agent", "greedy", "--episodes", "3",
                   "--seed", "11", "--out", str(out)])
        assert rc == 0
    assert strip_volatile(read_json(out1 / "report.json")) == \
        strip_volatile(read_json(out2 / "report.json"))
    assert (out1 / "trajectories.jsonl").read_bytes() == \
        (out2 / "trajectories.jsonl").read_bytes()
    lines = (out1 / "trajectories.jsonl").read_text().splitlines()
    first = json.loads(lines[0])
    assert set(first) == {"step", "state_digest", "action", "reward"}


@pytest.fixture
def planted_bundle(tmp_path):
    """Full-mode bundle of the v=15 regular planted formula (seed 3)."""
    from satmdp.cnf import to_dimacs
    from satmdp.instances import regular_planted_formula
    f, planted = regular_planted_formula(15, seed=3)
    cnf = tmp_path / "f15.cnf"
    cnf.write_text(to_dimacs(f))
    bundle = tmp_path / "bundle15"
    assert main(["gen", "--cnf", str(cnf), "--out", str(bundle),
                 "--q", "2", "--rounds", "2", "--epsilon", "0.0625",
                 "--wstar", "".join("1" if x == 1 else "0" for x in planted)]) == 0
    return bundle


# sha256 over the trajectory bytes and report outcomes of the three runs below,
# recorded while episodes were still buffered whole before being written: pins
# every step line, reward draw, policy draw and query count of `satmdp run`
RUN_GOLDEN = "708bdc496b52f68eca7033bfd4a26e3bb596a56112ed0abd2e5fc260d65b0daa"


def test_run_golden(tmp_path, cnf_file, planted_bundle):
    figure = tmp_path / "bundle"
    assert main(["gen", "--cnf", str(cnf_file), "--out", str(figure),
                 "--q", "2", "--rounds", "2"]) == 0
    digest = hashlib.sha256()
    for k, (bundle, agent, episodes, seed) in enumerate((
            (figure, "greedy", 3, 11), (planted_bundle, "random", 4, 5),
            (planted_bundle, "greedy", 4, 5))):
        out = tmp_path / f"run{k}"
        assert main(["run", "--instance", str(bundle / "instance.json"),
                     "--agent", agent, "--episodes", str(episodes),
                     "--seed", str(seed), "--out", str(out)]) == 0
        digest.update((out / "trajectories.jsonl").read_bytes())
        outcomes = read_json(out / "report.json")["outcomes"]
        digest.update(json.dumps(outcomes, sort_keys=True).encode())
    assert digest.hexdigest() == RUN_GOLDEN


# sha256 over the trajectory bytes and report outcomes of one random and one
# greedy run on the criterion-5 bundle (v=768): every mask there spans 96
# bytes, where RUN_GOLDEN's fit in two
RUN_GOLDEN_768 = "e66b8a738f398e52ee8e0477dd11632858469bc708ef02fe20972184a6446113"


def test_run_golden_768(tmp_path):
    from satmdp.cnf import to_dimacs
    from satmdp.instances import regular_planted_formula
    f, planted = regular_planted_formula(768, seed=7)
    cnf = tmp_path / "f768.cnf"
    cnf.write_text(to_dimacs(f))
    bundle = tmp_path / "bundle768"
    assert main(["gen", "--cnf", str(cnf), "--out", str(bundle),
                 "--rounds", "2", "--epsilon", str(1 / 64), "--b", "6",
                 "--wstar", "".join("1" if x == 1 else "0" for x in planted)]) == 0
    digest = hashlib.sha256()
    for agent, seed in (("random", 3), ("greedy", 4)):
        out = tmp_path / agent
        assert main(["run", "--instance", str(bundle / "instance.json"),
                     "--agent", agent, "--seed", str(seed), "--out", str(out)]) == 0
        digest.update((out / "trajectories.jsonl").read_bytes())
        outcomes = read_json(out / "report.json")["outcomes"]
        digest.update(json.dumps(outcomes, sort_keys=True).encode())
    assert digest.hexdigest() == RUN_GOLDEN_768


def test_random_play_carries_a_block_into_the_next_episode(tmp_path, planted_bundle,
                                                         monkeypatch):
    """Random actions come in blocks whose rest the next episode plays, so a
    block of 7, which ends inside episodes, plays what the default block
    does: `run --agent random` and the random learner of `a_sat` alike."""
    from satmdp import agents
    from satmdp.agents import a_sat, random_learner
    from satmdp.instances import regular_planted_formula
    from satmdp.reward import params_for_rounds
    f, _ = regular_planted_formula(15, seed=3)
    params = params_for_rounds(v=15, h=2, p=2, q=2, epsilon=1 / 32)

    def play():
        out = tmp_path / f"block{agents.ACTION_BLOCK}"
        assert main(["run", "--instance", str(planted_bundle / "instance.json"),
                     "--agent", "random", "--episodes", "4", "--seed", "5",
                     "--out", str(out)]) == 0
        reduced = [a_sat(f, random_learner(4, seed=i), params, seed=i)
                   for i in range(4)]
        return ((out / "trajectories.jsonl").read_bytes(),
                read_json(out / "report.json")["outcomes"],
                [(r.answer, r.witness, r.queries) for r in reduced])

    default = play()
    monkeypatch.setattr(agents, "ACTION_BLOCK", 7)
    assert play() == default
    # some episode of the run ends inside a block of 7, leaving a rest to carry
    steps = [json.loads(line)["step"] for line in default[0].splitlines()]
    ends = [k for k, step in enumerate(steps) if k and step == 0]
    assert len(ends) == 3 and any(end % 7 for end in ends)


def test_trajectory_lines_are_json_dumps_bytes(tmp_path, planted_bundle):
    for agent in ("random", "greedy"):
        out = tmp_path / agent
        assert main(["run", "--instance", str(planted_bundle / "instance.json"),
                     "--agent", agent, "--episodes", "4", "--seed", "5",
                     "--out", str(out)]) == 0
        lines = (out / "trajectories.jsonl").read_text().splitlines(keepends=True)
        assert len(lines) > 8
        for line in lines:
            assert line == json.dumps(json.loads(line)) + "\n"


def test_run_random_agent(tmp_path, cnf_file):
    bundle = tmp_path / "bundle"
    main(["gen", "--cnf", str(cnf_file), "--out", str(bundle),
          "--q", "2", "--rounds", "2"])
    rc = main(["run", "--instance", str(bundle / "instance.json"),
               "--agent", "random", "--episodes", "2", "--seed", "3",
               "--out", str(tmp_path / "rr")])
    assert rc == 0
    # the policy must not replay the oracle's reward stream Philox(key=seed)
    lines = (tmp_path / "rr" / "trajectories.jsonl").read_text().splitlines()
    actions = [json.loads(line)["action"] for line in lines]
    reward_stream = np.random.Generator(np.random.Philox(key=3))
    assert actions != [int(reward_stream.integers(0, 3)) for _ in actions]


@pytest.mark.parametrize("count", ["0", "-1"])
def test_run_refuses_episodes_below_one(tmp_path, cnf_file, capsys, count):
    bundle = tmp_path / "bundle"
    main(["gen", "--cnf", str(cnf_file), "--out", str(bundle),
          "--q", "2", "--rounds", "2"])
    rc = main(["run", "--instance", str(bundle / "instance.json"),
               "--episodes", count, "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "--episodes must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def _seed_argv(command, tmp_path, cnf_file):
    """A valid invocation of `command` minus --seed, and the path it writes."""
    if command == "verify-claims":
        out = tmp_path / "claims.json"
        return ["verify-claims", "--v", "12", "--out", str(out)], out
    if command == "run":
        bundle = tmp_path / "bundle"
        assert main(["gen", "--cnf", str(cnf_file), "--out", str(bundle),
                     "--q", "2", "--rounds", "2"]) == 0
        out = tmp_path / "rollouts"
        return ["run", "--instance", str(bundle / "instance.json"),
                "--agent", "random", "--out", str(out)], out
    out = tmp_path / "rep.json"
    return ["reduce", "--cnf", str(cnf_file), "--q", "2", "--rounds", "2",
            "--learner", "random", "--out", str(out)], out


@pytest.mark.parametrize("command", ["verify-claims", "run", "reduce"])
@pytest.mark.parametrize("seed", [-1, 2**128], ids=["negative", "2**128"])
def test_seed_outside_philox_key_range_is_refused(tmp_path, cnf_file, capsys,
                                                  command, seed):
    argv, out = _seed_argv(command, tmp_path, cnf_file)
    capsys.readouterr()
    assert main([*argv, "--seed", str(seed)]) == 2
    assert f"--seed must be in [0, 2**128), got {seed}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify-claims", "run", "reduce"])
def test_largest_seed_is_accepted(tmp_path, cnf_file, command):
    argv, out = _seed_argv(command, tmp_path, cnf_file)
    assert main([*argv, "--seed", str(2**128 - 1)]) == 0
    assert out.exists()


def test_gen_seed_and_run_config_are_unrecognized(tmp_path, cnf_file, capsys):
    bundle = tmp_path / "bundle"
    for argv in (["gen", "--cnf", str(cnf_file), "--out", str(bundle), "--seed", "1"],
                 ["run", "--instance", str(bundle / "instance.json"),
                  "--out", str(tmp_path / "rollouts"), "--config", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
    assert not bundle.exists()


@pytest.mark.parametrize("flags, named", [
    (["--budget", "-5"], "--budget"),
    (["--budget", "0"], "--budget"),
    (["--learner", "random", "--episodes", "-2"], "--episodes"),
    (["--learner", "random", "--episodes", "0"], "--episodes"),
])
def test_reduce_refuses_counts_below_one(tmp_path, cnf_file, capsys, flags, named):
    rc = main(["reduce", "--cnf", str(cnf_file), "--q", "2", "--rounds", "2",
               *flags, "--out", str(tmp_path / "rep.json")])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"{named} must be at least 1" in captured.err
    assert "NO" not in captured.out
    assert not (tmp_path / "rep.json").exists()


def test_reduce_yes_on_satisfiable(tmp_path, cnf_file, capsys):
    rc = main(["reduce", "--cnf", str(cnf_file), "--learner", "greedy",
               "--q", "2", "--rounds", "2",
               "--out", str(tmp_path / "rep.json")])
    assert rc == 0
    report = read_json(tmp_path / "rep.json")
    assert report["answer"] == "YES"
    assert capsys.readouterr().out.strip().endswith("YES")


def test_reduce_greedy_solves_the_formula_once(tmp_path, cnf_file, sat_solves):
    # once for the greedy learner's target; the simulator solves nothing
    assert main(["reduce", "--cnf", str(cnf_file), "--learner", "greedy",
                 "--q", "2", "--rounds", "2",
                 "--out", str(tmp_path / "rep.json")]) == 0
    assert len(sat_solves) == 1


def test_reduce_no_on_gap_unsat(tmp_path, capsys):
    import numpy as np
    from satmdp.cnf import to_dimacs
    from satmdp.instances import random_gap_unsat_formula
    f = random_gap_unsat_formula(np.random.default_rng(9), v=7)
    path = tmp_path / "gap.cnf"
    path.write_text(to_dimacs(f))
    rc = main(["reduce", "--cnf", str(path), "--learner", "random",
               "--rounds", "2", "--epsilon", "0.0625", "--b", "8",
               "--budget", "20000", "--out", str(tmp_path / "rep.json")])
    assert rc == 0
    assert read_json(tmp_path / "rep.json")["answer"] == "NO"


def test_transform_cli(tmp_path):
    from satmdp.cnf import formula_from_ints, to_dimacs
    int_clauses = [[1, 2, 3], [1, 4, 5], [-1, 6, 7], [1, -2, -4],
                   [-1, 3, -6], [1, -5, 7], [-1, 2, -7], [1, -3, 6]]
    f = formula_from_ints(7, int_clauses)
    path = tmp_path / "heavy.cnf"
    path.write_text(to_dimacs(f))
    rc = main(["transform", "--cnf", str(path), "--b", "6",
               "--emit", str(tmp_path / "out.cnf"),
               "--out", str(tmp_path / "rep.json")])
    assert rc == 0
    report = read_json(tmp_path / "rep.json")
    assert report["outcomes"]["b_achieved"] <= 6
    assert report["outcomes"]["maxsat_out"] is not None
    from satmdp.cnf import occurrence_bound, parse_dimacs
    psi = parse_dimacs((tmp_path / "out.cnf").read_text())
    assert occurrence_bound(psi) <= 6


def test_transform_reads_only_the_variables_that_occur(tmp_path):
    # the declared v is far past any table over all variables: the occurrence
    # count and the copy lists must come from the clauses alone
    v = 10**15
    path = tmp_path / "wide.cnf"
    path.write_text(f"p cnf {v} 7\n" + f"1 2 {v} 0\n" * 7)
    rc = main(["transform", "--cnf", str(path), "--b", "6",
               "--out", str(tmp_path / "rep.json")])
    assert rc == 0
    assert read_json(tmp_path / "rep.json")["outcomes"]["b_achieved"] <= 6


def test_transform_refuses_a_v_its_new_variables_would_take_past_int64(
        tmp_path, capsys):
    # three variables in seven clauses each at b = 6: 21 copies and 21
    # padding variables, numbered past v = 2^63 - 8
    v = 2**63 - 8
    path = tmp_path / "edge.cnf"
    path.write_text(f"p cnf {v} 7\n" + "1 2 3 0\n" * 7)
    assert main(["transform", "--cnf", str(path), "--b", "6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"v = {v}" in err
    assert "clause" not in err
    # the largest v whose 42 new variables stay inside int64 transforms
    path.write_text(f"p cnf {2**63 - 43} 7\n" + "1 2 3 0\n" * 7)
    assert main(["transform", "--cnf", str(path), "--b", "6",
                 "--out", str(tmp_path / "rep.json")]) == 0


@pytest.mark.parametrize("command", ["transform", "verify-claims"])
def test_unwritable_output_is_a_usage_error(tmp_path, cnf_file, capsys, command):
    # a path under a regular file cannot be created
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = {"transform": ["--cnf", str(cnf_file), "--emit", str(blocker / "x.cnf")],
            "verify-claims": ["--v", "12", "--out", str(blocker / "r.json")]}[command]
    assert main([command, *argv]) == 2
    assert "error:" in capsys.readouterr().err


def test_transform_refuses_small_b(tmp_path, cnf_file):
    rc = main(["transform", "--cnf", str(cnf_file), "--b", "3"])
    assert rc == 2


def test_verify_claims_small(tmp_path):
    rc = main(["verify-claims", "--v", "12", "--out",
               str(tmp_path / "claims.json")])
    assert rc == 0
    report = read_json(tmp_path / "claims.json")
    validate_report(report)
    assert report["outcomes"]["claim_range_q4"]["pass"]
    assert report["outcomes"]["claim_monotone_step"]["pass"]
    assert report["outcomes"]["claim_monotone_step_q2_logp"]["pass"]
    assert report["outcomes"]["linearity_and_optimality"]["pass"]


@pytest.mark.parametrize("alpha", ["nan", "inf", "1e308"])
@pytest.mark.parametrize("command", ["gen", "verify-claims", "reduce"])
def test_non_finite_round_count_is_a_usage_error(tmp_path, cnf_file, capsys,
                                                 command, alpha):
    args = {"gen": ["--cnf", str(cnf_file), "--out", str(tmp_path / "b")],
            "verify-claims": ["--v", "12"],
            "reduce": ["--cnf", str(cnf_file)]}[command]
    assert main([command, *args, "--alpha", alpha]) == 2
    assert "not finite" in capsys.readouterr().err


@pytest.mark.parametrize("v, alpha, cell", [("12", "1e300", (1, 0, 2, 1)),
                                            ("50", "1000", (1, 0, 28, 1))],
                         ids=["12-1e300", "50-1000"])
def test_verify_claims_decides_a_monotone_step_at_huge_h(tmp_path, v, alpha, cell):
    # h = floor(alpha * v^3) is about 2^1007 and 1.25e8 rounds, all decided at once
    rc = main(["verify-claims", "--v", v, "--alpha", alpha,
               "--out", str(tmp_path / "claims.json")])
    assert rc == 1
    ce = read_json(tmp_path / "claims.json")["outcomes"]["claim_monotone_step"][
        "counterexample"]
    assert (ce["i"], ce["c"], ce["d"], ce["x"]) == cell


@pytest.mark.parametrize("flags", [["--q", "500"], ["--q", "500", "--rounds", "2"],
                                   ["--alpha", "0"], ["--alpha", "-3"]],
                         ids=["q-alpha", "q-rounds", "alpha-0", "alpha-neg"])
@pytest.mark.parametrize("command", ["gen", "reduce"])
def test_round_scale_out_of_range_is_a_usage_error(tmp_path, cnf_file, capsys,
                                                   command, flags):
    # 5^499 overflows a float; a non-positive alpha gives no rounds
    rc = main([command, "--cnf", str(cnf_file), "--out", str(tmp_path / "b"),
               *flags])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_verify_claims_refuses_a_range_over_its_limit(tmp_path, capsys):
    # the grid x in [0, 2v] alone would take 16 GB
    out = tmp_path / "claims.json"
    rc = main(["verify-claims", "--v", "1000000000", "--out", str(out)])
    assert rc == 3
    assert "refused:" in capsys.readouterr().err
    assert not out.exists()


def test_internal_error_has_its_own_exit_code(tmp_path, cnf_file, monkeypatch,
                                              capsys):
    from satmdp import cli
    from satmdp.errors import InvariantViolation

    def broken(_args):
        raise InvariantViolation("tree check failed")

    monkeypatch.setattr(cli, "cmd_transform", broken)
    assert main(["transform", "--cnf", str(cnf_file)]) == 4
    assert "internal error: tree check failed" in capsys.readouterr().err
    # a failed verification keeps exit 1
    monkeypatch.setattr(cli, "_linearity_suite", lambda seed: {"pass": False})
    assert main(["verify-claims", "--v", "12", "--out",
                 str(tmp_path / "claims.json")]) == 1


@pytest.mark.parametrize("lin_shift, opt_shift, passes", [
    (5e-9, 0.0, True), (2e-8, 0.0, False), (0.0, 5e-10, True),
    (0.0, 2e-9, False)])
def test_linearity_suite_holds_its_thresholds(monkeypatch, lin_shift,
                                              opt_shift, passes):
    """verify-claims' suite fails a greedy value lin_shift off the features'
    inner product past 1e-8, and an optimum opt_shift off the greedy value
    past 1e-9, on its own instances."""
    from satmdp import agents, cli

    def shifted(values, shift):
        return lambda *args: [x + shift for x in values(*args)]

    monkeypatch.setattr(agents, "tree_greedy_values",
                        shifted(agents.tree_greedy_values, lin_shift))
    monkeypatch.setattr(agents, "tree_optimal_values",
                        shifted(agents.tree_optimal_values, lin_shift + opt_shift))
    result = cli._linearity_suite(0)
    assert result["max_linearity_error"] == pytest.approx(lin_shift, abs=1e-12)
    assert result["max_optimality_gap"] == pytest.approx(opt_shift, abs=1e-12)
    assert result["pass"] is passes


def test_main_builds_its_parser_once_and_looks_commands_up_per_call(
        cnf_file, monkeypatch, capsys):
    from satmdp import cli
    parser = cli.build_parser()
    misses = cli.build_parser.cache_info().misses
    assert main(["transform", "--cnf", str(cnf_file)]) == 0
    # a command patched after the parser was built is the one that runs
    monkeypatch.setattr(cli, "cmd_transform", lambda _args: 7)
    assert main(["transform", "--cnf", str(cnf_file)]) == 7
    assert cli.build_parser() is parser
    assert cli.build_parser.cache_info().misses == misses
    # a usage error leaves the shared parser as it was
    with pytest.raises(SystemExit) as exc:
        main(["transform"])
    assert exc.value.code == 2
    assert "--cnf" in capsys.readouterr().err
    monkeypatch.undo()
    assert main(["transform", "--cnf", str(cnf_file)]) == 0


def test_gen_refuses_undecidable_satisfiability(tmp_path):
    # v over the exhaustive limit, full mode, no wstar: cannot price rewards
    import numpy as np
    from satmdp.cnf import to_dimacs
    from satmdp.instances import regular_planted_formula
    f, planted = regular_planted_formula(30, seed=1)
    path = tmp_path / "big.cnf"
    path.write_text(to_dimacs(f))
    # the all-false start satisfies 54 of 60 clauses; eps = 1/16 puts the
    # threshold at 57, above it
    rc = main(["gen", "--cnf", str(path), "--out", str(tmp_path / "big"),
               "--rounds", "2", "--epsilon", "0.0625"])
    assert rc == 3
    # supplying the planted assignment unblocks it
    rc = main(["gen", "--cnf", str(path), "--out", str(tmp_path / "big"),
               "--rounds", "2", "--epsilon", "0.0625",
               "--wstar", "".join("1" if x == 1 else "0" for x in planted)])
    assert rc == 0


def test_report_schema_rejects_malformed():
    report = make_report("x", {"a": 1}, 0, {}, 0.1)
    validate_report(report)
    bad = dict(report)
    bad["config_hash"] = "nope"
    with pytest.raises(InvariantViolation,
                       match="'config_hash': 'nope' does not match"):
        validate_report(bad)


def test_a_report_that_fails_its_check_is_an_internal_error(cnf_file, capsys,
                                                            monkeypatch):
    monkeypatch.setattr(reporting, "config_hash", lambda _config: "nope")
    assert main(["transform", "--cnf", str(cnf_file)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: report field 'config_hash'")
    assert "Traceback" not in err


def _mutant(change):
    """A valid report with `change` applied; a field changed to ... is dropped."""
    report = make_report("x", {"a": 1}, 7, {"k": [1]}, 0.25, answer="YES")
    for name, value in change.items():
        if value is ...:
            del report[name]
        else:
            report[name] = value
    return report


# a value of every JSON type, the bools, integer-valued floats and numpy scalars
PROBES = [None, True, False, 0, -3, 1.0, 1.5, float("nan"), float("inf"),
          np.int64(3), np.float64(2.0), "", "x", [], [1], {}, {"a": 1}]
REPORT_MUTANTS = (
    [("without " + name, {name: ...}) for name in REPORT_SCHEMA["properties"]]
    + [("extra field", {"extra": 1})]
    + [(f"{name}={value!r}", {name: value})
       for name in REPORT_SCHEMA["properties"] for value in PROBES]
    + [(f"config_hash {kind}", {"config_hash": value}) for kind, value in [
        ("upper-case", "A" * 64), ("of 63 characters", "a" * 63),
        ("of 65 characters", "a" * 65), ("ending in a newline", "a" * 64 + "\n")]])


@pytest.mark.parametrize("change", [c for _, c in REPORT_MUTANTS],
                         ids=[i for i, _ in REPORT_MUTANTS])
def test_report_check_agrees_with_jsonschema_on_mutants(change):
    report = _mutant(change)
    if _jsonschema_validator().is_valid(report):
        validate_report(report)
    else:
        with pytest.raises(InvariantViolation):
            validate_report(report)


def test_config_hash_ending_in_a_newline_is_refused_by_both_checks():
    # `$` matches before a final newline, so the pattern alone admits it
    report = _mutant({"config_hash": "a" * 64 + "\n"})
    assert re.search(REPORT_SCHEMA["properties"]["config_hash"]["pattern"],
                     report["config_hash"])
    assert not _jsonschema_validator().is_valid(report)
    with pytest.raises(InvariantViolation, match="'config_hash': .* is longer than 64"):
        validate_report(report)

def test_report_check_names_the_field_and_the_rule():
    for change, message in [
            ({"seed": True}, "'seed': True is not of type integer or null"),
            ({"extra": 1}, "fields \\['extra'\\] are not in the schema"),
            ({"command": ...}, "lacks the required field 'command'")]:
        with pytest.raises(InvariantViolation, match=message):
            validate_report(_mutant(change))


@pytest.mark.parametrize("edit", [
    lambda s: s.update(minProperties=1),
    lambda s: s["properties"]["seed"].update(minimum=0),
    lambda s: s["properties"]["seed"].update(type=["integer", "decimal"]),
    lambda s: s.update(additionalProperties=True),
    lambda s: s.update({"$schema": "http://json-schema.org/draft-07/schema#"}),
], ids=["top-level keyword", "field keyword", "unknown type", "open object",
        "other draft"])
def test_report_check_refuses_a_schema_it_does_not_read(monkeypatch, edit):
    report = _mutant({})
    schema = copy.deepcopy(REPORT_SCHEMA)
    edit(schema)
    monkeypatch.setattr(reporting, "REPORT_SCHEMA", schema)
    with pytest.raises(InvariantViolation, match="check reads"):
        validate_report(report)


@pytest.mark.parametrize("argv", [
    ["gen", "--cnf", "{cnf}", "--out", "{tmp}/b", "--q", "2", "--rounds", "2"],
    ["run", "--instance", "{bundle}/instance.json", "--out", "{tmp}/r"],
    ["reduce", "--cnf", "{cnf}", "--rounds", "2"],
    ["transform", "--cnf", "{cnf}"],
    ["verify-claims", "--v", "8", "--out", "{tmp}/claims.json"],
], ids=lambda argv: argv[0])
def test_no_subcommand_imports_jsonschema(tmp_path, cnf_file, argv):
    bundle = tmp_path / "bundle"
    assert main(["gen", "--cnf", str(cnf_file), "--out", str(bundle),
                 "--q", "2", "--rounds", "2"]) == 0
    argv = [a.format(cnf=cnf_file, tmp=tmp_path, bundle=bundle) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(satmdp.__file__).parents[1]))
    # a None entry makes `import jsonschema` raise ImportError
    code = ("import sys; sys.modules['jsonschema'] = None; "
            "from satmdp.cli import main; sys.exit(main(sys.argv[1:]))")
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_report_schema_is_valid_draft_2020_12():
    import jsonschema
    from satmdp.reporting import REPORT_SCHEMA
    jsonschema.Draft202012Validator.check_schema(REPORT_SCHEMA)


def test_config_hash_is_stable():
    assert config_hash({"b": 1, "a": 2}) == config_hash({"a": 2, "b": 1})
