import hashlib
import json

import numpy as np
import pytest

from conftest import FIGURE_DIMACS
from satmdp.cli import main
from satmdp.reporting import (
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
    validate_report(read_json(out / "report.json"))


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


def test_trajectory_lines_are_json_dumps_bytes(tmp_path):
    from satmdp.cnf import to_dimacs
    from satmdp.instances import regular_planted_formula
    f, planted = regular_planted_formula(15, seed=3)
    cnf = tmp_path / "f15.cnf"
    cnf.write_text(to_dimacs(f))
    bundle = tmp_path / "bundle"
    assert main(["gen", "--cnf", str(cnf), "--out", str(bundle),
                 "--q", "2", "--rounds", "2", "--epsilon", "0.0625",
                 "--wstar", "".join("1" if x == 1 else "0" for x in planted)]) == 0
    for agent in ("random", "greedy"):
        out = tmp_path / agent
        assert main(["run", "--instance", str(bundle / "instance.json"),
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
    if command == "gen":
        out = tmp_path / "bundle"
        return ["gen", "--cnf", str(cnf_file), "--out", str(out),
                "--q", "2", "--rounds", "2"], out
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


@pytest.mark.parametrize("command", ["gen", "verify-claims", "run", "reduce"])
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


@pytest.mark.parametrize("v, alpha", [("12", "1e300"), ("50", "1000")])
def test_verify_claims_refuses_a_monotone_step_over_its_limit(tmp_path, capsys,
                                                              v, alpha):
    # alpha * v^3 is finite, but the monotone-step scan would be h * 2v >= 1.25e10
    rc = main(["verify-claims", "--v", v, "--alpha", alpha,
               "--out", str(tmp_path / "claims.json")])
    assert rc == 3
    assert "refused: monotone step" in capsys.readouterr().err


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
    with pytest.raises(Exception):
        validate_report(bad)


def test_report_schema_is_valid_draft_2020_12():
    import jsonschema
    from satmdp.reporting import REPORT_SCHEMA
    jsonschema.Draft202012Validator.check_schema(REPORT_SCHEMA)


def test_config_hash_is_stable():
    assert config_hash({"b": 1, "a": 2}) == config_hash({"a": 2, "b": 1})
