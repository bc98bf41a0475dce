import json
import subprocess
import sys

import pytest

from copclean.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_metrics_json(capsys):
    code, out, _ = run(capsys, "metrics", "--family", "heawood", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["n"] == 14 and d["girth"] == 6 and d["max_degree"] == 3


def test_solve_see(capsys):
    code, out, _ = run(capsys, "solve", "see", "--family", "cycle:5", "--l", "1", "--json")
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_solve_maxclean_with_witness(capsys):
    code, out, _ = run(capsys, "solve", "maxclean", "--family", "cycle:5",
                       "--k", "1", "--l", "1", "--witness", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["value"] == 4 and d["min_gas"] == 1
    assert d["witness"]["l"] == 1 and d["witness"]["place"]


def test_solve_capture_limited(capsys):
    code, out, _ = run(capsys, "solve", "capture-limited", "--family", "cycle:4",
                       "--k", "1", "--l", "1", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["capture"] is False and d["capture_time"] is None


def test_gen_lists_classes(capsys):
    code, out, _ = run(capsys, "gen", "--n", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 21
    assert len(set(lines)) == 21


def test_expected_time_infinite(capsys):
    code, out, _ = run(capsys, "expected-time", "--family", "cycle:4", "--k", "1", "--json")
    assert code == 0
    assert json.loads(out)["value"] == "INFINITE"


def test_mc_deterministic(capsys):
    args = ("mc", "--family", "complete:4", "--k", "1", "--trials", "300",
            "--seed", "11", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["captured"] == 300


def test_sweep_byte_identical_across_jobs(capsys):
    base = ("sweep", "--n-max", "5", "--check", "cleanable", "--k", "2",
            "--l", "1", "--json")
    code1, out1, _ = run(capsys, *base, "--jobs", "1")
    code2, out2, _ = run(capsys, *base, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    last = json.loads(out1.strip().split("\n")[-1])
    assert last["summary"]["failures"] == 0 and last["summary"]["graphs"] == 31


def test_sweep_reports_failures(capsys):
    code, out, _ = run(capsys, "sweep", "--n-max", "5", "--check", "cleanable",
                       "--k", "1", "--l", "1", "--json")
    assert code == 1
    recs = [json.loads(x) for x in out.strip().split("\n")]
    bad = [r for r in recs[:-1] if not r["ok"]]
    assert bad and all(r["cleanable"] is False for r in bad)


def test_sweep_unknown_check(capsys):
    code, _, err = run(capsys, "sweep", "--n-max", "4", "--check", "nope")
    assert code == 2
    assert "nope" in err


def test_sweep_empty_range_is_bad_param(capsys):
    code, out, err = run(capsys, "sweep", "--n-min", "5", "--n-max", "3",
                         "--check", "cleanable", "--json")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "BAD_PARAM"


@pytest.mark.parametrize("bad", [
    ("--check", "see", "--l", "-1"),
    ("--check", "girth-bound", "--l", "-1"),
    ("--check", "girth-bound", "--r", "-1"),
    ("--check", "girth-bound", "--rho", "-1"),
    ("--check", "girth-bound", "--k", "0"),
    ("--check", "girth-bound", "--jobs", "0"),
])
def test_sweep_rejects_bad_params_before_output(capsys, bad):
    code, out, err = run(capsys, "sweep", "--n-max", "4", *bad, "--json")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "BAD_PARAM"


def test_metrics_rejects_negative_sight(capsys):
    code, out, err = run(capsys, "metrics", "--family", "cycle:5", "--l", "-1")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "BAD_PARAM"


def test_enumeration_size_errors_agree(capsys):
    for argv in (("gen", "--n", "10"), ("gen", "--n", "10", "--big"),
                 ("gen", "--n", "0"),
                 ("sweep", "--n-max", "10", "--check", "cleanable"),
                 ("sweep", "--n-max", "10", "--check", "cleanable", "--big"),
                 ("sweep", "--n-min", "0", "--n-max", "3", "--check", "cleanable")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert json.loads(err)["error"] == "UNSUPPORTED_SIZE", argv
    for argv in (("gen", "--n", "9"), ("sweep", "--n-max", "9", "--check", "cleanable")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "--big" in json.loads(err)["message"], argv


def test_clean_sim(tmp_path, capsys):
    script = tmp_path / "walk.json"
    script.write_text('{"l": 1, "place": [1], "turns": [[2]]}')
    code, out, _ = run(capsys, "clean-sim", "--family", "path:4",
                       "--script", str(script), "--json")
    assert code == 0
    d = json.loads(out)
    assert d["fully_cleaned_at"] == 1 and d["min_gas"] == 0


def test_clean_sim_trace(tmp_path, capsys):
    script = tmp_path / "walk.json"
    script.write_text('{"l": 1, "place": [0], "turns": [[1]]}')
    code, out, _ = run(capsys, "clean-sim", "--family", "cycle:5",
                       "--script", str(script), "--trace", "--json")
    assert code == 0
    lines = out.strip().split("\n")
    assert json.loads(lines[0])["t"] == 0
    assert json.loads(lines[-1])["min_gas"] == 1


def test_construct_check(capsys):
    code, out, _ = run(capsys, "construct", "--k", "2", "--m", "8",
                       "--check", "exhaustive", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["n"] == 1028 and d["outside_degree"] == 13 and d["hub_degree"] == 259
    assert d["blocking"]["passed"] is True
    assert d["script_cleans_at"] == 1


def test_construct_adversarial_fails(capsys):
    code, out, _ = run(capsys, "construct", "--k", "2", "--m", "8",
                       "--partition", "0,2;1,5;3,6;4,7", "--allow-bad-spacing",
                       "--check", "exhaustive", "--json")
    assert code == 1
    d = json.loads(out)
    assert d["blocking"]["passed"] is False and d["blocking"]["max_blocked"] == 2


def test_blocking_samples_must_be_positive(capsys):
    for argv in (("construct", "--k", "2", "--m", "8", "--check", "sampled", "--samples", "0"),
                 ("construct", "--k", "2", "--m", "8", "--check", "sampled", "--samples", "-5"),
                 ("verify", "--suite", "construction", "--samples", "-3")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert json.loads(err)["error"] == "BAD_PARAM"


def test_construct_rejects_bad_spacing(capsys):
    code, _, err = run(capsys, "construct", "--k", "2", "--m", "8",
                       "--partition", "0,2;1,5;3,6;4,7")
    assert code == 2
    assert "BAD_PARAM" in err


def test_verify_suite_pass(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "girth-bound", "--json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "everything")
    assert code == 2
    assert "everything" in err


def test_usage_errors(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "solve", "see")[0] == 2          # no graph input
    assert run(capsys, "frobnicate")[0] == 2


def test_bad_family_exit_code(capsys):
    code, _, err = run(capsys, "metrics", "--family", "moebius:5")
    assert code == 2
    assert json.loads(err)["error"] == "BAD_PARAM"


def test_too_large_exit_code(capsys):
    code, _, err = run(capsys, "solve", "maxclean", "--family", "cycle:30",
                       "--k", "1", "--l", "1")
    assert code == 3
    assert json.loads(err)["error"] == "TOO_LARGE"


def test_state_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("COPCLEAN_STATE_BUDGET", "25")
    code, _, err = run(capsys, "solve", "maxclean", "--family", "cycle:20",
                       "--k", "2", "--l", "1")
    assert code == 3
    d = json.loads(err)
    assert d["error"] == "TOO_LARGE"
    assert d["partial"]["max_clean_lower_bound"] >= 1


def test_console_script_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "copclean.cli", "solve", "cop",
         "--family", "cycle:4", "--json"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["value"] == 2


def test_python_dash_m_copclean():
    out = subprocess.run(
        [sys.executable, "-m", "copclean", "mc", "--family", "complete:4",
         "--k", "1", "--trials", "10", "--json"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["trials"] == 10


def test_unreadable_input_file_exit_code(tmp_path, capsys):
    binary = tmp_path / "binary.g6"
    binary.write_bytes(b"\xff\xfe\n")
    for path in (str(tmp_path / "missing.g6"), str(binary)):
        for flag in ("--in", "--edges"):
            code, out, err = run(capsys, "metrics", flag, path)
            assert code == 2
            assert out == ""
            d = json.loads(err)
            assert d["error"] == "BAD_PARAM" and path in d["message"]


def test_state_budget_env_must_be_positive_integer(capsys, monkeypatch):
    for value in ("abc", "0", "-4"):
        monkeypatch.setenv("COPCLEAN_STATE_BUDGET", value)
        code, _, err = run(capsys, "solve", "maxclean", "--family", "cycle:6",
                           "--k", "1", "--l", "1")
        assert code == 2, value
        assert json.loads(err)["error"] == "BAD_PARAM"


def test_mc_rejects_zero_horizon(capsys):
    code, out, err = run(capsys, "mc", "--family", "cycle:5", "--k", "2",
                         "--horizon", "0", "--json")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "BAD_PARAM"
