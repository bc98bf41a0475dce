import argparse
import hashlib
import json
import subprocess
import sys
import tracemalloc

import pytest

from copclean.cli import build_parser, main
from copclean.graphs import Graph, emit_graph6, enumerate_connected


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


def test_gen_builds_no_graph(capsys, monkeypatch):
    # gen writes each class's record straight from its canonical key
    want = [emit_graph6(g) for g in enumerate_connected(7)]

    def refuse(*args, **kwargs):
        raise AssertionError("gen built a Graph")

    monkeypatch.setattr(Graph, "from_edge_arrays", staticmethod(refuse))
    code, out, _ = run(capsys, "gen", "--n", "7")
    assert code == 0
    assert out.splitlines() == want and len(want) == 853


def test_expected_time_infinite(capsys):
    code, out, _ = run(capsys, "expected-time", "--family", "cycle:4", "--k", "1", "--json")
    assert code == 0
    assert json.loads(out)["value"] == "INFINITE"


def test_expected_time_refuses_sight_in_random_mode(capsys):
    code, out, err = run(capsys, "expected-time", "--family", "cycle:5", "--k", "2",
                         "--l", "1", "--json")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "BAD_PARAM"


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


def test_construct_bad_spacing_names_the_flag(capsys):
    # k=1, m=4 puts 0 and 2 in one class, which the spacing rule forbids
    code, out, err = run(capsys, "construct", "--k", "1", "--m", "4")
    assert code == 2 and out == ""
    d = json.loads(err)
    assert d["error"] == "BAD_PARAM" and "--allow-bad-spacing" in d["message"]


def test_construct_adversarial_fails(capsys):
    code, out, _ = run(capsys, "construct", "--k", "2", "--m", "8",
                       "--partition", "0,2;1,5;3,6;4,7", "--allow-bad-spacing",
                       "--check", "exhaustive", "--json")
    assert code == 1
    d = json.loads(out)
    assert d["blocking"]["passed"] is False and d["blocking"]["max_blocked"] == 2


def test_blocking_samples_must_be_positive(capsys, monkeypatch):
    # a bad count is refused before any graph is built
    def no_build(*args, **kwargs):
        raise AssertionError("built a construction before checking --samples")

    monkeypatch.setattr("copclean.construction.build_construction", no_build)
    for argv in (("construct", "--k", "2", "--m", "8", "--check", "sampled", "--samples", "0"),
                 ("construct", "--k", "2", "--m", "8", "--check", "sampled", "--samples", "-5"),
                 ("verify", "--suite", "construction", "--samples", "-3")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert json.loads(err)["error"] == "BAD_PARAM"


def test_blocking_samples_over_cap(capsys, monkeypatch):
    # a count just above the cap of 2^24 is refused before any graph is
    # built
    def no_build(*args, **kwargs):
        raise AssertionError("built a construction before checking --samples")

    monkeypatch.setattr("copclean.construction.build_construction", no_build)
    over = str((1 << 24) + 1)
    for argv in (("construct", "--k", "2", "--m", "8", "--check", "sampled", "--samples", over),
                 ("verify", "--suite", "construction", "--samples", over)):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert json.loads(err)["error"] == "UNSUPPORTED_SIZE"


def test_negative_seed_is_bad_param(capsys, monkeypatch):
    # construct refuses the seed before it builds anything
    def no_build(*args, **kwargs):
        raise AssertionError("built before the seed was checked")

    monkeypatch.setattr("copclean.construction.build_construction", no_build)
    for argv in (("mc", "--family", "cycle:5", "--k", "2", "--trials", "10", "--seed", "-1",
                  "--json"),
                 ("construct", "--k", "2", "--m", "8", "--check", "sampled", "--samples", "10",
                  "--seed", "-1", "--json")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert json.loads(err)["error"] == "BAD_PARAM"


def test_graph6_file_outside_ascii(capsys, tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("Cé\n", encoding="utf-8")
    code, out, err = run(capsys, "metrics", "--in", str(path), "--json")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "INVALID_CHAR"


def test_construct_rejects_bad_spacing(capsys):
    code, _, err = run(capsys, "construct", "--k", "2", "--m", "8",
                       "--partition", "0,2;1,5;3,6;4,7")
    assert code == 2
    assert "BAD_PARAM" in err


def test_construct_above_vertex_cap(capsys):
    code, out, err = run(capsys, "construct", "--k", "3")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "UNSUPPORTED_SIZE"


def test_edge_list_above_vertex_cap(capsys, tmp_path):
    big = tmp_path / "big.txt"
    big.write_text("0 10000000000\n")
    code, out, err = run(capsys, "metrics", "--edges", str(big))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "UNSUPPORTED_SIZE"


def test_family_above_vertex_cap(capsys):
    # refused before the 2^20-entry edge list is built
    for spec in ("cycle:1048577", "grid:1048577:1"):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "metrics", "--family", spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == "", spec
        assert json.loads(err)["error"] == "UNSUPPORTED_SIZE", spec
        assert peak < 1 << 20, spec


@pytest.mark.parametrize("source", ["family", "graph6"])
def test_graph_above_edge_cap(capsys, tmp_path, source):
    # K3000 has 4,498,500 edges, above the 2^22 cap: refused before its pair
    # list is built, from the family spec and from a graph6 record alike
    if source == "family":
        argv = ("--family", "complete:3000")
    else:
        size = "".join(chr(63 + (3000 >> s & 63)) for s in (12, 6, 0))
        path = tmp_path / "k3000.g6"
        path.write_text("~" + size + "~" * (3000 * 2999 // 12) + "\n")
        argv = ("--in", str(path))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "metrics", *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "UNSUPPORTED_SIZE",
                               "message": "graph of 4498500 edges is above the cap of 4194304"}
    assert peak < 8 << 20


# SHA-256 of the stdout.  Some of these print floats, but none comes from a
# LAPACK solve: the belief-mode values are integer capture times, and every
# mc trial on K5 with five searchers ends at placement, so nothing is drawn.
# The bytes do not depend on the numpy version or the BLAS thread count
GOLDEN = {
    ("sweep", "--n-max", "6", "--check", "chain", "--json"):
        "29473bc2335d26a29aaeb498ef575dc53068bbbc27add10735b0817e58b6b034",
    ("sweep", "--n-max", "6", "--check", "reach", "--rho", "1", "--json"):
        "2d6fa8205933ae61c98fb15c9ec6f352db5b1b9fe59f0fa1f3e425ce4c06200c",
    ("verify", "--suite", "see-infer-gap", "--jobs", "2", "--json"):
        "17d4c0b2f425f5decf06fad04e3e069447ef096f1b20c5bcf69df0341503c0e1",
    ("verify", "--suite", "single-cop-bound", "--jobs", "2", "--json"):
        "3d99a0d884c40c6463798a99e2dfd08977fb934b9c89974c74dcc63fcf1e7026",
    ("verify", "--suite", "ded-lipschitz", "--jobs", "2", "--json"):
        "6340eabf71727bd6196bd5bd78eebae1de232e0c63a569b4896b6b1a4c840776",
    ("verify", "--suite", "chain", "--jobs", "2", "--json"):
        "6bcd6ff6b71300eb9aea99e38a302cec02aaad5f443e3894d7cd409692807bf4",
    ("verify", "--suite", "girth-bound", "--jobs", "2", "--json"):
        "d4bfd70d4ca46a127f8de93ccb6dcecb511ac561380dc4c097c252e7d952b35c",
    ("metrics", "--family", "petersen", "--json"):
        "2ee66dbaa3e273fc64834645a93f1305b4c87c892c41458c22b3cdacead65a0a",
    ("metrics", "--family", "tree:9:1", "--l", "2"):
        "80a81c2477e32d45822ecd6254a49ad9ec53b8618e652b061376ec5c41f41845",
    ("expected-time", "--family", "cycle:5", "--k", "2", "--mode", "belief", "--l", "0"):
        "c5b950d27f62028e9d19ec1634a4cb093a222845612bd631f0388220ad80d00e",
    ("expected-time", "--family", "cycle:5", "--k", "1", "--mode", "belief", "--l", "0",
     "--json"):
        "0541f583daefadef3f17b761df742a1701bd2f0cd752fdaee64a689d17a83dff",
    ("mc", "--family", "complete:5", "--k", "5", "--trials", "1000", "--seed", "3"):
        "9a12cf08d2f71d8b28a6ce5ac9a1e8bccf104a8131c780b056db2906729eca9f",
    ("construct", "--k", "1", "--m", "2", "--check", "exhaustive", "--json"):
        "20221a31d1fcb2830d9cf39cd96a196f31ba2ee22119b8229c92f36205b6cb7d",
    ("solve", "capture-limited", "--family", "grid:3:4", "--k", "2", "--l", "1"):
        "54e88ba37f624fcdb788fedb9a1b1a2652252efe950871cb1565d3c8d0c9032f",
    ("solve", "capture-limited", "--family", "petersen", "--k", "2", "--l", "1", "--json"):
        "0ce4aaec13a6fec58c657225dd38d413f22809dcabdc13c352ea5500fe5d3718",
    ("solve", "maxclean", "--family", "cycle:10", "--k", "1", "--l", "1", "--witness",
     "--json"):
        "298b0988bedacdcc010e1881954859053a7c4b92e8b38008c7772691984409ac",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_golden_output_bytes(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]


def test_verify_suite_pass(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "girth-bound", "--json")
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_rejects_bad_jobs_before_output(capsys, jobs):
    code, out, err = run(capsys, "verify", "--suite", "girth-bound", "--jobs", jobs, "--json")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "BAD_PARAM"


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "everything")
    assert code == 2
    assert "everything" in err


@pytest.mark.parametrize("argv", [
    ("metrics", "--in", "{empty}"),
    ("gen", "--n", "9"),
    ("construct", "--k", "1", "--m", "2", "--partition", "0;x"),
    ("sweep", "--n-max", "4", "--check", "everything"),
    ("verify", "--suite", "everything"),
], ids=lambda argv: argv[0])
def test_bad_input_names_its_error(capsys, tmp_path, argv):
    empty = tmp_path / "empty.g6"
    empty.write_text("\n\n")
    code, out, err = run(capsys, *(a.format(empty=empty) for a in argv))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "BAD_PARAM"


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


@pytest.mark.parametrize("argv", [
    ("gen", "--n", "7"),
    ("sweep", "--n-max", "6", "--check", "see", "--json", "--jobs", "2"),
], ids=lambda argv: argv[0])
def test_closed_stdout_exits_quietly(argv):
    # a reader that stops early, as `| head -1` does, closes the pipe: the
    # command stops with no traceback and the exit code of SIGPIPE
    proc = subprocess.Popen([sys.executable, "-m", "copclean", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 141
    assert err == b""


@pytest.mark.parametrize("argv", [
    ("sweep", "--n-max", "4", "--check", "see", "--json"),
    ("verify", "--suite", "girth-bound", "--json"),
    ("construct", "--k", "1", "--m", "2", "--check", "exhaustive", "--json"),
], ids=lambda argv: argv[0])
def test_timing_adds_only_elapsed(capsys, argv):
    code, plain, _ = run(capsys, *argv)
    timed_code, timed, _ = run(capsys, *argv, "--timing")
    assert code == timed_code == 0
    recs = [json.loads(line) for line in timed.splitlines()]
    # a sweep times each record, not its summary; the others time the run
    timed_recs = recs[:-1] if argv[0] == "sweep" else recs
    for rec in timed_recs:
        elapsed = rec.pop("elapsed")
        assert isinstance(elapsed, float) and elapsed >= 0
    assert "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in recs) == plain


def test_sweep_verbose_prints_every_class(capsys):
    argv = ("sweep", "--n-max", "5", "--check", "cleanable", "--k", "1")
    code, quiet, _ = run(capsys, *argv)
    verbose_code, verbose, _ = run(capsys, *argv, "--verbose")
    assert code == verbose_code == 1
    lines = verbose.splitlines()
    failing = [line for line in lines if "ok=False" in line]
    assert len(lines) == 31 + 1 and failing
    assert lines[-1] == f"cleanable: 31 graphs, {len(failing)} failures"
    assert all(line.split(": ")[1].startswith("cleanable=") for line in lines[:-1])
    # without --verbose only the failing classes print
    assert quiet.splitlines() == failing + lines[-1:]


# every subcommand's flags: dest, default, required, choices and type
FLAGS = {
    "metrics": {
        "--in": ("g6_file", None, False, None, None),
        "--edges": ("edges", None, False, None, None),
        "--family": ("family", None, False, None, None),
        "--l": ("l", 1, False, None, "int"),
        "--json": ("json", False, False, None, None),
    },
    "gen": {
        "--n": ("n", None, True, None, "int"),
        "--big": ("big", False, False, None, None),
    },
    "construct": {
        "--k": ("k", None, True, None, "int"),
        "--m": ("m", None, False, None, "int"),
        "--partition": ("partition", None, False, None, None),
        "--allow-bad-spacing": ("allow_bad_spacing", False, False, None, None),
        "--check": ("check", "none", False, ["none", "exhaustive", "sampled"], None),
        "--samples": ("samples", 1000000, False, None, "int"),
        "--seed": ("seed", 0, False, None, "int"),
        "--timing": ("timing", False, False, None, None),
        "--json": ("json", False, False, None, None),
    },
    "clean-sim": {
        "--in": ("g6_file", None, False, None, None),
        "--edges": ("edges", None, False, None, None),
        "--family": ("family", None, False, None, None),
        "--script": ("script", None, True, None, None),
        "--trace": ("trace", False, False, None, None),
        "--json": ("json", False, False, None, None),
    },
    "solve": {
        "question": ("question", None, True,
                     ["see", "infer", "maxclean", "cop", "reach", "capture-limited"], None),
        "--in": ("g6_file", None, False, None, None),
        "--edges": ("edges", None, False, None, None),
        "--family": ("family", None, False, None, None),
        "--l": ("l", 1, False, None, "int"),
        "--k": ("k", 1, False, None, "int"),
        "--r": ("r", 0, False, None, "int"),
        "--rho": ("rho", 0, False, None, "int"),
        "--witness": ("witness", False, False, None, None),
        "--json": ("json", False, False, None, None),
    },
    "expected-time": {
        "--in": ("g6_file", None, False, None, None),
        "--edges": ("edges", None, False, None, None),
        "--family": ("family", None, False, None, None),
        "--k": ("k", None, True, None, "int"),
        "--rho": ("rho", 0, False, None, "int"),
        "--mode": ("mode", "random", False, ["random", "belief"], None),
        "--move-model": ("move_model", "per_cop", False, ["per_cop", "joint_multiset"], None),
        "--placement": ("placement", "optimal", False, ["optimal", "uniform"], None),
        "--l": ("l", None, False, None, "int"),
        "--json": ("json", False, False, None, None),
    },
    "mc": {
        "--in": ("g6_file", None, False, None, None),
        "--edges": ("edges", None, False, None, None),
        "--family": ("family", None, False, None, None),
        "--k": ("k", None, True, None, "int"),
        "--rho": ("rho", 0, False, None, "int"),
        "--trials": ("trials", 10000, False, None, "int"),
        "--seed": ("seed", 0, False, None, "int"),
        "--horizon": ("horizon", None, False, None, "int"),
        "--move-model": ("move_model", "per_cop", False, ["per_cop", "joint_multiset"], None),
        "--placement": ("placement", "optimal", False, ["optimal", "uniform"], None),
        "--json": ("json", False, False, None, None),
    },
    "sweep": {
        "--n-max": ("n_max", None, True, None, "int"),
        "--n-min": ("n_min", 1, False, None, "int"),
        "--check": ("check", None, True, None, None),
        "--l": ("l", 1, False, None, "int"),
        "--k": ("k", 1, False, None, "int"),
        "--r": ("r", 0, False, None, "int"),
        "--rho": ("rho", 0, False, None, "int"),
        "--jobs": ("jobs", 1, False, None, "int"),
        "--big": ("big", False, False, None, None),
        "--timing": ("timing", False, False, None, None),
        "--verbose": ("verbose", False, False, None, None),
        "--json": ("json", False, False, None, None),
    },
    "verify": {
        "--suite": ("suite", None, True, None, None),
        "--jobs": ("jobs", 1, False, None, "int"),
        "--big": ("big", False, False, None, None),
        "--samples": ("samples", 1000000, False, None, "int"),
        "--timing": ("timing", False, False, None, None),
        "--json": ("json", False, False, None, None),
    },
}
GRAPH_INPUT = ["--edges", "--family", "--in"]


def test_flags_pinned():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(FLAGS)
    for name, sp in sub.choices.items():
        got = {" ".join(a.option_strings) or a.dest:
               (a.dest, a.default, a.required, a.choices and list(a.choices),
                a.type and a.type.__name__)
               for a in sp._actions if a.dest != "help"}
        assert got == FLAGS[name], name
        # one graph input is required: exactly one of --in, --edges, --family
        groups = [sorted(o for a in grp._group_actions for o in a.option_strings)
                  for grp in sp._mutually_exclusive_groups if grp.required]
        assert groups == ([GRAPH_INPUT] if "--in" in FLAGS[name] else []), name
