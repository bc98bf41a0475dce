"""The README's Python quick tour and CLI examples must run as written."""

import json
import math
import pathlib
import re
import shlex

from copclean.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks, "README has no python block"
    ns: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), ns)
    # the values the tour's comments promise
    assert ns["seeing_number"](ns["g"], l=1).value == 2
    assert ns["res"].max_clean == 4 and ns["res"].witness is not None
    assert ns["capture_number_limited"](ns["cycle"](4), l=1) == 2
    assert ns["reach_number"](ns["cycle"](8), rho=1) == 2
    value = ns["expected_time"](ns["cycle"](5), k=2).value
    assert math.isclose(value, 747 / 140, rel_tol=1e-9)


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    commands = [shlex.split(line, comments=True)[1:]
                for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
                for line in block.splitlines() if line.startswith("copclean ")]
    assert commands, "README has no copclean examples"
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        if argv[:2] == ["solve", "maxclean"] and "--witness" in argv:
            # clean-sim replays the script this example prints
            (tmp_path / "script.json").write_text(json.dumps(json.loads(out)["witness"]))
