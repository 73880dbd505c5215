"""README's library quick start and command-line block run as written, so
the API and the commands they show cannot drift from the code."""

import math
import re
import shlex
from pathlib import Path

import numpy as np

from secmeasure.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    section = README.read_text().split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns = {}
    exec(compile(block, "README.md quick start", "exec"), ns)
    # The values its comments state.
    np.testing.assert_allclose(ns["phi"], 4.0 * np.linspace(-0.9, 0.9, 5),
                               atol=1e-9)
    assert abs(ns["mu"].d0 - 0.25) < 1e-12
    assert abs(ns["mu"].mass() - 0.25) < 1e-10
    assert abs(ns["s_mu"] - (2.0 - 1.0 / (4.0 - 2.0 * math.sqrt(3.0)))) < 1e-10
    assert ns["screen"] == "empirical"
    assert ns["ctx"].t == 0.5 and ns["ctx"].base is ns["rho"]


def test_readme_command_line_runs(tmp_path, monkeypatch, capsys):
    # Each `secm` line of README's command-line block through the entry
    # point, in a temporary directory; a `> file` redirect writes the file
    # that a later line reads.
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    lines = [ln for ln in block.splitlines() if ln.startswith("secm ")]
    assert lines
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        target = None
        if ">" in argv:
            argv, target = argv[:argv.index(">")], argv[argv.index(">") + 1]
        capsys.readouterr()
        assert main(argv) == 0, line
        if target is not None:
            (tmp_path / target).write_text(capsys.readouterr().out)
    assert (tmp_path / "scan.svg").exists()
