"""README's library quick start runs as written, so the API it shows
cannot drift from the code."""

import math
import re
from pathlib import Path

import numpy as np

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
    assert ns["ctx"].t == 0.5 and ns["ctx"].base is ns["rho"]
