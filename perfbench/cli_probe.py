"""Run one secm command with spans around its import, its subcommand and,
for ``verify``, each criterion of the suite.

Usage: python perfbench/cli_probe.py <secm arguments>

stdout and the exit code are those of secm; the spans go to stderr as one
line ``PERFBENCH-SPANS {"spans": {name: [calls, self_s]}, "top_s": s}``.
"""

import importlib
import json
import sys

from spans import Tracer


def main(argv):
    tr = Tracer(True)
    with tr.span("cli.import"):
        cli = importlib.import_module("secmeasure.cli")
        verify = importlib.import_module("secmeasure.verify")
    # run_suite hands --seed only to the unwrapped property-suite criterion;
    # wrapped, it runs with its default seed 0, which is also secm's default.
    for suite, fns in verify.SUITES.items():
        verify.SUITES[suite] = tuple(_timed(tr, fn) for fn in fns)
    sub = argv[0] + (f"_{argv[1]}" if argv[0] == "family" else "")
    try:
        with tr.span(f"cli.{sub}"):
            code = cli.main(argv)
    finally:
        sys.stdout.flush()
        spans = {k: v[:2] for k, v in tr.stats.items()}
        sys.stderr.write("PERFBENCH-SPANS " + json.dumps(
            {"spans": spans, "top_s": tr.top_s}) + "\n")
    return code


def _timed(tr, fn):
    name = "verify." + fn.__name__.removeprefix("criterion_")

    def wrapper(*args, **kwargs):
        with tr.span(name):
            return fn(*args, **kwargs)

    return wrapper


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
