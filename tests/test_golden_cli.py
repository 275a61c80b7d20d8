"""CLI bytes pinned: every recorded command gives the recorded stdout and exit code.

`golden_cli.json` holds argv, exit code and stdout for commands across all
nine verbs: both `graph-decide` branches, a `--format table` run, and exit
codes 0, 1, 2 and 3.  A change that is meant to keep outputs must keep these
bytes.
"""

import json
from pathlib import Path

import pytest

from simplegames.cli import run
from test_lp import run_optimized

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
RECORDS = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"]) for r in RECORDS])
def test_replay(record, capsys):
    code = run(record["argv"])
    assert (code, capsys.readouterr().out) == (record["exit"], record["stdout"])


def test_replay_optimized():
    # the same bytes with asserts stripped: no output may depend on an assert
    script = f"""
import contextlib, io, json
from simplegames.cli import run
for record in json.loads(open({str(GOLDEN)!r}).read()):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(record["argv"])
    if (code, out.getvalue()) != (record["exit"], record["stdout"]):
        print("mismatch:", " ".join(record["argv"]))
"""
    proc = run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
