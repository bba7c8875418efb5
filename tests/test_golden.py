import json
import re

import golden


def _matches(got, want):
    """Same exit code and stdout, and the same first stderr line, or one
    that starts with the prefix the table keeps for interpreter text."""
    if (got["exit"], got["stdout"]) != (want["exit"], want["stdout"]):
        return False
    pinned = re.fullmatch(r"input error:|error: \w+:", want["stderr"])
    return got["stderr"] == want["stderr"] or bool(pinned) and got["stderr"].startswith(want["stderr"])


def test_cli_transcripts_match_the_golden_table(tmp_path):
    # every row of tests/golden.json, re-run in process: a change that
    # alters an answer on purpose regenerates the table (tests/golden.py)
    want = json.loads(golden.TABLE.read_text())
    got = golden.transcripts(tmp_path)
    assert sorted(got) == sorted(want)
    assert [key for key in want if not _matches(got[key], want[key])] == []
    # the library's own refusals are kept whole, the interpreter's as a prefix
    lines = {row["stderr"] for row in want.values()}
    assert {"input error:", "input error: labels length mismatch"} <= lines
    assert {row["exit"] for row in want.values()} == {0, 1, 2}
