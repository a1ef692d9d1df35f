"""The README's `$ fx ...` examples print what the README shows, so the
documentation cannot drift from the tool.  A `...` line in a shown output
stands for the rows between its first and last lines."""

import re
import shlex
from pathlib import Path

import pytest

from test_cli import run_cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
EXAMPLES = re.findall(r"```sh\n\$ fx ([^\n]*)\n(.*?)```", README, re.S)


def test_readme_shows_its_examples():
    assert [argv.split()[0] for argv, _ in EXAMPLES] == ["run", "tree", "bench"]


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[argv for argv, _ in EXAMPLES])
def test_readme_example(argv, shown, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out, err = run_cli(*shlex.split(argv))
    assert code == 0 and err == ""
    if "...\n" in shown:
        head, tail = shown.split("...\n")
        assert out.startswith(head) and out.endswith(tail)
    else:
        assert out == shown
