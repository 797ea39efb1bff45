"""The README's library and command-line examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from uncertain_objectives import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_library_quick_tour_runs():
    section = README.read_text().split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (Library quick tour)", "exec"), {})


def _command_lines():
    """Each ``uncobj`` line of the "Command line" block, continuations
    joined, split as a shell would with trailing comments dropped."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    return [words for words in lines if words and words[0] == "uncobj"]


def test_command_line_block_lists_every_subcommand():
    assert {words[1] for words in _command_lines()} == set(cli._COMMANDS)


@pytest.mark.parametrize("words", _command_lines(), ids=" ".join)
def test_command_line_example_runs(words, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert cli.main(words[1:]) == 0, capsys.readouterr().err
    assert capsys.readouterr().out
