"""README examples run as written: the Python quick start prints the
values its comments state, and every `eulerfan` command line exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from eulerfan.cli import run_cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def command_lines():
    """The `eulerfan ...` lines of the shell blocks, continuations joined."""
    text = "\n".join(blocks("sh")).replace("\\\n", " ")
    return [line for line in text.splitlines() if line.startswith("eulerfan ")]


def matches(printed, stated):
    """Whether a printed line shows what its comment states: the same
    words and numbers, a number ending in `...` as a prefix."""
    words = re.findall(r"[-\w.]+", printed)
    expected = re.findall(r"[-\w.]+", stated)
    return len(words) == len(expected) and all(
        word.startswith(want[:-3]) if want.endswith("...") else word == want
        for word, want in zip(words, expected))


def test_quick_start_prints_what_its_comments_state():
    (code,) = blocks("python")
    printed = []
    exec(code, {"print": lambda *args: printed.append(" ".join(map(str, args)))})
    stated = [line.partition("#")[2] for line in code.splitlines()
              if line.startswith("print(")]
    assert len(printed) == len(stated) == 6
    checked = [(out, want) for out, want in zip(printed, stated) if want]
    assert len(checked) == 5
    for out, want in checked:
        assert matches(out, want), (out, want)


def test_commands_are_found():
    assert [shlex.split(line)[1] for line in command_lines()] == [
        "classify", "feasibility", "threshold", "threshold-table", "region-map"]


@pytest.mark.parametrize("line", command_lines())
def test_command_exits_zero(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out or (tmp_path / "map.csv").exists()
