"""The README's examples run as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from harmonictori import cli
from harmonictori.config import CONFIG_ENV_VAR

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def readme_block(heading, lang=""):
    """The first fenced block of the README section under ``## heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_what_its_comments_state():
    code = readme_block("Quick start", "python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(prints)
    stated = {i: line.split("#", 1)[1].strip() for i, line in enumerate(prints) if "#" in line}
    assert stated == {1: "(Fraction(1, 3), Fraction(1, 4))"}
    for i, text in stated.items():
        assert printed[i] == text


def test_command_line_examples_exit_0(tmp_path, monkeypatch, capsys):
    # continuation lines joined, bracketed optional parts dropped
    text = readme_block("Command line").replace("\\\n", " ")
    lines = [shlex.split(re.sub(r"\[[^]]*\]", "", line))[1:]
             for line in text.splitlines() if line.startswith("harmonic-tori ")]
    assert [argv[0] for argv in lines] == ["curve-info", "level-set", "enumerate",
                                           "genus0", "verify"]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    for argv in lines:
        assert cli.main(argv) == 0, argv
    assert (tmp_path / "leaf.csv").is_file()
