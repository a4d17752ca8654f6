"""The library tour and the command lines in README.md run as written, so
the docs cannot rot."""

import pathlib
import re
import shlex

from flagcomb.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_tour_runs():
    tour = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    """Each line of the "Command line" block, run through cli.main next to
    the first example of "Code file format" as code.txt."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", text,
                      re.S).group(1)
    example = re.search(r"### Code file format\n.*?```\n(.*?)```", text,
                        re.S).group(1)
    (tmp_path / "code.txt").write_text(example, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    lines = block.splitlines()
    assert lines
    for line in lines:
        command, *argv = shlex.split(line, comments=True)
        assert command == "flagcomb", line
        assert main(argv) == 0, line
        assert capsys.readouterr().err == "", line
