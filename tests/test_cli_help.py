"""Byte-exact pins of the parser's own output.

``flagcomb --help`` and each subcommand's ``--help`` at a terminal width
of 80, and the usage line, error text and exit code of an invalid choice
of render's target or format.  argparse writes all of these from the
parser alone, before any command runs, so they pin what the parser is
built from: the names of the commands, their arguments and render's
target and format names.
"""

import pytest

from flagcomb.cli import main

HELP = {
    "": """\
usage: flagcomb [-h]
                {analyze,paths,bijection,realize,render,verify,partitions} ...

Combinatorics of full flag codes: distances, paths, Ferrers frames, splittings
and Durfee rectangles.

positional arguments:
  {analyze,paths,bijection,realize,render,verify,partitions}
    analyze             analyze a code file
    paths               enumerate distance paths
    bijection           paths vs splittings table
    realize             emit a flag pair achieving a path
    render              draw a diagram
    verify              run the self-verification suite
    partitions          enumerate embedded partitions

options:
  -h, --help            show this help message and exit
""",
    "analyze": """\
usage: flagcomb analyze [-h] [--json] codefile

positional arguments:
  codefile

options:
  -h, --help  show this help message and exit
  --json      machine-readable report
""",
    "paths": """\
usage: flagcomb paths [-h] [-d DISTANCE] [--list] [--force] n

positional arguments:
  n

options:
  -h, --help            show this help message and exit
  -d DISTANCE, --distance DISTANCE
  --list
  --force
""",
    "bijection": """\
usage: flagcomb bijection [-h] [--force] n

positional arguments:
  n

options:
  -h, --help  show this help message and exit
  --force
""",
    "realize": """\
usage: flagcomb realize [-h] [--json] q deltas [deltas ...]

positional arguments:
  q
  deltas      delta vector, e.g. 0 1 1 0 or 0,1,1,0

options:
  -h, --help  show this help message and exit
  --json
""",
    "render": """\
usage: flagcomb render [-h] [--format {ascii,svg}] [--deltas [DELTAS ...]]
                       [--partition [PARTITION ...]]
                       {support,enriched,frame,path,staircase} n

positional arguments:
  {support,enriched,frame,path,staircase}
  n

options:
  -h, --help            show this help message and exit
  --format {ascii,svg}
  --deltas [DELTAS ...]
  --partition [PARTITION ...]
""",
    "verify": """\
usage: flagcomb verify [-h] [--n-max N_MAX] [--q Q] [--trials TRIALS]
                       [--seed SEED]

options:
  -h, --help       show this help message and exit
  --n-max N_MAX
  --q Q
  --trials TRIALS
  --seed SEED
""",
    "partitions": """\
usage: flagcomb partitions [-h] [-u SPLITTING] [--list] [--force] n

positional arguments:
  n

options:
  -h, --help            show this help message and exit
  -u SPLITTING, --splitting SPLITTING
  --list
  --force
""",
}

RENDER_USAGE = """\
usage: flagcomb render [-h] [--format {ascii,svg}] [--deltas [DELTAS ...]]
                       [--partition [PARTITION ...]]
                       {support,enriched,frame,path,staircase} n
"""

CHOICE_ERRORS = {
    ("render", "nope", "4"):
        "flagcomb render: error: argument target: invalid choice: 'nope' "
        "(choose from 'support', 'enriched', 'frame', 'path', 'staircase')\n",
    ("render", "frame", "4", "--format", "png"):
        "flagcomb render: error: argument --format: invalid choice: 'png' "
        "(choose from 'ascii', 'svg')\n",
}


@pytest.fixture(autouse=True)
def _width_80(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("command", HELP)
def test_help_text(command, capsys):
    assert main([command, "--help"] if command else ["--help"]) == 0
    assert capsys.readouterr() == (HELP[command], "")


@pytest.mark.parametrize("argv", CHOICE_ERRORS)
def test_an_invalid_render_choice_exits_1_with_the_choices(argv, capsys):
    assert main(list(argv)) == 1
    assert capsys.readouterr() == ("", RENDER_USAGE + CHOICE_ERRORS[argv])
