"""The Python examples of README.md run as written, and its shell examples
are command lines the CLI accepts."""

import re
import shlex
from pathlib import Path

import pytest

from onefacemaps import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)


def _cli_examples() -> list[tuple[list[str], str]]:
    """``(argv, comment)`` for each ``onefacemaps`` line of the ``sh`` blocks,
    with its backslash continuations joined and the program name dropped."""
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            command, _, comment = line.partition("#")
            argv = shlex.split(command)
            if argv[:1] == ["onefacemaps"]:
                examples.append((argv[1:], comment.strip()))
    return examples


CLI_EXAMPLES = _cli_examples()
# the commands whose comment states what they print
PRINTING = [(argv, comment) for argv, comment in CLI_EXAMPLES if argv[0] in ("count", "table")]


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_example_runs(block):
    exec(compile(block, str(README), "exec"), {})


def test_readme_has_cli_examples():
    assert len(CLI_EXAMPLES) >= 13
    assert [argv[0] for argv, _ in PRINTING] == ["count", "table"]


@pytest.mark.parametrize("argv", [argv for argv, _ in CLI_EXAMPLES],
                         ids=[argv[0] for argv, _ in CLI_EXAMPLES])
def test_readme_cli_example_parses(argv):
    cli.build_parser().parse_args(argv)


@pytest.mark.parametrize("argv, printed", PRINTING, ids=[argv[0] for argv, _ in PRINTING])
def test_readme_cli_example_prints_what_its_comment_says(argv, printed, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == printed + "\n"
