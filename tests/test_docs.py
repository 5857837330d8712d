import re
import shlex
from pathlib import Path

from cyclade import cli

README = Path(__file__).parent.parent / "README.md"


def test_readme_library_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_cli_examples_run():
    # every line of the CLI block, its optional [flags] included, exits 0
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## CLI\n.*?```\n(.*?)```", text, re.S).group(1)
    lines = block.strip().splitlines()
    assert len(lines) == 10
    for line in lines:
        argv = shlex.split(line.replace("[", "").replace("]", ""))
        assert argv[0] == "cyclade"
        assert cli.main(argv[1:]) == 0, line
