import re
import shlex
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    section = README.read_text().split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md quick start", "exec"), {})


def test_readme_command_lines_parse():
    from drmel.cli import build_parser

    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    commands = [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    assert len(commands) == 4 and all(c.startswith("drmel ") for c in commands)
    for command in commands:
        build_parser().parse_args(shlex.split(command)[1:])
