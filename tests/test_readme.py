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


def _readme_table(heading: str) -> list:
    """The first-column names of the table under ``### heading`` of the
    "Command line" section."""
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    body = section.split(f"### {heading}\n", 1)[1].split("\n### ", 1)[0]
    return re.findall(r"^\| `([^`]+)` \|", body, re.M)


def test_readme_method_names_are_the_engine_table():
    from drmel.simulate import _ESTIMATORS, METHOD_DRM

    assert _readme_table("Method names") == [*_ESTIMATORS, METHOD_DRM]


def test_readme_scenario_keys_are_the_keys_the_cli_reads():
    # the reader takes exactly the fields of Scenario, in their order
    import dataclasses

    from drmel import Scenario

    assert _readme_table("Scenario JSON") == [f.name for f in dataclasses.fields(Scenario)]


def test_readme_api_table_is_the_public_names_of_the_package():
    import inspect

    import drmel

    section = README.read_text().split("## API\n", 1)[1].split("\n## ", 1)[0]
    table = re.findall(r"^\| `([^`]+)` \|", section, re.M)
    public = [name for name, value in vars(drmel).items()
              if not name.startswith("_") and not inspect.ismodule(value)]
    assert sorted(table) == sorted(public)
