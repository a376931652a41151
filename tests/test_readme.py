"""The python example under `## Library` in README.md runs as written."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    """The first python block of the `## Library` section."""
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs(capsys):
    exec(compile(library_example(), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # one line per CM point at height 2, each ending in its h0
    assert lines and all(line.endswith(" 2") for line in lines)
