"""README.md's performance notes name every measurement tool in `tools/`, and
only tools that exist."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
TOOLS = sorted(path.name for path in (ROOT / "tools").glob("*.py"))
COUNTS = {"One": 1, "Two": 2, "Three": 3, "Four": 4, "Five": 5, "Six": 6}


def test_readme_names_every_tool():
    for name in TOOLS:
        assert f"tools/{name}" in README or f"`{name}`" in README, name


def test_every_tool_readme_names_exists():
    named = set(re.findall(r"tools/([a-z_]+\.py)", README))
    assert named and named <= set(TOOLS)


def test_readme_counts_the_tools():
    count = re.search(r"(\w+) tools in `tools/`", README).group(1)
    assert COUNTS[count] == len(TOOLS)
