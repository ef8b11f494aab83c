"""Every function, class and method in `src/sdag` is used by the program.

Code in `src/` that only the tests call is carried for nothing: a test that
needs such a helper keeps its own copy, as a reference. This scan lists each
module-level function and class, and each method whose name is not a dunder,
and asks that the code under `src/`, `perfbench/` or `tools/` (test files
aside) names it. A function or class counts as named when code reads or
imports its name, or reads it as an attribute (`training.train`); a method
counts when code reads it as an attribute. The hooks of `perfbench/spans.py`
name their targets in strings ("HashedEmbedder.embed"), which count too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "perfbench", "tools")
# Library API that `tests/test_acceptance.py` imports and the program does
# not call.
LIBRARY_API = {"SDag.score_of", "select_model", "loss_for_dag_output"}


def _is_function(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def defined_names() -> dict[str, str]:
    """Each function and class as "name" and each non-dunder method as
    "Class.method", with the file that defines it."""
    found = {}
    for path in sorted((ROOT / "src" / "sdag").rglob("*.py")):
        where = str(path.relative_to(ROOT))
        for node in ast.parse(path.read_text()).body:
            if _is_function(node) or isinstance(node, ast.ClassDef):
                found[node.name] = where
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if _is_function(item) and not (item.name.startswith("__")
                                                   and item.name.endswith("__")):
                        found[f"{node.name}.{item.name}"] = where
    return found


def referenced_names() -> tuple[set[str], set[str]]:
    """The names that the program's code reads or imports, and those that it
    reads as attributes (the words of the hook strings included)."""
    names, attributes = set(), set()
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif (path.name == "spans.py" and isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    attributes.update(node.value.split("."))
    return names, attributes


def test_every_name_in_src_has_a_caller_outside_the_tests():
    names, attributes = referenced_names()
    unused = []
    for qualified, where in defined_names().items():
        owner, _, method = qualified.rpartition(".")
        used = method in attributes if owner else (method in names or method in attributes)
        if not used and qualified not in LIBRARY_API:
            unused.append(f"{qualified} ({where})")
    assert not unused, "defined in src/ but called only by tests: " + ", ".join(unused)


def test_the_library_api_is_still_defined():
    assert LIBRARY_API <= defined_names().keys()
