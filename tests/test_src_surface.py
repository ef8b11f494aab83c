"""Every function, class and method in `src/sdag` is used by the program.

Code in `src/` that only the tests call is carried for nothing: a test that
needs such a helper keeps its own copy, as a reference. This scan lists each
module-level function and class, and each method whose name is not a dunder,
and asks that the code under `src/`, `perfbench/` or `tools/` (test files
aside) names it. A function or class counts as named when code reads or
imports its name, or reads it as an attribute (`training.train`); a method
counts when code reads it as an attribute. The hooks of `perfbench/spans.py`
name their targets in strings ("HashedEmbedder.embed"), which count too.
Names are matched without their owner, so a method that shares its name with
one the program calls elsewhere (an ndarray's `.copy()`, say) passes unseen.

Every option in `src/sdag` is set by the program too: each parameter with a
default, and each dataclass or NamedTuple field with a default (`init=False`
fields aside), must be passed by some call in the program's code to that
name, by keyword, by position or through `*`/`**`. A file loaded with
`RouterDims(**payload["dims"])` sets every field of the record. A value that
only the tests pass is a constant. Calls too are matched by name alone, so a
call to another function of the same name counts.
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


# Options that no program code sets, each with its reason.
UNSET_OPTIONS = {
    "init_params.scale": "library API that tests/test_acceptance.py uses",
    "loss_for_dag_output.config": "library API that tests/test_acceptance.py uses",
    "build_client.session": "tests pass a fake HTTP session",
    "main.argv": "the tests' entry point; the console script passes none",
}


def _decorator_names(node) -> set[str]:
    names = set()
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        names.add(target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", ""))
    return names


def _not_in_init(value) -> bool:
    """Whether a field's value is `field(..., init=False)`."""
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in value.keywords)


def _function_options(qualified: str, node, method: bool):
    """(qualified option, callee name, parameter, position or None) for each
    parameter of `node` that has a default; a method's first parameter is
    not counted."""
    a = node.args
    positional = a.posonlyargs + a.args
    if method and "staticmethod" not in _decorator_names(node):
        positional = positional[1:]
    owner = qualified.removesuffix(".__init__")  # a class is called by its name
    callee = owner.rpartition(".")[2]
    first_default = len(positional) - len(a.defaults)
    for position, arg in enumerate(positional):
        if position >= first_default:
            yield f"{owner}.{arg.arg}", callee, arg.arg, position
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield f"{owner}.{arg.arg}", callee, arg.arg, None


def _field_options(node: ast.ClassDef):
    """The same for each field with a default of a dataclass or NamedTuple,
    `init=False` fields aside."""
    position = 0
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        if _not_in_init(item.value) or "ClassVar" in ast.unparse(item.annotation):
            continue
        if item.value is not None:
            yield f"{node.name}.{item.target.id}", node.name, item.target.id, position
        position += 1


def defined_options() -> dict[str, tuple[str, str, int | None, str]]:
    """Each settable value in `src/sdag` as "function.parameter",
    "Class.field" or "Class.method.parameter": (callee name, parameter,
    position or None for keyword-only, file)."""
    found = {}
    for path in sorted((ROOT / "src" / "sdag").rglob("*.py")):
        where = str(path.relative_to(ROOT))
        for node in ast.parse(path.read_text()).body:
            options = []
            if _is_function(node):
                options += _function_options(node.name, node, method=False)
            if isinstance(node, ast.ClassDef):
                if ("dataclass" in _decorator_names(node)
                        or any(getattr(b, "id", "") == "NamedTuple" for b in node.bases)):
                    options += _field_options(node)
                for item in node.body:
                    if _is_function(item):
                        options += _function_options(f"{node.name}.{item.name}", item, method=True)
            for qualified, callee, parameter, position in options:
                found[qualified] = (callee, parameter, position, where)
    return found


def program_calls() -> dict[str, list[ast.Call]]:
    """Every call in the program's code, by the name it calls."""
    calls: dict[str, list[ast.Call]] = {}
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    calls.setdefault(name, []).append(node)
    return calls


def _sets(call: ast.Call, parameter: str, position: int | None) -> bool:
    """Whether `call` passes `parameter`: by keyword, by position, or through
    `*` or `**`."""
    for keyword in call.keywords:
        if keyword.arg in (parameter, None):
            return True
    if position is None:
        return False
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or index == position:
            return True
    return False


def test_every_option_in_src_is_set_by_the_program():
    calls = program_calls()
    unset = []
    for qualified, (callee, parameter, position, where) in defined_options().items():
        if qualified in UNSET_OPTIONS:
            continue
        if not any(_sets(call, parameter, position) for call in calls.get(callee, [])):
            unset.append(f"{qualified} ({where})")
    assert not unset, "options in src/ that only the tests set: " + ", ".join(unset)


def test_the_unset_options_are_still_defined():
    assert UNSET_OPTIONS.keys() <= defined_options().keys()
