"""Census of the library surface: every public name has a caller.

Each public function, class and method defined in ``src/pinq/*.py`` must be
read somewhere in the code of ``src/pinq``, ``demos/`` or ``perfbench/``: as
a name or an attribute that is loaded, or as a string constant (the
benchmark tracer names its targets as strings).  A name that is only
assigned, such as a dataclass field of the same name, is not a read.  The
re-exports in ``src/pinq/__init__.py`` are not callers, and neither are the
tests: a name only a test reads belongs in ``tests/oracles.py``.  The
census reads source text with ``ast`` alone and does not import the
package.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pinq"

# public names kept without a caller, each with its reason
ALLOWED = {
    "block_diagonal_form": "meets interpolation_path's block-diagonal precondition; its docstring names it",
}


def _public_definitions():
    """(module, qualified name, bare name) of each public function, class and method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield path.stem, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path.stem, f"{node.name}.{item.name}", item.name


def _read_in_code():
    """Every loaded name and attribute, and every string constant, in the
    code that may call the package."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_public_name_has_a_caller():
    read = _read_in_code()
    orphans = [
        f"{module}.{qualified}"
        for module, qualified, bare in _public_definitions()
        if bare not in read and bare not in ALLOWED
    ]
    assert not orphans, f"public names that no route, demo or benchmark reaches: {orphans}"


def test_every_allowed_name_is_still_defined():
    defined = {bare for _, _, bare in _public_definitions()}
    assert set(ALLOWED) <= defined
