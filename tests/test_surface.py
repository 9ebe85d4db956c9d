"""``src/springopt`` holds what the library runs.

Every public top-level function, class, public method and module constant
must be named somewhere other than its own definition: in ``src/``, the
benchmark and micro-benchmarks, the scripts, README, ``pyproject.toml`` or the
acceptance tests.  A name that only unit tests call belongs with them, in
``tests/monitors.py``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
USERS = [ROOT / "README.md", ROOT / "pyproject.toml", ROOT / "tests" / "test_acceptance.py",
         *(path for folder in ("src", "perfbench", "microbench", "scripts")
           for path in sorted((ROOT / folder).rglob("*")) if path.suffix in (".py", ".md"))]


def _names(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return [target.id for target in targets if isinstance(target, ast.Name)]


def _definitions():
    """(name, path, source of its definition) for each public name in ``src/springopt``."""
    for path in sorted((ROOT / "src" / "springopt").rglob("*.py")):
        text = path.read_text()
        for node in ast.parse(text).body:
            methods = [m for m in node.body if isinstance(m, ast.FunctionDef)] if isinstance(node, ast.ClassDef) else []
            for defn in (node, *methods):
                for name in _names(defn):
                    if not name.startswith("_"):
                        yield name, path, ast.get_source_segment(text, defn)


def test_every_public_name_has_a_user_besides_the_unit_tests():
    texts = {path: path.read_text() for path in USERS}
    unused = []
    for name, path, source in _definitions():
        word = re.compile(rf"\b{name}\b")
        if not any(word.search(text.replace(source, "", 1) if user == path else text) for user, text in texts.items()):
            unused.append(f"{path.relative_to(ROOT)}: {name}")
    assert not unused, "public names that only unit tests use:\n" + "\n".join(unused)
