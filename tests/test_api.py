"""The public surface is the one the README's "Python API" section lists,
every documented ``hcs`` command line still parses, and the package imports
only at module level."""
import ast
import importlib
import re
import shlex
import types
from pathlib import Path

import hcskit
from hcskit import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_exports() -> dict[str, str]:
    """{name: module} from the bullets of the README's Python API section."""
    section = README.read_text(encoding="utf-8").split("## Python API\n", 1)[1].split("\n## ", 1)[0]
    exports = {}
    for module, names in re.findall(r"^\* `([\w.]+)`: (.*(?:\n  .*)*)", section, re.M):
        for name in re.findall(r"`(\w+)`", names):
            assert name not in exports, name
            exports[name] = module
    return exports


def test_readme_lists_every_export():
    exports = readme_exports()
    assert set(exports) == set(hcskit.__all__)
    for name, module in exports.items():
        assert name in vars(importlib.import_module(module)), (name, module)


def test_package_root_exports_only_all():
    public = {
        name for name, value in vars(hcskit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(hcskit.__all__) - {"__version__"}


def documented_commands(text: str) -> list[list[str]]:
    """The arguments of every `hcs ...` line in text, continuations joined."""
    lines = text.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.strip().startswith("hcs ")]


def test_documented_commands_parse():
    readme_blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    parser = cli.build_parser()
    for text in ["\n".join(readme_blocks), cli.__doc__]:
        commands = documented_commands(text)
        assert commands
        for argv in commands:
            parser.parse_args(argv)


def test_no_import_inside_a_function():
    # an import run at call time binds whatever hcskit modules are loaded
    # then: after a re-import, the objects made by the first import fail the
    # isinstance checks against the classes of the second
    found = []
    for path in sorted(Path(hcskit.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for node in ast.walk(func):
                dynamic = isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None) == "__import__"
                    or getattr(node.func, "attr", None) == "import_module"
                )
                if isinstance(node, (ast.Import, ast.ImportFrom)) or dynamic:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
