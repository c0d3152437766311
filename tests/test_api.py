"""The public surface is the one the README's "Python API" section lists."""
import importlib
import re
import types
from pathlib import Path

import hcskit

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
