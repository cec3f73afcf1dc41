"""The study scripts import only names the package defines.

Each script under `studies/` is parsed, not run: a name deleted from the
package fails here instead of at the next run of the study.
"""

import ast
import importlib
from pathlib import Path

import pytest

STUDIES = sorted((Path(__file__).resolve().parents[1] / "studies").glob("*.py"))


def _package_imports(path):
    """(module, name) for each `from monge1d... import name` in a script,
    and (module, None) for each `import monge1d...`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "monge1d":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "monge1d":
                    yield alias.name, None


def _exists(module, name):
    try:
        mod = importlib.import_module(module)
    except ModuleNotFoundError:
        return False
    if name is None or hasattr(mod, name):
        return True
    # `from monge1d import duality` names a submodule.
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_studies_are_found():
    assert len(STUDIES) >= 5


@pytest.mark.parametrize("path", STUDIES, ids=lambda p: p.name)
def test_study_imports_exist(path):
    imports = list(_package_imports(path))
    assert imports, f"{path.name} imports nothing from monge1d"
    missing = [f"{module}.{name}" if name else module
               for module, name in imports if not _exists(module, name)]
    assert missing == []
