import ast
import sys
from pathlib import Path

import cubiclass

PACKAGE = Path(cubiclass.__file__).parent
TESTS = Path(__file__).parent


def imported_modules(path):
    """(module, names) for each import in the file; relative imports are
    named by their dots, as in ".forms"."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or ""), tuple(a.name for a in node.names)


def test_package_imports_only_the_standard_library():
    # README: "standard library only".
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 8
    for path in sources:
        for module, _ in imported_modules(path):
            top = module.split(".")[0]
            assert module.startswith(".") or top in sys.stdlib_module_names | {"cubiclass"}, (
                path.name, module)


def test_groebner_reference_shares_no_code_with_the_engine():
    # The reference checks the packed engine only while it is independent.
    imports = list(imported_modules(TESTS / "groebner_oracle.py"))
    assert imports
    for module, names in imports:
        assert not module.startswith("cubiclass.smoothness"), module
        assert not (module == "cubiclass" and "smoothness" in names), names
