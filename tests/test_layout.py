"""DESIGN §12 "Layout" names every module under ``src/repro``, and no other.

The block lists a package's modules after its directory (``sim/  engine.py
...``), continues on indented lines, names a subpackage's modules in
parentheses after it (``mining/ (cluster.py ...)``) and a top-level module
at the start of its own line.  ``__init__.py`` files are not listed.
"""

import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


def listed_modules(design: str) -> set[str]:
    """The ``src/repro``-relative paths of the modules §12's block names."""
    block = design.split("## 12. Layout", 1)[1].split("```")[1]
    lines = block.splitlines()
    assert lines[1] == "src/repro/", "the block must open with src/repro/"
    modules: set[str] = set()
    package = ""
    for line in lines[2:]:
        if not line.startswith("  "):
            break  # tests/, benchmarks/, ...: the end of src/repro
        words = line.split()
        if not line.startswith("   "):
            # A package's first line, or a top-level module's own line.
            package = words[0] if words[0].endswith("/") else ""
        subpackage = ""
        for word in words:
            word = word.strip("()")
            if word.endswith("/") and word != package:
                subpackage = word
            elif word.endswith(".py"):
                modules.add(package + subpackage + word)
    return modules


def test_layout_names_every_module():
    listed = listed_modules((ROOT / "DESIGN.md").read_text())
    actual = {
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*.py")
        if path.name != "__init__.py"
    }
    assert not actual - listed, f"modules DESIGN §12 does not name: {sorted(actual - listed)}"
    assert not listed - actual, f"DESIGN §12 names modules that do not exist: {sorted(listed - actual)}"

