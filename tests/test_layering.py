"""Layering: the scenario fuzzer sits on top of the library, never under it.

:mod:`repro.scenario` builds on the scene, sensor, detection and
evaluation layers.  No module below it may import it back; within
``src/repro`` only the scenario package itself and the CLI do.
"""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SCENARIO = "repro.scenario"


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imports(path: Path) -> set[str]:
    """Every module an ``import``/``from ... import`` in ``path`` names."""
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package.pop()
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package[: len(package) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_only_the_scenario_package_and_cli_import_it():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = _module_name(path)
        if module == SCENARIO or module.startswith(SCENARIO + "."):
            continue
        if module == "repro.cli":
            continue
        hits = sorted(
            name
            for name in _imports(path)
            if name == SCENARIO or name.startswith(SCENARIO + ".")
        )
        if hits:
            offenders.append(f"{module}: {', '.join(hits)}")
    assert not offenders, offenders


def test_import_repro_loads_no_scenario_module():
    script = (
        "import sys, repro\n"
        f"print(sorted(m for m in sys.modules if m.startswith({SCENARIO!r})))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC)},
        check=True,
    )
    assert proc.stdout.strip() == "[]"
