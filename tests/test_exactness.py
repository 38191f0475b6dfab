"""The modules that make optimality and pruning decisions compute in
integers and ``Fraction``s only: no float may reach them.  This is checked
on their source, so a float cannot slip in through a path the other tests
never run."""

import ast
from pathlib import Path

import pytest

import biopt

EXACT_MODULES = ("simplex.py", "ipsolve.py")


def _float_uses(path: Path) -> list[str]:
    """Each true division, float literal or ``float`` name in ``path``,
    as ``line: what``, in line order."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "the name float"))
    return [f"{line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("name", EXACT_MODULES)
def test_no_float_arithmetic(name):
    assert _float_uses(Path(biopt.__file__).parent / name) == []


def test_the_check_sees_floats(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("a = 1 / 2\nb = 0.5\nc = float(3)\nd = 4\nd /= 2\ne = 7 // 2\n")
    assert _float_uses(probe) == [
        "1: true division",
        "2: float literal 0.5",
        "3: the name float",
        "5: true division",
    ]
