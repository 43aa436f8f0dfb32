"""Every test function under tests/ sits where pytest collects it."""

import ast
from pathlib import Path

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def test_no_test_hides_inside_a_function():
    # pytest never collects a def test_* inside a function body, say one left
    # after a strategy's return, so it could not fail
    hidden = [
        (path.name, inner.lineno, inner.name)
        for path in sorted(Path(__file__).parent.glob("*.py"))
        for outer in ast.walk(ast.parse(path.read_text()))
        if isinstance(outer, FUNCTIONS)
        for inner in ast.walk(outer)
        if inner is not outer and isinstance(inner, FUNCTIONS) and inner.name.startswith("test_")
    ]
    assert hidden == []


def test_hamiltonian_system_is_the_only_dataclass():
    # every dataclass costs about a millisecond of code generation at each
    # import, and intlab runs in many short processes; HamiltonianSystem stays
    # one because perfbench/tracing.py wraps its callbacks with dataclasses.replace
    src = Path(__file__).resolve().parent.parent / "src"
    decorated = [
        node.name
        for path in sorted(src.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        for deco in node.decorator_list
        if "dataclass" in ast.unparse(deco)
    ]
    assert decorated == ["HamiltonianSystem"]


def test_src_calls_no_np_poly():
    # linalg._poly is the one route from roots to coefficients; np.poly
    # gives the same bits on real roots at one convolve call per root
    assert src_calls(("poly",)) == []


def src_calls(names):
    """(file, enclosing function) of every call in src/ whose last dotted name is in names."""
    src = Path(__file__).resolve().parent.parent / "src"
    calls = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            name = ast.unparse(node.func).split(".")[-1] if isinstance(node, ast.Call) else None
            if name in names:
                owner = node
                while owner in parent and not isinstance(owner, FUNCTIONS):
                    owner = parent[owner]
                calls.append((path.name, getattr(owner, "name", "<module>")))
    return calls


def test_src_general_eigensolver_calls_are_listed():
    # none are left: every spectrum src/ reads goes through linalg._eigh, and
    # duality_map reads its unitary matrix's off a Hermitian Cayley transform
    assert src_calls(("eig", "eigvals")) == []


def test_src_hermitian_spectra_go_through_one_route():
    # linalg._eigh is the one call into LAPACK's zheevd, with the workspace
    # that keeps numpy's bits; eigh and eigvalsh would pay numpy's gufunc
    # overhead on every small matrix
    assert src_calls(("eigh", "eigvalsh")) == []
    assert src_calls(("zheevd",)) == [("linalg.py", "_eigh")]
