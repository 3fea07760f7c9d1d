"""Layering rules checked on the source text.

Every boolean relational product in the library goes through one kernel,
``lattice._compose``; this walks each module's syntax tree and fails on a
matrix product anywhere else.
"""

import ast
from pathlib import Path

import nablalg

PRODUCT_CALLS = {"matmul", "dot", "tensordot", "einsum", "inner"}
KERNEL = ("lattice.py", ("_compose",))


def product_sites(source: str) -> list:
    """(enclosing definitions, line) of every ``@``, ``@=`` and call to a
    product routine, by name or attribute."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            sites.append((scope, node.lineno))
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in PRODUCT_CALLS:
                sites.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return sites


def test_product_sites_are_found():
    source = "\n".join([
        "import numpy as np",
        "def f(a, b):",
        "    c = a @ b",
        "    c @= b",
        "    return np.einsum('ij,jk->ik', a, b) | a.dot(b)",
        "class K:",
        "    def g(self, a):",
        "        return np.matmul(a, a), np.tensordot(a, a), np.inner(a, a)",
    ])
    assert product_sites(source) == [(("f",), 3), (("f",), 4), (("f",), 5), (("f",), 5),
                                     (("K", "g"), 8), (("K", "g"), 8), (("K", "g"), 8)]


def test_relational_products_only_in_the_kernel():
    src = Path(nablalg.__file__).parent
    found = {path.name: product_sites(path.read_text()) for path in sorted(src.glob("*.py"))}
    stray = [(name, scope, line) for name, sites in found.items() for scope, line in sites
             if (name, scope) != KERNEL]
    assert not stray, f"matrix products outside lattice._compose: {stray}"
    assert [scope for scope, _ in found[KERNEL[0]]] == [KERNEL[1]]
