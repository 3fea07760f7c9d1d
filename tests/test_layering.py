"""Layering rules checked on the source text and the structure classes.

Every boolean relational product in the library goes through one kernel,
``lattice._compose``; this walks each module's syntax tree and fails on a
matrix product anywhere else.  So does every broadcast pair gather, through
``lattice._at``.  Likewise every first witness is found by one
scan, ``lattice._violations``, and a search for a first false entry anywhere
else fails.  The same walk pins each module's ``ensure``
cross-checks by message, so none is dropped or moved unnoticed.  Results
derived from a lattice, an algebra or a frame are kept by one helper,
``lattice._kept``, in the one private slot each class has; morphisms keep
their reports the same way, in their one private field.  Every algebra is
constructed in one place, ``algebra._assemble``, and every adjunction is
decided in two: ``algebra._decided`` and the Heyting table's build.  Frames
are constructed in three: ``kripke.build_frame``, for tables from outside,
and the prime frame and the pullback, frames by construction; ``build_frame``
and ``build_algebra`` run only on the tables of a document.  No module uses
``numpy.random``, so every lookup and result is deterministic, and every
public constant a module defines is read somewhere in the library.
"""

import ast
from dataclasses import fields
from pathlib import Path

import nablalg
from nablalg.algebra import Morphism, NablaAlgebra
from nablalg.kripke import KripkeFrame
from nablalg.lattice import FiniteLattice

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


GATHER_KERNEL = ("lattice.py", ("_at",))


def broadcast_gather_sites(source: str) -> list:
    """(enclosing definitions, line) of every gather ``t[..., x, ...]`` whose
    index tuple holds, anywhere inside an index, a subscript that broadcasts
    with ``None``: the two-index pair gathers such as ``t[a[:, None], b]``.
    Scatters (subscripts assigned to) are not gathers."""
    def broadcasts(node):
        if not isinstance(node, ast.Subscript):
            return False
        index = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        return any(isinstance(e, ast.Constant) and e.value is None for e in index)

    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
                and isinstance(node.slice, ast.Tuple)
                and any(broadcasts(sub) for e in node.slice.elts for sub in ast.walk(e))):
            sites.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return sites


def test_broadcast_gather_sites_are_found():
    source = "\n".join([
        "def f(t, a, b, s):",
        "    x = t[a[:, None], b] | t[a, b[None]]",
        "    y = t[s, :, None] | t[a[s, None, :] * 2 + 1, b] | t[a][:, a] | t[a, b]",
        "    t[a[:, None], b] = True",
        "    return _at(t, a[:, None], b), t[a[None]]",
        "class K:",
        "    def g(self, t, a):",
        "        return t[a, t[a[:, None], a]]",
    ])
    assert broadcast_gather_sites(source) == [(("f",), 2), (("f",), 2), (("f",), 3),
                                              (("K", "g"), 8), (("K", "g"), 8)]


def test_pair_gathers_only_in_the_kernel():
    """Every broadcast pair gather of the library goes through
    ``lattice._at``; its callers pass broadcast indices as arguments."""
    src = Path(nablalg.__file__).parent
    found = {path.name: broadcast_gather_sites(path.read_text())
             for path in sorted(src.glob("*.py"))}
    stray = [(name, scope, line) for name, sites in found.items() for scope, line in sites
             if (name, scope) != GATHER_KERNEL]
    assert not stray, f"two-index broadcast gathers outside lattice._at: {stray}"


FIRST_FALSE_CALLS = {"argwhere", "argmin"}
NONZERO_CALLS = {"nonzero", "flatnonzero"}
SCAN = ("lattice.py", ("_violations",))


def first_false_sites(source: str) -> list:
    """(enclosing definitions, line) of every call to ``argwhere`` or
    ``argmin``, by name or attribute, and of every ``nonzero`` or
    ``flatnonzero`` of a negated (``~``) mask: the searches for a first
    false entry."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            target = node.args[0] if node.args else getattr(func, "value", None)
            negated = isinstance(target, ast.UnaryOp) and isinstance(target.op, ast.Invert)
            if name in FIRST_FALSE_CALLS or (name in NONZERO_CALLS and negated):
                sites.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return sites


def test_first_false_sites_are_found():
    source = "\n".join([
        "import numpy as np",
        "def f(mask, rows):",
        "    i = np.argwhere(~mask)[0]",
        "    j = int(mask.argmin()), np.argmin(rows, axis=1)",
        "    return np.flatnonzero(~mask)[0], (~mask).nonzero(), np.flatnonzero(mask)",
        "class K:",
        "    def g(self, mask):",
        "        return np.nonzero(~mask), mask.argmax()",
    ])
    assert first_false_sites(source) == [(("f",), 3), (("f",), 4), (("f",), 4), (("f",), 5),
                                         (("f",), 5), (("K", "g"), 8)]


def test_first_witnesses_only_in_the_scan():
    """Every first witness of the library, of a law report or of a failed
    construction, is found by ``lattice._violations``, a slab of a lazy mask
    at a time."""
    src = Path(nablalg.__file__).parent
    found = {path.name: first_false_sites(path.read_text()) for path in sorted(src.glob("*.py"))}
    stray = [(name, scope, line) for name, sites in found.items() for scope, line in sites
             if (name, scope) != SCAN]
    assert not stray, f"first-false searches outside lattice._violations: {stray}"
    assert [scope for scope, _ in found[SCAN[0]]] == [SCAN[1]]


# Every `ensure` cross-check by module, as a multiset of messages (an f-string
# message in its source form).  A check may move inside its module, but one
# dropped, added or moved to another module must be recorded here.
ENSURES = {
    "algebra.py": [
        "a <= box(nabla(a)) must hold",
        "arrow must be antitone in its first argument",
        "box must preserve binary meets",
        "box must send top to top",
        "composition needs matching middle structure",
        "faithful algebras must fix the top under nabla",
        "faithfulness cancellation characterization disagrees",
        "faithfulness characterizations disagree",
        "fullness characterizations disagree",
        "left-condition characterizations disagree",
        "meet-preserving box must admit a pointwise adjoint",
        "nabla must preserve binary joins",
        "nabla must send bottom to bottom",
        "nabla(box(a)) <= a must hold",
        "on faithful algebras arrow(a, b) = top iff a <= b",
        "on faithful algebras nabla(arrow) must be the Heyting table",
        "residuation characterizations disagree",
        "right-condition characterizations disagree",
        "the recovered nabla must residuate the candidate arrow",
    ],
    "completion.py": [
        "canonical embedding must be an embedding",
        "canonical embedding must reflect order",
        "f'completion must keep flag {flag}'",
        "finite completion must be a bijection",
        "lifted box must be the nabla preimage",
        "lifted nabla must land on a normal ideal",
        "normal ideals must be principal, with the upper-bound intersections as joins",
        "the lifted nabla must have a residual",
    ],
    "congruence.py": [
        "alpha must produce a congruence",
        "beta must produce a modal filter",
        "closure must produce a modal filter",
        "congruence count disagrees with simplicity verdict",
        "congruence extension recipe failed to restrict",
        "oracle produced a non-congruence",
        "power criterion disagrees with closure-membership verdict",
        "power criterion disagrees with simplicity verdict",
        "the fixpoints of nabla below an element must have a greatest one",
    ],
    "gallery.py": [
        "n-fold nabla must annihilate every non-top element",
        "shift algebra must be normal distributive Heyting",
        "shift algebra must be simple",
        "shift preimage must admit a residuated arrow",
        "shift preimages of opens must be open",
        "the opens must be closed under intersection and union",
    ],
    "kripke.py": [
        "f'algebra flag {flag} must transfer to the prime frame'",
        "f'frame flag {flag} must transfer to the upset algebra'",
        "f'{name} must be an embedding'",
        "f'{name} must preserve the Heyting table'",
        "f'{name} projection must be a frame morphism'",
        "f'{name} projection must be surjective'",
        "faithfulness must match pi being an order embedding",
        "fullness must match pi being surjective",
        "membership image must be an upset of the prime frame",
        "membership map must be an embedding",
        "membership map must be onto for finite carriers",
        "preimage map must be an algebra morphism",
        "preimage of a prime filter must be prime",
        "preimage of an upset must be an upset",
        "preimages along a surjection must be injective",
        "prime preimage map must be a frame morphism",
        "prime preimages along an embedding must be onto",
        "projections must commute over the base",
        "pullback must inherit the shared flag class",
        "pullback of normal frames must be normal",
        "pullback witness must be the componentwise witness pair",
        "pulled-back membership row must be an upset of the pullback",
        "reflexivity must match w <= pi(w) on normal frames",
        "relation characterizations disagree on prime filters",
        "relation image of an upset must be an upset",
        "sub-order must match pi(w) <= w on normal frames",
        "the amalgam must carry the shared flag class",
        "the amalgam must stay normal and distributive",
        "the amalgamation square must commute",
        "the relation image on upsets must have a residual",
        "upset algebras always carry the Heyting structure",
        "witness characterization of frame morphisms disagrees with the clauses",
    ],
    "lattice.py": [
        "an admissible new atom must leave a lattice",
        "distributivity characterizations disagree",
        "enumerated set is not a prime filter",
        "lattices with distinct canonical forms must not be isomorphic",
        "prime filter count must match join-irreducibles on distributive lattices",
        "pseudocomplement not residuated",
        "pseudocomplements exist iff distributive",
        "the coordinate lookup must fail only where some pair has no bound",
        "upset lattice must be distributive",
        "upset lattice must carry pseudocomplements",
        "upsets must be closed under intersection and union",
    ],
}


def ensure_messages(source: str) -> list:
    """The message of every call to ``ensure``, by name or attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "ensure":
                msg = node.args[1]
                found.append(msg.value if isinstance(msg, ast.Constant) else ast.unparse(msg))
    return found


def test_ensure_messages_are_found():
    source = "\n".join([
        "from .errors import ensure",
        "def f(x, flag):",
        "    ensure(x > 0, 'x must be positive')",
        "    errors.ensure(x < 9, f'flag {flag} must hold')",
        "    ensure(x, 'x must be positive')",
    ])
    assert ensure_messages(source) == ["x must be positive", "f'flag {flag} must hold'",
                                       "x must be positive"]


def test_ensure_inventory_is_pinned():
    src = Path(nablalg.__file__).parent
    found = {path.name: sorted(ensure_messages(path.read_text()))
             for path in sorted(src.glob("*.py"))}
    assert {name: msgs for name, msgs in found.items() if msgs} == ENSURES


def subset_lattice_sites(source: str) -> list:
    """Line of every ``build_lattice`` call on a ``_subset`` product, passed
    inline or through a name that the same function binds to one."""
    def called(node, name):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == name

    tree = ast.parse(source)
    sites = {node.lineno for node in ast.walk(tree) if called(node, "build_lattice")
             and node.args and called(node.args[0], "_subset")}
    for func in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
        products = {target.id for node in ast.walk(func)
                    if isinstance(node, ast.Assign) and called(node.value, "_subset")
                    for target in node.targets if isinstance(target, ast.Name)}
        sites |= {node.lineno for node in ast.walk(func) if called(node, "build_lattice")
                  and node.args and getattr(node.args[0], "id", None) in products}
    return sorted(sites)


def test_subset_lattice_sites_are_found():
    source = "\n".join([
        "def f(rows, leq):",
        "    a = build_lattice(_subset(rows, rows))",
        "    rel = _subset(rows, rows)",
        "    b = lattice.build_lattice(rel)",
        "    return build_lattice(leq), _family_lattice(rows, ~rows)",
        "def g(rel):",
        "    return build_lattice(rel)",
    ])
    assert subset_lattice_sites(source) == [2, 4]


def test_lattices_of_sets_come_from_the_family_constructor():
    """A lattice of sets is built by ``lattice._family_lattice``, which
    looks its meets and joins up as intersections, never by
    ``build_lattice`` of its inclusion order."""
    src = Path(nablalg.__file__).parent
    found = {path.name: subset_lattice_sites(path.read_text()) for path in sorted(src.glob("*.py"))}
    assert not {name: lines for name, lines in found.items() if lines}


ASSEMBLER = ("algebra.py", ("_assemble",))


def call_sites(source: str, callee: str) -> list:
    """(enclosing definitions, line) of every call to ``callee``, by name or
    attribute."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == callee:
                sites.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return sites


def test_call_sites_are_found():
    source = "\n".join([
        "def f(lat, nab, arr):",
        "    return NablaAlgebra(lat, nab, arr), algebra.NablaAlgebra(lat, nab, arr)",
        "class K:",
        "    def g(self):",
        "        return NablaAlgebra, build(NablaAlgebra)",
    ])
    assert call_sites(source, "NablaAlgebra") == [(("f",), 2), (("f",), 2)]


def test_algebras_are_assembled_in_one_place():
    """Every algebra of the library is constructed by ``algebra._assemble``,
    which its callers reach with a pair whose adjunction is decided."""
    src = Path(nablalg.__file__).parent
    found = {path.name: call_sites(path.read_text(), "NablaAlgebra")
             for path in sorted(src.glob("*.py"))}
    stray = [(name, scope, line) for name, sites in found.items() for scope, line in sites
             if (name, scope) != ASSEMBLER]
    assert not stray, f"NablaAlgebra constructed outside algebra._assemble: {stray}"
    assert [scope for scope, _ in found[ASSEMBLER[0]]] == [ASSEMBLER[1]]


def callers(callee: str) -> list:
    """(module, enclosing definitions) of every call to ``callee`` in the
    library, in module and line order."""
    src = Path(nablalg.__file__).parent
    return [(path.name, scope) for path in sorted(src.glob("*.py"))
            for scope, _ in call_sites(path.read_text(), callee)]


FRAME_CONSTRUCTORS = [("kripke.py", ("build_frame",)), ("kripke.py", ("_build_prime_frame",)),
                      ("kripke.py", ("amalgamate_frames",))]


def test_frames_are_constructed_in_three_places():
    """``KripkeFrame`` is constructed by ``build_frame``, on tables from
    outside once they are checked, and by the two constructions whose tables
    are a frame by construction: the prime frame and the pullback."""
    assert callers("KripkeFrame") == FRAME_CONSTRUCTORS


def test_only_tables_from_outside_are_validated():
    """``build_frame`` and ``build_algebra`` run only on the tables of a
    document; every other construction, ``nabla_from_strong``'s adjoint
    among them, assembles what it has decided."""
    assert callers("build_frame") == [("serialize.py", ("frame_from_json",))]
    assert callers("build_algebra") == [("serialize.py", ("algebra_from_json",))]


RESIDUATION_CALLERS = [("algebra.py", ("_decided",)), ("lattice.py", ("_build_heyting_table",))]


def test_residuation_is_decided_in_two_places():
    """``lattice._residuated`` is called by ``_build_heyting_table``, for the
    identity with the Heyting table, and by ``algebra._decided``, for every
    other pair, so no pair has a second route to its verdict."""
    assert callers("_residuated") == RESIDUATION_CALLERS


def test_structures_keep_results_in_one_slot():
    for cls in (FiniteLattice, NablaAlgebra, KripkeFrame):
        private = [name for name in cls.__slots__ if name.startswith("_")]
        assert private == ["_kept"], f"{cls.__name__} has private slots {private}"
    private = [f.name for f in fields(Morphism) if f.name.startswith("_")]
    assert private == ["_kept"], f"Morphism has private fields {private}"


def constants(source: str) -> tuple:
    """(defined, read): the public UPPER_CASE names bound at module level,
    and every name read, as a name or as an attribute."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        defined += [t.id for t in targets if isinstance(t, ast.Name)
                    and t.id.isupper() and not t.id.startswith("_")]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return defined, read


def test_constants_are_found():
    source = "\n".join([
        "from .lattice import SIZE_MAX",
        "BOUND = 3",
        "LAWS: dict = {}",
        "_PRIVATE = 1",
        "lower = 2",
        "class K:",
        "    FLAGS = ()",
        "def f(n):",
        "    TABLE = {}",
        "    return n < BOUND and lattice.CUBE_MAX",
    ])
    defined, read = constants(source)
    assert defined == ["BOUND", "LAWS"]
    assert {"BOUND", "CUBE_MAX"} <= read and not {"SIZE_MAX", "LAWS", "TABLE"} & read


def test_every_constant_is_read():
    """A public constant of the library is read somewhere in it: a table
    that nothing reads restates what the code already says."""
    src = Path(nablalg.__file__).parent
    found = [constants(path.read_text()) for path in sorted(src.glob("*.py"))]
    read = set().union(*(names for _, names in found))
    assert not [name for defined, _ in found for name in defined if name not in read]


def random_sites(source: str) -> list:
    """Line of every attribute ``random`` of ``np`` or ``numpy`` and of every
    import of ``numpy.random`` or of a name from it."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            sites.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(alias.name.split(".")[:2] == ["numpy", "random"] for alias in node.names):
                sites.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if module[:2] == ["numpy", "random"] or (
                    module == ["numpy"] and any(alias.name == "random" for alias in node.names)):
                sites.append(node.lineno)
    return sorted(sites)


def test_random_sites_are_found():
    source = "\n".join([
        "import numpy as np",
        "import numpy.random",
        "from numpy import random as r",
        "from numpy.random import default_rng",
        "def f(n):",
        "    return np.random.default_rng(0), numpy.random.rand(n), rng.random(n)",
        "import random",
    ])
    assert random_sites(source) == [2, 3, 4, 6, 6]


def test_no_random_numbers_in_the_library():
    """The library draws no random numbers, so every result, and the
    multipliers of the hashed lookup, are fixed."""
    src = Path(nablalg.__file__).parent
    found = {path.name: random_sites(path.read_text()) for path in sorted(src.glob("*.py"))}
    assert not {name: lines for name, lines in found.items() if lines}
