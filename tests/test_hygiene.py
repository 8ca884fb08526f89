"""Source hygiene: no module imports a name it never uses, no private name is
dead, every public name (and every public method or property of a top-level
class) is exported, used by the package or the bench, or kept on purpose,
and each lazily exported name resolves to its module's."""

import ast
import importlib
from pathlib import Path

import pytest

import trihodge

ROOT = Path(__file__).resolve().parent.parent
SRC_MODULES = sorted((ROOT / "src" / "trihodge").glob("*.py"))
SOURCES = {p.stem: p.read_text() for p in SRC_MODULES}
BENCH_READERS = {
    f"perfbench.{p.stem}": p.read_text()
    for p in sorted((ROOT / "perfbench").glob("*.py"))
    if not p.name.startswith("test_")
}
MODULES = sorted(
    p
    for directory in (ROOT / "src" / "trihodge", ROOT / "tests")
    for p in directory.glob("*.py")
    if p.name != "__init__.py"  # its imports are the package's re-exports
)


def unused_imports(source: str) -> list[str]:
    """Top-level imported names that the module never references."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    imported.pop("annotations", None)  # from __future__ import annotations
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_detector_flags_only_unused_names():
    source = "import os.path\nfrom a import b, c as d\nprint(os.sep, d)\n"
    assert unused_imports(source) == ["b (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Private top-level functions and classes, and private methods of top-level classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)) and is_private(node.name):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and is_private(item.name):
                    out.append((f"{node.name}.{item.name}", item))
    return out


def references(
    trees: dict[str, ast.Module], kinds: tuple[type, ...] = (ast.Name, ast.Attribute)
) -> list[tuple[str, int, str]]:
    """(module, line, name) for every AST name and attribute in the trees, or
    only for the node kinds given."""
    return [
        (module, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, kinds)
    ]


def referenced_outside(name: str, module: str, node: ast.AST, refs) -> bool:
    """Whether a reference to name lies outside node, the definition in module."""
    return any(
        m != module or not node.lineno <= line <= node.end_lineno
        for m, line, n in refs
        if n == name
    )


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private definitions that no module references outside their own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    refs = references(trees)
    return [
        f"{module}:{qualname}"
        for module, tree in trees.items()
        for qualname, node in private_definitions(tree)
        if not referenced_outside(qualname.rpartition(".")[2], module, node, refs)
    ]


def test_private_name_detector():
    sources = {
        "a": (
            "def _used(): pass\n"
            "def _unused(): pass\n"
            "def _recursive(): return _recursive()\n"
            "class _Box:\n"
            "    def __init__(self): self._touched()\n"
            "    def _touched(self): pass\n"
            "    def _idle(self): pass\n"
        ),
        "b": "from a import _Box, _used\nprint(_Box, _used)\n",
    }
    assert unreferenced_private_names(sources) == ["a:_unused", "a:_recursive", "a:_Box._idle"]


def test_every_private_name_is_referenced():
    assert unreferenced_private_names(SOURCES) == []


def public_methods(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Public methods and properties of top-level classes, as ``Class.name``."""
    return [
        (f"{node.name}.{item.name}", item)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, FUNCTIONS) and not item.name.startswith("_")
    ]


def annotation_names(node: ast.AST) -> set[str]:
    """Names in an annotation, string annotations included."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            names |= annotation_names(ast.parse(n.value, mode="eval"))
    return names


def annotations(unit: ast.AST):
    """The annotation nodes inside a definition: returns, arguments and
    annotated assignments."""
    for n in ast.walk(unit):
        if isinstance(n, FUNCTIONS) and n.returns is not None:
            yield n.returns
        elif isinstance(n, ast.arg) and n.annotation is not None:
            yield n.annotation
        elif isinstance(n, ast.AnnAssign):
            yield n.annotation


def class_attribute_reads(trees: dict[str, ast.Module]) -> list[tuple[str, int, str, set[str]]]:
    """(module, line, attribute, classes) for every attribute read in the
    trees, where classes are the names the top-level definition holding
    the read refers to: directly, or through the return annotation of a
    function it names. A class definition refers to its own name.
    """
    returns: dict[str, set[str]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, FUNCTIONS) and node.returns is not None:
                returns.setdefault(node.name, set()).update(annotation_names(node.returns))
    out = []
    for module, tree in trees.items():
        for unit in tree.body:
            named = {name for _, _, name in references({module: unit})}
            named = named.union(*map(annotation_names, annotations(unit)))
            if isinstance(unit, ast.ClassDef):
                named.add(unit.name)
            classes = named.union(*(returns.get(name, ()) for name in named))
            attributes = references({module: unit}, (ast.Attribute,))
            out += [(module, line, attr, classes) for _, line, attr in attributes]
    return out


def reads_on(family: set[str], reads) -> list[tuple[str, int, str]]:
    """(module, line, attribute) of the reads whose definition refers to a
    class of the family."""
    return [(module, line, attr) for module, line, attr, classes in reads if family & classes]


def unexplained_public_names(
    sources: dict[str, str], readers: dict[str, str], explained: set[str]
) -> list[str]:
    """Public top-level functions and classes of ``sources``, then public
    methods and properties of its top-level classes, that are not in
    ``explained`` and that no definition in ``sources`` or ``readers`` uses.

    A method counts as used only where an attribute of its name is read in
    a top-level definition that also refers to its class or to a class of
    ``sources`` derived from it (see ``class_attribute_reads``). So neither
    a local variable of the same name nor a method of the same name on
    another class hides it.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everything = {**trees, **{m: ast.parse(source) for m, source in readers.items()}}
    refs, reads = references(everything), class_attribute_reads(everything)
    bases = {
        node.name: {base.id for base in node.bases if isinstance(base, ast.Name)}
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }

    def family(cls: str) -> set[str]:
        """cls and every class of ``sources`` derived from it."""
        return {cls}.union(*(family(sub) for sub, names in bases.items() if cls in names))

    names = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (*FUNCTIONS, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in explained
        and not referenced_outside(node.name, module, node, refs)
    ]
    methods = [
        f"{module}:{qualname}"
        for module, tree in trees.items()
        for qualname, node in public_methods(tree)
        if qualname not in explained
        and not referenced_outside(
            node.name, module, node, reads_on(family(qualname.split(".")[0]), reads)
        )
    ]
    return names + methods


def test_public_name_detector():
    sources = {
        "a": (
            "def exported(): pass\n"
            "def called(): pass\n"
            "def benched(): pass\n"
            "def kept(): pass\n"
            "def recursive(): return recursive()\n"
            "class Idle:\n"
            "    def method(self): pass\n"
            "class Box:\n"
            "    def read(self): pass\n"
            "    def shadowed(self): pass\n"
            "    @property\n"
            "    def kept(self): pass\n"
            "class Twin:\n"
            "    def read(self): pass\n"
            "    def made(self): pass\n"
            "def make() -> Twin: pass\n"
            "class _Base:\n"
            "    def inherited(self): pass\n"
            "    def unread(self): pass\n"
            "class Leaf(_Base): pass\n"
            "def _private(): pass\n"
        ),
        "b": "from a import Box, called, make\ncalled()\nBox().read()\nshadowed = 1\n",
    }
    # Twin.made is read on what make() returns; Box().read() does not use
    # Twin.read; _Base.inherited is read through its subclass Leaf
    readers = {"bench": "import a\na.benched()\na.make().made()\na.Leaf.inherited()\n"}
    found = unexplained_public_names(sources, readers, {"exported", "kept", "Box.kept"})
    assert found == [
        "a:recursive",
        "a:Idle",
        "a:Idle.method",
        "a:Box.shadowed",
        "a:Twin.read",
        "a:_Base.unread",
    ]


# Public lower-level API that nothing in the package calls, kept on purpose
# (the public-surface item of ROADMAP.md records each decision).
LOWER_LEVEL_API = ("h3_representatives", "subgroup_sum")

# Public methods and properties that no definition in the package or the
# bench reads through a reference to their class (only the tests, or the
# bench on an object it does not name), kept on purpose, each with the
# reason it stays public.
KEPT_METHODS = {
    "QuadraticEnhancement.evaluate": "q(x) of an exported spin structure",
    "OneOneCocycle.is_zero": (
        "whether the curve coordinates of a c1_difference are zero; a coboundary is "
        "a zero class yet reads nonzero (ROADMAP item 7)"
    ),
    "H2DualRep.is_zero": (
        "whether the pairing coordinates of a rep are zero; on S1xS3 a nonzero rep is "
        "a zero class (ROADMAP item 7)"
    ),
    "H2DualRep.lifts": "ambient vectors of a rep, the inverse of from_lifts; the bench reads them",
    "TrisectionDiagram.pair_sum": "the canonical pair sum, which the bench's lattice replay reads",
    "TrisectionDiagram.lagrangian_subgroup": (
        "the canonical Lagrangian, which the bench's lattice replay reads"
    ),
}


EXPLAINED = {*trihodge.__all__, *LOWER_LEVEL_API, *KEPT_METHODS}


def test_every_public_name_is_exported_used_or_kept():
    assert unexplained_public_names(SOURCES, BENCH_READERS, EXPLAINED) == []


def test_every_keep_list_entry_is_needed():
    """Each kept entry names a definition the check reports once the entry is left out."""
    stale = [
        entry
        for entry in (*LOWER_LEVEL_API, *KEPT_METHODS)
        if not any(
            found.partition(":")[2] == entry
            for found in unexplained_public_names(SOURCES, BENCH_READERS, EXPLAINED - {entry})
        )
    ]
    assert stale == []


def test_lazy_exports_resolve_to_their_defining_modules():
    for name in trihodge.__all__:
        value = getattr(trihodge, name)
        module = importlib.import_module(value.__module__)
        assert module.__name__ == f"trihodge.{trihodge._MODULE_OF[name]}"
        assert getattr(module, name) is value


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from trihodge import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == trihodge.__all__


def test_dir_lists_the_public_names_and_unknown_names_raise():
    assert set(trihodge.__all__) <= set(dir(trihodge))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(trihodge, "no_such_name")


def binds_smith(source: str) -> bool:
    """Whether a module imports ``_Smith`` or names it directly.

    ``tests/test_memo.py`` counts Smith forms by patching ``lattice._Smith``; a
    module holding its own reference would build forms that go uncounted.
    """
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("_Smith" in (alias.name, alias.asname) for alias in node.names):
                return True
        elif isinstance(node, ast.Name) and node.id == "_Smith":
            return True
    return False


def test_smith_binding_detector():
    assert binds_smith("from .lattice import _Smith, _dot\n")
    assert binds_smith("from .lattice import _dot as _Smith\n")
    assert binds_smith("from . import lattice\n_Smith = lattice._Smith\n")
    assert not binds_smith("from . import lattice\nform = lattice._Smith([], 0)\n")


@pytest.mark.parametrize(
    "path", [p for p in SRC_MODULES if p.name != "lattice.py"], ids=lambda p: p.name
)
def test_smith_forms_are_built_through_the_lattice_module(path):
    assert not binds_smith(path.read_text())


def decorated_definitions(sources: dict[str, str], decorator: str) -> list[str]:
    """``module:qualname`` of each top-level function and method of a
    top-level class decorated with ``decorator``, by name or attribute."""

    def names(d: ast.AST) -> bool:
        return (d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)) == decorator

    found = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            items = [(node.name, node)] if isinstance(node, FUNCTIONS) else []
            if isinstance(node, ast.ClassDef):
                items = [
                    (f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, FUNCTIONS)
                ]
            found += [
                f"{module}:{qualname}"
                for qualname, item in items
                if any(map(names, item.decorator_list))
            ]
    return found


def test_memoized_definition_detector():
    sources = {
        "a": (
            "@memoized\ndef kept(d): pass\n"
            "@wraps\ndef wrapped(d): pass\n"
            "class Box:\n"
            "    @memoized\n"
            "    def held(self, i): pass\n"
            "    def plain(self): pass\n"
        ),
    }
    assert decorated_definitions(sources, "memoized") == ["a:kept", "a:Box.held"]


# Each memoized definition, with the caller or workload that reads its value
# a second time on one object: a value read once is recomputed, not kept.
MEMO_READERS = {
    "complexes:FreeChainComplex._factors": (
        "homology_at reads each differential's factors from both of its ends, and "
        "dual_middle_homology reads those of d1 and d2 again"
    ),
    "complexes:_pair_difference_columns": (
        "homology_complex, and the matching check of every H2DualRep built"
    ),
    "complexes:homology_complex": (
        "homology_groups, dual_middle_homology and the degree-two basis coordinates"
    ),
    "complexes:homology_groups": "hodge_diamond, betti_numbers and the CLI commands",
    "complexes:dual_middle_homology": "the bench's requery of each queried diagram",
    "complexes:hodge_diamond": "cohomology_groups beside it in the CLI, and the bench's requery",
    "pairings:_curve_gram_schmidt": "the reduction of every lift along system lam",
    "pairings:_h2_basis_coords": (
        "intersection_form, h2_basis_cocycles, dual_rep_basis and cocycle_from_dual_rep"
    ),
    "pairings:intersection_form": "_gram_echelon, and the bench's requery",
    "pairings:triple_intersection": "every pairing_h3_h1 call, and h1_basis",
    "pairings:_gram_echelon": "every c1_difference call after the first, as in the bench's requery",
    "spin:_solution_space": "spin_count beside enumerate_spin, and the bench's requery",
}


def test_every_memoized_definition_has_a_second_reader():
    found = decorated_definitions(SOURCES, "memoized")
    assert sorted(set(found) - set(MEMO_READERS)) == []
    assert sorted(set(MEMO_READERS) - set(found)) == []


def test_cached_property_detector():
    sources = {
        "a": (
            "import functools\n"
            "class Box:\n"
            "    @cached_property\n"
            "    def held(self): pass\n"
            "    @functools.cached_property\n"
            "    def dotted(self): pass\n"
            "    @property\n"
            "    def plain(self): pass\n"
            "    class Inner:\n"
            "        @cached_property\n"
            "        def nested(self): pass\n"
        ),
        "b": "class Other:\n    @cached_property\n    def _private(self): pass\n",
    }
    found = decorated_definitions(sources, "cached_property")
    assert found == ["a:Box.held", "a:Box.dotted", "b:Other._private"]


# Each cached_property, with the caller or workload that reads its value a
# second time on one object, or the reason it is cached though read once.
CACHED_READERS = {
    "complexes:FreeChainComplex.diffs": (
        "a public view built only on first read: the bench's lattice replay and the "
        "test oracles read the matrices, no package path does"
    ),
    "diagram:TrisectionDiagram._curve_pairings": (
        "_intersection_matrices, validate's isotropy checks, and every H2DualRep.from_lifts"
    ),
    "diagram:TrisectionDiagram._curve_echelons": (
        "validate's primitivity checks, the pair difference columns, cocycle "
        "coordinates and every _reduced_lift"
    ),
    "diagram:TrisectionDiagram._intersection_matrices": (
        "validate's pair checks, the pair difference columns, homology_complex, "
        "_beta_pairings and triple_intersection"
    ),
    "diagram:TrisectionDiagram.validation": "ensure_valid before every query, and k_values",
    "diagram:ValidationReport.is_valid": "ensure_valid on every query, and the CLI's validate frame",
    "lattice:Subgroup.basis": (
        "a public read-only matrix built only on first read: the bench's lattice "
        "replay reads it for every canonical span, no package path does"
    ),
    "lattice:Subgroup._entries": "every coordinates_of and contains call on the subgroup",
    "pairings:OneOneCocycle.blocks": (
        "b1, b2 and b3, read in turn by the CLI's cocycle frames and the bench's census check"
    ),
    "pairings:H2DualRep.lifts": (
        "the bench's census check, which reads reps[0].lifts once per basis cocycle"
    ),
}


def test_every_cached_property_has_a_second_reader():
    found = decorated_definitions(SOURCES, "cached_property")
    assert sorted(set(found) - set(CACHED_READERS)) == []
    assert sorted(set(CACHED_READERS) - set(found)) == []
