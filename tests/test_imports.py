"""Hygiene of the package sources: no unused imports, no dead private
helpers, no function that nothing calls, no hand-rolled keyed cache beside
an object's one store, no process-wide caches, no import-time state that
keeps an old copy of the package alive, no variable name built outside
``polyalg``, and no reader of a polynomial's stored numerators and
denominator outside it.  Stdlib only, so it runs wherever
the tests do."""

import ast
import gc
import importlib
import re
import sys
import textwrap
import weakref
from pathlib import Path

from cochainlab.polyalg import FAMILIES

SRC = Path(__file__).resolve().parent.parent / "src" / "cochainlab"


def unused_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    problems = [p for path in sorted(SRC.glob("*.py")) for p in unused_imports(path)]
    assert problems == []


def dead_private_names(paths):
    """Module-level private names (``_x``, not dunders) that no module of the
    package references: leftovers of a deleted code path."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    defined = {}
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{path.name}:{node.lineno}"
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return [f"{where}: {name}" for name, where in defined.items() if name not in referenced]


def test_no_dead_private_helpers():
    assert dead_private_names(sorted(SRC.glob("*.py"))) == []


#: Functions and methods that nothing in ``src`` calls, kept anyway, with
#: the reason.
UNCALLED_EXEMPT = {
    "CEElement.basis": "README's API sketch",
    "collate": "README's API sketch",
    "winding_cocycle": "README's API sketch",
    "circle_integrate": "README's API sketch",
    "ve_zigzag": "the zig-zag form of VE that the acceptance criteria compare with ve_closed",
    "r_zigzag": "the zig-zag form of R that the acceptance criteria compare with r_closed",
}


def uncalled_functions(paths):
    """Functions and methods, dunders and ``main`` aside, that no module of
    the package references: a function through a loaded name, a method
    through an attribute access of its name.  An import is no call: one that
    nothing else uses is an export of ``__init__``, which keeps dead code
    alive.  Code only tests call belongs beside those tests."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    defined = {}
    for path, tree in trees.items():
        owner = {node: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                node.name == "main" or node.name.startswith("__") and node.name.endswith("__")
            ):
                qualified = f"{owner[node]}.{node.name}" if node in owner else node.name
                defined[f"{path.name}:{node.lineno}: {qualified}"] = (node.name, node in owner)
    names, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return [where for where, (name, method) in defined.items()
            if name not in (attributes if method else names)]


def test_every_src_function_has_a_caller():
    problems = [where for where in uncalled_functions(sorted(SRC.glob("*.py")))
                if where.rsplit(" ", 1)[-1] not in UNCALLED_EXEMPT]
    assert problems == []


def test_the_guards_report_a_planted_violation(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import exported, used\n",
                                          encoding="utf-8")
    mod = tmp_path / "mod.py"
    mod.write_text(textwrap.dedent("""\
        import json


        def _dead():
            pass


        def helper():
            pass


        def used():
            return Box().size()


        def exported():
            return used()


        class Box:
            def __init__(self):
                self.n = 0

            def size(self):
                return self.n

            def uncalled(self):
                return self.n
        """), encoding="utf-8")
    paths = sorted(tmp_path.glob("*.py"))
    assert unused_imports(mod) == ["mod.py:1: json"]
    assert dead_private_names(paths) == ["mod.py:4: _dead"]
    assert uncalled_functions(paths) == [
        "mod.py:4: _dead", "mod.py:8: helper", "mod.py:16: exported", "mod.py:27: Box.uncalled"]
    store = tmp_path / "store.py"
    store.write_text(textwrap.dedent("""\
        from functools import cached_property


        class Group:
            @cached_property
            def _faces(self):
                \"""Faces by degree.\"""
                return dict()

            @cached_property
            def frame(self):
                return {0: 1}
        """), encoding="utf-8")
    assert keyed_caches(store) == ["store.py:6: Group._faces"]


#: ``cached_property`` stores of keyed structure, with the reason.
KEYED_STORE_EXEMPT = {
    "PolyGroup._built": "the one store of a group's keyed structure, filled by _once",
}


def keyed_caches(path: Path):
    """``cached_property`` methods whose body, a docstring aside, only
    returns an empty dict: a hand-rolled cache keyed by the method's
    arguments, beside the one store an object keeps."""
    problems = []
    for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if not isinstance(item, ast.FunctionDef) or not any(
                getattr(d, "id", getattr(d, "attr", None)) == "cached_property"
                for d in item.decorator_list
            ):
                continue
            body = item.body[1:] if ast.get_docstring(item) is not None else item.body
            value = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None
            if (isinstance(value, ast.Dict) and not value.keys
                    or isinstance(value, ast.Call) and getattr(value.func, "id", None) == "dict"
                    and not value.args and not value.keywords):
                problems.append(f"{path.name}:{item.lineno}: {cls.name}.{item.name}")
    return problems


def test_no_hand_rolled_keyed_caches():
    # Structure built per key goes through one store per object.
    problems = [p for path in sorted(SRC.glob("*.py")) for p in keyed_caches(path)
                if p.rsplit(" ", 1)[-1] not in KEYED_STORE_EXEMPT]
    assert problems == []


#: Module-level values that a function could fill as a process-wide cache.
MUTABLE_VALUES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
MUTABLE_FACTORIES = {"dict", "list", "set", "defaultdict", "OrderedDict",
                     "WeakKeyDictionary", "WeakValueDictionary"}
MUTATORS = {"__setitem__", "add", "append", "clear", "extend", "insert", "pop",
            "popitem", "setdefault", "update"}


def global_caches(path: Path):
    """``functools.cache``/``lru_cache`` uses, ``global`` statements, and
    module-level containers that a function writes to: state that outlives
    the objects it was computed from."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    where = f"{path.name}:"
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names = [a.name for a in node.names]
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
            names = [node.attr]
        else:
            continue
        problems += [f"{where}{node.lineno}: functools.{n}" for n in names
                     if n in ("cache", "lru_cache")]
    containers = set()
    for node in tree.body:
        value = getattr(node, "value", None)
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
            isinstance(value, MUTABLE_VALUES)
            or isinstance(value, ast.Call)
            and getattr(value.func, "id", getattr(value.func, "attr", None)) in MUTABLE_FACTORIES
        ):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            containers.update(t.id for t in targets if isinstance(t, ast.Name))
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                problems += [f"{where}{node.lineno}: global {n}" for n in node.names]
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                if getattr(node.value, "id", None) in containers:
                    problems.append(f"{where}{node.lineno}: writes {node.value.id}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if (getattr(node.func.value, "id", None) in containers
                        and node.func.attr in MUTATORS):
                    problems.append(f"{where}{node.lineno}: writes {node.func.value.id}")
    return problems


def test_no_process_wide_caches():
    # Derived structure is cached on the object it belongs to, so it lives
    # and dies with that object.
    problems = [p for path in sorted(SRC.glob("*.py")) for p in global_caches(path)]
    assert problems == []


#: The protocol methods that ``polyalg.Linear`` implements once for every
#: cochain and payload class.
LINEAR_METHODS = {"__setattr__", "__hash__", "__sub__", "__rmul__", "__eq__"}
#: Classes that define them anyway, with the reason.
LINEAR_EXEMPT = {
    "Linear": "the base that implements them",
    "MultiPoly": "the ring element, not a cochain: it is hashable, and its"
                 " arithmetic takes constant operands",
}


#: Classes that define ``_shape``, which the base reads off the fields
#: before the data, with the reason.
SHAPE_EXEMPT = {
    "Linear": "the base that reads the shape off the fields",
    "Vec": "its entries have a length",
    "PwPoly": "its cells have a domain",
    "GlobalForm": "its coefficient function has a grid and a domain",
}


def protocol_redefinitions(path: Path, methods=LINEAR_METHODS, exempt=LINEAR_EXEMPT):
    """Classes other than the ``exempt`` ones that define one of ``methods``,
    by ``def`` or by assignment (``__rmul__ = __mul__``)."""
    problems = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ClassDef) or node.name in exempt:
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, ast.Assign):
                names = [t.id for t in item.targets if isinstance(t, ast.Name)]
            else:
                continue
            problems += [f"{path.name}:{item.lineno}: {node.name}.{n}"
                         for n in names if n in methods]
    return problems


def test_no_class_reimplements_the_linear_protocol():
    problems = [p for path in sorted(SRC.glob("*.py")) for p in protocol_redefinitions(path)]
    assert problems == []


def test_only_data_with_a_shape_of_its_own_extends_the_shape():
    # A cochain's shape is its fields: its space beside its degree.
    problems = [p for path in sorted(SRC.glob("*.py"))
                for p in protocol_redefinitions(path, {"_shape"}, SHAPE_EXEMPT)]
    assert problems == []


def _package_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "cochainlab" or name.startswith("cochainlab.")}


def _purge_package():
    for name in _package_modules():
        del sys.modules[name]


def _fresh_class_ref():
    """A weak reference to ``MultiPoly`` of a freshly imported package."""
    _purge_package()
    return weakref.ref(importlib.import_module("cochainlab").polyalg.MultiPoly)


def test_reimport_frees_the_old_package():
    # A benchmark pass re-imports the package; the copy it drops must be
    # freed, not pinned by import-time state such as typing's caches.
    saved = _package_modules()
    try:
        ref = _fresh_class_ref()
        _purge_package()
        importlib.import_module("cochainlab")
        gc.collect()
        assert ref() is None
    finally:
        _purge_package()
        sys.modules.update(saved)


def package_classes(paths):
    return {node.name for path in paths
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ClassDef)}


def import_time_subscripts(path: Path, classes):
    """Subscriptions ``X[...]`` evaluated at import time, outside function
    bodies and (postponed) annotations, that name a package class: a
    ``typing`` alias such as ``Tuple[MultiPoly]`` caches the class in a
    process-wide table, which then keeps every imported copy alive."""
    problems = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # only the decorators and defaults run at import time
            args = node.args
            run = args.defaults + [d for d in args.kw_defaults if d is not None]
            run += getattr(node, "decorator_list", [])
        elif isinstance(node, ast.AnnAssign):
            run = [node.value] if node.value is not None else []
        else:
            run = list(ast.iter_child_nodes(node))
            if isinstance(node, ast.Subscript):
                names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                problems.extend(f"{path.name}:{node.lineno}: {name}"
                                for name in sorted(names & classes))
                return
        for child in run:
            visit(child)

    visit(ast.parse(path.read_text(encoding="utf-8")))
    return problems


def test_no_import_time_subscript_of_a_package_class():
    paths = sorted(SRC.glob("*.py"))
    classes = package_classes(paths)
    assert "MultiPoly" in classes
    problems = [p for path in paths for p in import_time_subscripts(path, classes)]
    assert problems == []


#: The literal head of a hand-built variable name: a family's prefix, with
#: the slot and the ``_`` of a coordinate that may follow it (``f"g{i}_{j}"``,
#: ``f"g1_{j}"``, ``f"y_{j}"``, ``f"t{i}"``).
NAME_HEAD = re.compile(rf"[{''.join(FAMILIES)}]\d*_?\Z")


def hand_built_names(path: Path):
    """f-strings whose literal head is a variable family's prefix, and
    ``+`` concatenations onto one: variable names built outside
    ``polyalg``, which alone names and parses them."""
    problems = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.JoinedStr):
            head = node.values[0] if node.values else None
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            head = node.left
        else:
            continue
        if isinstance(head, ast.Constant) and NAME_HEAD.match(str(head.value)):
            problems.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    return problems


def test_only_polyalg_builds_variable_names():
    problems = [p for path in sorted(SRC.glob("*.py")) if path.name != "polyalg.py"
                for p in hand_built_names(path)]
    assert problems == []


#: ``MultiPoly``'s storage: integer numerators over one denominator, which
#: the kernel alone keeps in lowest terms, keyed by packed monomials, which
#: the kernel alone packs and unpacks (field width, pack and unpack).
KERNEL_PRIVATE_NAMES = {"_num", "_den", "_FIELD", "_FIELD_MASK", "_pack", "_unpack"}


def coefficient_storage_uses(path: Path):
    """Attribute accesses, imports, names and string constants (as in
    ``getattr`` calls) naming a field or helper of ``MultiPoly``'s
    storage."""
    problems = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        problems += [f"{path.name}:{node.lineno}: {name}" for name in names
                     if name in KERNEL_PRIVATE_NAMES]
    return problems


def test_only_polyalg_touches_coefficient_storage():
    assert coefficient_storage_uses(SRC / "polyalg.py")
    problems = [p for path in sorted(SRC.glob("*.py")) if path.name != "polyalg.py"
                for p in coefficient_storage_uses(path)]
    assert problems == []
