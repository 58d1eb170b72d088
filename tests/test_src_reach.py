"""src/ holds only what its callers reach.

A top-level public name of crystal_lr that nothing the CLI runs refers to
belongs in the tests, unless a stated reason keeps it in src/.  This
guard keeps those reasons in one explicit list, so that every new
exception shows up in review.  A private top-level name must be reached
from the console script or from an allowed name, so no helper outlives
its last caller.  A last guard keeps private names private: no module of
crystal_lr takes a `_name` from another one.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "crystal_lr"

ALLOWED = {
    # the crystal-lr console script
    "cli.main",
    # the genlr oracle of the benchmark's queries workload
    "characters.branch_split",
    # wrapped by the benchmark; the reference for the cap operators
    "matrices.rho_transpose", "matrices.rho_inverse",
    # the paper's duality tools, waiting for a verify check that reads them
    "matrices.MayaRow", "matrices.maya_weight", "matrices.maya_lower",
    "matrices.maya_raise", "matrices.maya_weight_total",
    "matrices.embed_sigma", "matrices.embed_tau", "matrices.dual",
    "matrices.row_reverse", "crystal.dual_word", "crystal.hw_weight",
}


def _definitions(tree):
    """Top-level name -> defining statement."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = node
    return out


def _imports(tree):
    """Module aliases ({alias: module}) and imported names ({name: (module,
    name)}) bound by the relative imports of a module."""
    modules, names = {}, {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound = alias.asname or alias.name
                if node.module is None:
                    modules[bound] = alias.name
                else:
                    names[bound] = (node.module, alias.name)
    return modules, names


def reference_graph():
    """Top-level names of crystal_lr ({(module, name)}) and what each
    definition references ({(module, name): {(module, name)}}).

    A reference is a bare name resolved in its module (its own definitions,
    then its `from .mod import name` bindings) or `mod.name` through a
    `from . import mod` alias; a definition does not reference itself.
    Only definitions refer, so the `__main__` guard does not."""
    defined, refs = set(), {}
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        tree = ast.parse(path.read_text())
        defs = _definitions(tree)
        modules, names = _imports(tree)
        defined |= {(mod, name) for name in defs}
        for name, node in defs.items():
            out = refs[(mod, name)] = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id in defs:
                    out.add((mod, sub.id))
                elif isinstance(sub, ast.Name) and sub.id in names:
                    out.add(names[sub.id])
                elif (isinstance(sub, ast.Attribute)
                      and isinstance(sub.value, ast.Name)
                      and sub.value.id in modules):
                    out.add((modules[sub.value.id], sub.attr))
            out.discard((mod, name))
    return defined, refs


def reached_from(roots, refs):
    """The definitions reached from roots by following references."""
    reached, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            todo.extend(refs.get(key, ()))
    return reached


def unreferenced_public_names():
    """Public top-level names that no definition reached from the console
    script (cli.main) references."""
    defined, refs = reference_graph()
    public = {key for key in defined if not key[1].startswith("_")}
    reached = reached_from([("cli", "main")], refs)
    referenced = set().union(*(refs.get(key, ()) for key in reached))
    return {"%s.%s" % key for key in public - referenced}


def test_only_allowed_names_are_unreferenced():
    found = unreferenced_public_names()
    assert found == ALLOWED, (
        "unreferenced but not allowed: %s; allowed but referenced: %s"
        % (sorted(found - ALLOWED), sorted(ALLOWED - found)))


def unreached_private_names():
    """Private top-level names that nothing reached from the console script
    or from an allowed name references: helpers left behind when their
    last caller went."""
    defined, refs = reference_graph()
    roots = [("cli", "main")] + [tuple(n.split(".")) for n in ALLOWED]
    reached = reached_from(roots, refs)
    return {"%s.%s" % key for key in defined - reached
            if key[1].startswith("_") and not key[1].startswith("__")}


def test_every_private_name_is_reached():
    assert unreached_private_names() == set()


def foreign_private_references():
    """`_name`s that a module of crystal_lr takes from another one, through
    `from .mod import _name` or `mod._name` on a `from . import mod` alias."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules, names = _imports(tree)
        used = set(names.values())
        used |= {(modules[sub.value.id], sub.attr) for sub in ast.walk(tree)
                 if isinstance(sub, ast.Attribute)
                 and isinstance(sub.value, ast.Name)
                 and sub.value.id in modules}
        found |= {"%s uses %s.%s" % (path.stem, mod, name)
                  for mod, name in used
                  if name.startswith("_") and not name.startswith("__")}
    return found


def test_no_module_uses_another_modules_private_names():
    assert foreign_private_references() == set()
