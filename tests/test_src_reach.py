"""src/ holds only what its callers reach.

A top-level public name of crystal_lr that nothing the CLI runs refers to
belongs in the tests, unless a stated reason keeps it in src/.  This
guard keeps those reasons in one explicit list, so that every new
exception shows up in review, and every entry but the console script
must be named by the benchmark; the paper's duality tools, which no verify
suite reads, live in the test fixtures of tests/duality.py for that
reason.  A private top-level name must be reached from the console script
or from an allowed name, so no helper outlives its last caller.  A
parameter with a default must be passed by some call in src/ or perfbench/,
so no option exists only for the tests.  Another keeps private names
private: no module of crystal_lr takes a `_name` from another one.  A last
one keeps the closed forms of lr_engine apart from the crystal kernel that
its census, their oracle, walks.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "crystal_lr"
PERFBENCH = SRC.parent.parent / "perfbench"

ALLOWED = {
    # the crystal-lr console script, the root every other name is reached
    # from
    "cli.main",
    # the oracle of the benchmark's genlr queries, which perfbench calls
    "characters.branch_split",
    # wrapped by the benchmark's tracer; the reference that the cap
    # operators' docstrings and tests conjugate by
    "matrices.rho_transpose", "matrices.rho_inverse",
    # wrapped by the benchmark's tracer
    "crystal.phi",
    # wrapped by the benchmark's tracer; the oracle of the tests'
    # `_word_step`, itself the oracle of the byte-coded steps
    "crystal.raise_word", "crystal.lower_word",
    # called by the benchmark's commutation items and wrapped by its tracer;
    # the oracles of `code_step`
    "matrices.matrix_lower", "matrices.matrix_raise", "matrices.cap_lower",
    "matrices.cap_raise",
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
    name)}) bound by the relative imports of a module, the ones inside its
    functions included (cli imports each engine in the command that uses
    it)."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound = alias.asname or alias.name
                if node.module is None:
                    modules[bound] = alias.name
                else:
                    names[bound] = (node.module, alias.name)
    return modules, names


def _bound(node):
    """Names a definition binds inside itself: the parameters of its
    functions and lambdas, and every store target (assignments, loops,
    comprehensions)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.arg):
            out.add(sub.arg)
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
    return out


def reference_graph():
    """Top-level names of crystal_lr ({(module, name)}) and what each
    definition references ({(module, name): {(module, name)}}).

    A reference is a bare name resolved in its module (its own definitions,
    then its `from .mod import name` bindings) or `mod.name` through a
    `from . import mod` alias; a definition does not reference itself, and
    a name it binds inside itself (a parameter or a local) is not a
    reference to the top-level name it shadows.
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
            bound = _bound(node)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id in bound:
                    continue
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


def _benchmark_files():
    """The non-test files of perfbench/."""
    return [p for p in sorted(PERFBENCH.glob("*.py"))
            if not p.name.startswith("test_")]


def benchmark_references():
    """Every `module.name` that the benchmark names, as an attribute of a
    bare name (`matrices.cap_lower`) or as a string ("crystal.phi")."""
    found = set()
    for path in _benchmark_files():
        for sub in ast.walk(ast.parse(path.read_text())):
            if (isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)):
                found.add("%s.%s" % (sub.value.id, sub.attr))
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                found.add(sub.value)
    return found


def test_every_allowed_name_is_referenced_by_the_benchmark():
    # once perfbench stops naming an allowed function, its entry goes
    assert sorted(ALLOWED - {"cli.main"} - benchmark_references()) == []


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


def _defaults(fn):
    """{parameter: position or None} for the parameters of fn that have a
    default; None marks a keyword-only one."""
    args = fn.args.posonlyargs + fn.args.args
    out = {a.arg: i for i, a in
           enumerate(args) if i >= len(args) - len(fn.args.defaults)}
    out.update((a.arg, None) for a, d in
               zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None)
    return out


def _program_calls():
    """(callee name, positional count, keyword names) for every call in src/
    and in the non-test files of perfbench/; the callee is matched by its
    bare or attribute name.  A *args call passes every position, a
    **kwargs call every keyword."""
    for path in sorted(SRC.glob("*.py")) + _benchmark_files():
        for sub in ast.walk(ast.parse(path.read_text())):
            if not isinstance(sub, ast.Call):
                continue
            if isinstance(sub.func, ast.Name):
                name = sub.func.id
            elif isinstance(sub.func, ast.Attribute):
                name = sub.func.attr
            else:
                continue
            starred = any(isinstance(a, ast.Starred) for a in sub.args)
            yield (name, float("inf") if starred else len(sub.args),
                   {kw.arg for kw in sub.keywords})


def unpassed_defaults():
    """`module.function.parameter` for every defaulted parameter of a
    top-level function of crystal_lr that no call in src/ or perfbench/
    passes, by position or by keyword."""
    calls = {}
    for name, npos, keys in _program_calls():
        calls.setdefault(name, []).append((npos, keys))
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef):
                continue
            for param, pos in _defaults(node).items():
                if not any(param in keys or None in keys
                           or (pos is not None and npos > pos)
                           for npos, keys in calls.get(node.name, ())):
                    found.add("%s.%s.%s" % (path.stem, node.name, param))
    return found


def test_every_default_is_set_by_a_program_caller():
    assert unpassed_defaults() == set()


# the closed forms of lr_engine: what the CLI answers and verify predicts
CLOSED_FORMS = ["ExtremalClass", "level0_product", "hw_product",
                "pieri_column", "hw_past_level0", "extremal_lr",
                "expr_decompose", "parse_tensor_expr",
                "decomposition_to_json"]
# the census, the closed forms' oracle, and the key it is printed by
CENSUS = {"_window_census", "_weight_key"}


def kernel_users(roots=None):
    """Definitions of lr_engine that name `crystal` or `Weight`; with roots,
    only those reached from roots by references inside lr_engine."""
    tree = ast.parse((SRC / "lr_engine.py").read_text())
    defs = _definitions(tree)
    if roots is not None:
        _, refs = reference_graph()
        local = {key: {r for r in out if r[0] == "lr_engine"}
                 for key, out in refs.items() if key[0] == "lr_engine"}
        defs = {name: defs[name] for _, name in
                reached_from([("lr_engine", r) for r in roots], local)}
    return {name for name, node in defs.items()
            for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and sub.id in ("crystal", "Weight")}


def test_closed_forms_do_not_reach_the_crystal_kernel():
    # an oracle must not share the kernel it checks: a closed form that
    # counted tableaux with crystal.enumerate_sst would agree with the census
    # by construction
    assert kernel_users(CLOSED_FORMS) == set()
    assert kernel_users() == CENSUS
