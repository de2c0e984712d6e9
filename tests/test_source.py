"""Source-level rules that the test suite enforces on the package."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "glspaths"


def test_no_assert_statements_in_the_package():
    # invariants must raise typed exceptions: python -O strips asserts
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _decorator_name(node):
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_no_module_level_caches_in_the_package():
    # caches live per context in its orbit table, so a dropped context frees them
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [_decorator_name(d) for d in node.decorator_list]
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [alias.name for alias in node.names]
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in ("cache", "lru_cache")]
    assert found == []


def test_no_module_imports_random():
    # every check runs on a whole truncation, so the suite's report and every
    # other output depend on their inputs alone
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {m}" for m in modules
                      if m.split(".")[0] == "random"]
    assert found == []


def test_the_path_oracle_uses_nothing_of_the_gls_side():
    # paths.py is the brute-force reference the closed forms are checked
    # against: it may use rootdata weights, never the GLS kernel, the orbit
    # table or the crystal layer built on them
    text = (SOURCE / "paths.py").read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            imported |= {part for alias in node.names for part in alias.name.split(".")}
        elif isinstance(node, ast.ImportFrom):
            imported |= set((node.module or "").split("."))
            imported |= {alias.name for alias in node.names}
    assert imported and not imported & {"gls", "torbit", "crystals"}
    assert "orbit_table" not in text


# the functions of paths.py that turn times into Fractions or back: the
# public entry points, the points view, the crossings of the forward scan
# (the backward one runs it on the reversed profile) and the HProfile fields
FRACTION_BOUNDARY = {"from_points", "points", "value_at", "concatenate",
                     "first_time_at", "h_profile"}


def _fraction_calls(node, owner=None):
    """(function, line) of every call of Fraction under node, named by its
    innermost enclosing function (None at module level)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Fraction":
        yield owner, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _fraction_calls(child, owner)


def test_the_path_operators_run_on_ints():
    # the ambient operators bisect, scan, interpolate and test corners on
    # int time numerators; a Fraction is made only at the boundary
    tree = ast.parse((SOURCE / "paths.py").read_text(encoding="utf-8"))
    calls = list(_fraction_calls(tree))
    assert {owner for owner, _ in calls} <= FRACTION_BOUNDARY, calls
    assert {owner for owner, _ in calls} == FRACTION_BOUNDARY  # the list stays current


# the functions of gls.py that make Fractions: the breaks built on first read
# (GLSPath.__getattr__), the level of a failing pair in verify_gls, the
# straight path and the joining entry point
GLS_FRACTION_BOUNDARY = {"__getattr__", "verify_gls", "linear", "properly_join"}


def test_the_gls_operators_run_on_ints():
    # the closed-form operators find their zone and build their result on
    # int break numerators, without the Fraction crossings of paths.py
    tree = ast.parse((SOURCE / "gls.py").read_text(encoding="utf-8"))
    calls = list(_fraction_calls(tree))
    assert {owner for owner, _ in calls} == GLS_FRACTION_BOUNDARY, calls
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert not imported & {"first_time_at", "last_time_at"}


def _chain_table_uses(tree, module):
    """(module, function, load or store) of every ``.chains`` under tree that is not the
    chain list of a GLSVerification, a name bound to a verify_gls call in its function."""
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        verifications = {target.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
                         and isinstance(node.value, ast.Call)
                         and getattr(node.value.func, "id", None) == "verify_gls"
                         for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(fn):
            if (isinstance(node, ast.Attribute) and node.attr == "chains"
                    and getattr(node.value, "id", None) not in verifications):
                yield module, fn.name, type(node.ctx).__name__


def test_only_find_a_chain_reads_the_chain_memo():
    # the orbit table's a-chain memo has one entry point, keyed by ints: the table
    # makes it, and torbit.find_a_chain reads and fills it
    uses = sorted(use for path in sorted(SOURCE.glob("*.py"))
                  for use in _chain_table_uses(ast.parse(path.read_text(encoding="utf-8")),
                                               path.stem))
    assert uses == [("rootdata", "__init__", "Store"), ("torbit", "find_a_chain", "Load")]


def test_crystal_elements_dispatch_by_method_not_by_type():
    # every crystal element answers wt/epsilon/f/e/key itself, so the crystal
    # layer never branches on the type of an element
    tree = ast.parse((SOURCE / "crystals.py").read_text(encoding="utf-8"))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"]
    assert found == []


def test_only_rootdata_reads_the_weight_layout():
    # a weight is a dense vector over its context's basis: other modules use
    # its arithmetic, pair and combination, never den or nums, and every
    # weight is made through a context (ctx.weight, alpha, base, rho)
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name != "rootdata.py":
            found += [f"{path.name}:{node.lineno} reads .{node.attr}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr in ("den", "nums")]
        names = [(node.lineno, node.name) for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        names += [(node.lineno, target.id) for node in tree.body if isinstance(node, ast.Assign)
                  for target in node.targets if isinstance(target, ast.Name)]
        names += [(node.lineno, name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  for alias in node.names for name in (alias.name, alias.asname)]
        found += [f"{path.name}:{line} binds {name}" for line, name in names
                  if name in ("weight", "alpha")]
    assert found == []


KERNEL = ("rootdata", "torbit", "paths", "gls", "crystals", "character")


def _trees(paths):
    return [ast.parse(path.read_text(encoding="utf-8")) for path in paths]


def _literal(node):
    """The value of a literal expression, or a fresh object (equal to no
    other value) for an expression that is not a literal."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return object()


def _defaulted_parameters(tree):
    """(name, parameter, position or None, default value) of every defaulted
    parameter; a method's position excludes self, and __init__ is named by its
    class."""
    found = []
    for owner in ast.walk(tree):
        body = owner.body if isinstance(owner, (ast.Module, ast.ClassDef)) else []
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = owner.name if node.name == "__init__" else node.name
            positional = node.args.posonlyargs + node.args.args
            skip = 1 if isinstance(owner, ast.ClassDef) and not any(
                _decorator_name(d) == "staticmethod" for d in node.decorator_list) else 0
            first = len(positional) - len(node.args.defaults)
            found += [(name, arg.arg, k - skip, _literal(default)) for k, (arg, default)
                      in enumerate(zip(positional[first:], node.args.defaults), start=first)]
            found += [(name, arg.arg, None, _literal(default)) for arg, default
                      in zip(node.args.kwonlyargs, node.args.kw_defaults) if default]
    return found


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default is an option: the calls in the package and the tests must
    # use it with at least two values, a call that omits it counting as
    # passing the default and a non-literal argument as a value of its own;
    # an option with one value in use is folded into the code instead, and
    # a default that no call omits is no option: the parameter is required
    trees = _trees(SOURCE.glob("*.py")) + _trees(Path(__file__).parent.glob("*.py"))
    calls = {}
    for call in (node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)):
        calls.setdefault(_decorator_name(call), []).append(call)
    one_valued, never_omitted = [], []
    for tree in _trees(SOURCE / f"{module}.py" for module in KERNEL + ("checks", "cli")):
        for name, param, k, default in _defaulted_parameters(tree):
            values, omitted = [], False
            for call in calls.get(name, []):
                given = [kw.value for kw in call.keywords if kw.arg == param]
                if k is not None and k < len(call.args):
                    given.append(call.args[k])
                values.append(_literal(given[0]) if given else default)
                omitted = omitted or not given
            if not any(v != values[0] for v in values[1:]):
                one_valued.append(f"{name}({param})")
            if not omitted:
                never_omitted.append(f"{name}({param})")
    assert one_valued == []
    assert never_omitted == []


def _bound_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((a.asname or a.name, node.lineno) for a in node.names)


# apply_e is pinned as a binding of gls and crystals by perfbench's
# test_wraps_every_binding_site_and_restores_it; ROADMAP item 5 drops both
UNUSED_IMPORTS_ALLOWED = {("gls.py", "apply_e"), ("crystals.py", "apply_e")}


def test_no_module_imports_a_name_it_never_uses():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":  # the package's re-exports
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in _bound_names(tree)
                  if name not in read and (path.name, name) not in UNUSED_IMPORTS_ALLOWED]
    assert found == []


def test_crystal_graph_readers_take_no_context():
    # a built graph carries its context: a reader takes the graph alone and
    # reads graph.ctx, so it cannot be handed a context the graph was not
    # built over
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                if {"graph", "ctx"} <= params:
                    found.append(f"{path.name}:{node.lineno} {node.name}")
    assert found == []
