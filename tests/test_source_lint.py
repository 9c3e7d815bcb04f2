"""Static checks over the library source."""

import ast
import pathlib
from collections import defaultdict

import dwlab
from dwlab.harness import EXPERIMENTS

SRC = pathlib.Path(dwlab.__file__).parent
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
# the deterministic experiments take the harness's uniform ``seed`` and
# draw nothing from it
UNREAD_ALLOWED = {("harness/experiments.py", "exp_ad_nec", "seed"),
                  ("harness/experiments.py", "exp_cex_b", "seed")}


def _unread_parameters(tree):
    """(function name, parameter) for every function or lambda parameter
    that its body never loads; nested scopes count as the body."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            continue
        a = fn.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        name = getattr(fn, "name", "<lambda>")
        for p in params:
            if p is not None and p.arg not in read:
                yield name, p.arg


def test_every_parameter_is_read():
    unread = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for name, arg in _unread_parameters(ast.parse(path.read_text())):
            if (rel, name, arg) not in UNREAD_ALLOWED:
                unread.append(f"{rel}:{name}({arg})")
    assert unread == []


# set only through EXPERIMENTS[name](seed=...) and by the console entry
# point, which calls main() and lets argparse read sys.argv
UNSET_ALLOWED = ({("cli.py", "main", "argv")}
                 | {("harness/experiments.py", fn.__name__, "seed")
                    for fn in EXPERIMENTS.values()})


def _defaults(fn, skip):
    """(parameter, positional slot or None) for each parameter of ``fn``
    with a default; the first ``skip`` slots (self, cls) drop."""
    a = fn.args
    pos = [*a.posonlyargs, *a.args][skip:]
    first = len(pos) - len(a.defaults)
    for i, arg in enumerate(pos[first:], start=first):
        yield arg.arg, i
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _keyword_parameters(tree):
    """(callee name, function, skipped slots) of every public
    module-level function and public method of a public class; a class
    is called by its own name for __init__."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name[0] != "_":
            yield node.name, node, 0
        elif isinstance(node, ast.ClassDef) and node.name[0] != "_":
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in fn.decorator_list)
                if fn.name == "__init__":
                    yield node.name, fn, 1
                elif fn.name[0] != "_":
                    yield fn.name, fn, 0 if static else 1


def _settings(trees):
    """Callee name -> (most positional arguments, keyword names) over
    every call; a function passed on with its arguments, as in
    ops.run(name, fn, *args, **kwargs), counts as called with them, and
    a *args or **kwargs argument sets every slot."""
    npos, names = defaultdict(int), defaultdict(set)
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            targets = [(call.func, call.args)] + [
                (arg, call.args[i + 1:]) for i, arg in enumerate(call.args)]
            for fn, args in targets:
                name = getattr(fn, "id", getattr(fn, "attr", None))
                if name is None:
                    continue
                starred = any(isinstance(a, ast.Starred) for a in args)
                npos[name] = max(npos[name],
                                 float("inf") if starred else len(args))
                names[name] |= {k.arg or "**" for k in call.keywords}
    return npos, names


def test_every_keyword_parameter_is_set():
    # the benchmark's calls set keyword parameters too; without them the
    # unset list below would be wrong rather than empty
    assert PERFBENCH.is_dir(), f"no benchmark folder at {PERFBENCH}"
    callers = [*SRC.rglob("*.py"), *PERFBENCH.glob("*.py")]
    npos, names = _settings(ast.parse(p.read_text()) for p in callers)
    unset = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for callee, fn, skip in _keyword_parameters(ast.parse(
                path.read_text())):
            for arg, slot in _defaults(fn, skip):
                if (arg in names[callee] or "**" in names[callee]
                        or (slot is not None and npos[callee] > slot)
                        or (rel, fn.name, arg) in UNSET_ALLOWED):
                    continue
                unset.append(f"{rel}:{callee}({arg})")
    assert unset == []


def _top_level_references(tree):
    """(top-level statement index, name) for every name the statement
    reads: loaded names, attribute names and imported names."""
    for i, stmt in enumerate(tree.body):
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield i, node.id
            elif isinstance(node, ast.Attribute):
                yield i, node.attr
            elif isinstance(node, ast.alias):
                yield i, node.name


def _private_definitions(tree):
    """(top-level statement index, name) for every module-level private
    name (one leading underscore) that a def, class or assignment binds."""
    for i, stmt in enumerate(tree.body):
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield i, name


def test_every_private_name_is_referenced():
    trees = {path.relative_to(SRC).as_posix(): ast.parse(path.read_text())
             for path in sorted(SRC.rglob("*.py"))}
    sites = defaultdict(set)  # name -> {(module, statement index)}
    for rel, tree in trees.items():
        for i, name in _top_level_references(tree):
            sites[name].add((rel, i))
    orphans = [f"{rel}:{name}" for rel, tree in trees.items()
               for i, name in _private_definitions(tree)
               if not sites[name] - {(rel, i)}]
    assert orphans == []


def _yields(fn):
    """True if fn's own body yields; nested functions and classes are
    their own scopes and do not count."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return False


def test_no_public_function_is_a_generator():
    # perfbench/spans.py times a public call from entry to return, and a
    # generator returns when it is created, before any of its work: the
    # work would be booked to whichever caller iterates it;
    # _keyword_parameters walks every public function and method
    generators = [f"{path.relative_to(SRC).as_posix()}:{fn.name}"
                  for path in sorted(SRC.rglob("*.py"))
                  for _, fn, _ in _keyword_parameters(ast.parse(
                      path.read_text()))
                  if _yields(fn)]
    assert generators == []
