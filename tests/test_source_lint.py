"""Static checks over the library source."""

import ast
import pathlib

import dwlab

SRC = pathlib.Path(dwlab.__file__).parent
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
