"""A guard against dead names and unset settings in `src/csdk`.

Parses every module of the package with `ast` and fails on a top-level
function or class that no module of the package names outside its own
definition, and on a from-import that its module never names.  Strings in
`__all__` count as names.  Tests, perfbench and other callers outside the
package do not count, so a name kept alive only by one of them must be
listed in ALLOWED with its reason.

It also fails on a setting that no call in the package sets: a defaulted
parameter of a top-level function or method, or a dataclass field with a
default.  A call to a callable of that name sets the parameter if it
passes it by keyword, by position, or through `*args` or `**kwargs`.  A
setting that only callers outside the package set must be listed in
ALLOWED_SETTINGS with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "csdk"

# Names that perfbench's tracer looks up in `csdk.csd` and `csdk.polar`, and
# the definitions that only those lookups reach; they go when the tracer
# stops needing them.
_TRACER = "ROADMAP item 1: perfbench's tracer looks this name up"
# Oracles that only the tests call.
_ORACLE = "test oracle"

# (module, name) -> why the name stays although nothing in the package
# names it.  Imports are listed by the importing module.
ALLOWED = {
    ("csd", "dist_to_partial_isometry"): _TRACER,
    ("csd", "svd_factor"): _TRACER,
    ("csd", "symeig_interval"): _TRACER,
    ("csd", "symeig_sdc"): _TRACER,
    ("polar", "cholesky_factor"): _TRACER,
    ("polar", "qr_factor"): _TRACER,
    ("csd", "extract_cs"): _TRACER,
    ("csd", "cs_from_lambda"): _TRACER,
    ("kernel", "cholesky_factor"): _TRACER,
    ("symeig", "symeig_interval"): _TRACER,
    ("isometry", "eps_rank"): _ORACLE,
    ("zolotarev", "eval_sign_approx"): _ORACLE,
}

# (module, callable, parameter) -> why the parameter keeps its default
# although no call in the package sets it.
ALLOWED_SETTINGS = {
    ("cli", "main", "argv"): "the tests' way into the CLI; the console script passes none",
    ("isometry", "eps_rank", "norm"): "test oracle, which the tests run in both norms",
}


def _names(tree: ast.AST) -> Counter:
    """How often tree reads, binds or exports each name; imports bind
    aliases, not names, so they do not count."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            found.update(
                elt.value
                for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return found


def _modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
    }


def _dead() -> set[tuple[str, str]]:
    modules = _modules()
    counts = {module: _names(tree) for module, tree in modules.items()}
    total = sum(counts.values(), Counter())
    dead = set()
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                # Named nowhere but inside its own definition.
                if total[node.name] == _names(node)[node.name]:
                    dead.add((module, node.name))
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                dead.update(
                    (module, alias.asname or alias.name)
                    for alias in node.names
                    if not counts[module][alias.asname or alias.name]
                )
    return dead


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _defaulted(node: ast.FunctionDef, method: bool):
    """(callable, parameter, position, by keyword) for each defaulted
    parameter of a function; position is None for a keyword-only one, and
    a method's position does not count self."""
    args = node.args
    positional = args.posonlyargs + args.args
    for index in range(len(positional) - len(args.defaults), len(positional)):
        arg = positional[index]
        yield node.name, arg.arg, index - int(method), arg not in args.posonlyargs
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield node.name, arg.arg, None, True


def _settings(tree: ast.Module):
    """`_defaulted` over the top-level functions and methods of a module,
    and over the fields with defaults of its dataclasses, which their
    class's call sets."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _defaulted(node, method=False)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from _defaulted(item, method=True)
            if _is_dataclass(node):
                fields = [
                    item for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
                for index, item in enumerate(fields):
                    if item.value is not None:
                        yield node.name, item.target.id, index, True


def _sets(call: ast.Call, param: str, position, by_keyword: bool) -> bool:
    if any(kw.arg is None or (by_keyword and kw.arg == param) for kw in call.keywords):
        return True
    if position is None:
        return False
    return any(isinstance(arg, ast.Starred) for arg in call.args) or len(call.args) > position


def _unset() -> set[tuple[str, str, str]]:
    modules = _modules()
    calls: dict[str, list[ast.Call]] = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return {
        (module, name, param)
        for module, tree in modules.items()
        for name, param, position, by_keyword in _settings(tree)
        if not any(_sets(call, param, position, by_keyword) for call in calls.get(name, ()))
    }


def test_every_name_has_a_caller_or_a_reason():
    unexplained = sorted(_dead() - ALLOWED.keys())
    assert not unexplained, f"no module of csdk names these: {unexplained}"


def test_allowed_names_are_still_dead():
    # An entry whose name found a caller, or went, leaves the list.
    stale = sorted(ALLOWED.keys() - _dead())
    assert not stale, f"these have callers now or are gone: {stale}"


def test_every_setting_has_a_setter():
    unexplained = sorted(_unset() - ALLOWED_SETTINGS.keys())
    assert not unexplained, f"no call in csdk sets these: {unexplained}"


def test_allowed_settings_are_still_unset():
    # An entry whose parameter found a setter, or went, leaves the list.
    stale = sorted(ALLOWED_SETTINGS.keys() - _unset())
    assert not stale, f"these are set now or are gone: {stale}"
