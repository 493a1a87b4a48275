"""A guard against dead names in `src/csdk`.

Parses every module of the package with `ast` and fails on a top-level
function or class that no module of the package names outside its own
definition, and on a from-import that its module never names.  Strings in
`__all__` count as names.  Tests, perfbench and other callers outside the
package do not count, so a name kept alive only by one of them must be
listed in ALLOWED with its reason.
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


def _dead() -> set[tuple[str, str]]:
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
    }
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


def test_every_name_has_a_caller_or_a_reason():
    unexplained = sorted(_dead() - ALLOWED.keys())
    assert not unexplained, f"no module of csdk names these: {unexplained}"


def test_allowed_names_are_still_dead():
    # An entry whose name found a caller, or went, leaves the list.
    stale = sorted(ALLOWED.keys() - _dead())
    assert not stale, f"these have callers now or are gone: {stale}"
