"""Source hygiene of ``src/dfanet``, read with ``ast`` alone.

Every imported name is used in the module that imports it, every module-level
private name (``_helper``) is referenced somewhere in the package outside its
own definition, and every function reads each of its parameters. A deletion
that leaves an import, a helper or a parameter behind fails here.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dfanet"
MODULES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _used_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names and attributes that ``tree`` reads, outside the subtree ``skip``."""
    used: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return used


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _imported(tree: ast.Module) -> list[str]:
    """The names bound by every import in the module, ``from __future__`` excepted."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def _private_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Module-level functions, classes and constants named ``_x`` (not dunders), with their nodes."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        found.append((name.id, node))
    return [(name, node) for name, node in found if name.startswith("_") and not name.startswith("__")]


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_imported_name_is_used(module):
    tree = MODULES[module]
    used = _used_names(tree) | _exported(tree)
    assert [name for name in _imported(tree) if name not in used] == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_private_definition_is_referenced(module):
    elsewhere = set().union(*(_used_names(tree) for other, tree in MODULES.items() if other != module))
    unreferenced = [
        name
        for name, node in _private_definitions(MODULES[module])
        if name not in elsewhere | _used_names(MODULES[module], skip=node)
    ]
    assert unreferenced == []


def test_forward_batch_is_defined_only_in_network():
    """One inference path: a trained model exports itself to the IR instead of running its own forward."""
    defined = [
        module
        for module, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "forward_batch"
    ]
    assert defined == ["network.py"]


def _unread_parameters(tree: ast.Module) -> list[str]:
    """``function(parameter)`` for every parameter, ``self`` and ``cls`` aside, that its function's body never reads."""
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            declared = (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
            body = node.body if isinstance(node.body, list) else [node.body]
            names = [n for part in body for n in ast.walk(part) if isinstance(n, ast.Name)]
            read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
            parameters = [a.arg for a in declared if a]
            name = getattr(node, "name", "lambda")
            unread += [f"{name}({p})" for p in parameters if p not in read and p not in ("self", "cls")]
    return unread


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_function_reads_each_of_its_parameters(module):
    """A parameter left behind by a refactor, such as one that no longer feeds the body, fails here."""
    assert _unread_parameters(MODULES[module]) == []
