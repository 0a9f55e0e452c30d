"""Static guards on horolab's surface: every option has a caller, every import a use,
and no module keeps a hand-rolled cache.

All read the source with `ast` and run nothing.  The census matches calls
to definitions by name only, so a call to any function of the same name
counts as setting its parameters: it can miss an unset option, never
invent one.
"""

import ast
from pathlib import Path

import horolab

SRC = Path(horolab.__file__).resolve().parent
ROOT = SRC.parents[1]
CALLER_DIRS = [SRC, ROOT / "tests", ROOT / "perfbench"]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _defaulted_params(tree: ast.Module):
    """(name, parameter, position or None, leading self/cls count) of every
    defaulted parameter; `__init__` is named after its class."""
    owners = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    owners[item] = node.name
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        owner = owners.get(node)
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        bound = int(owner is not None and not static)
        name = owner if node.name == "__init__" and owner else node.name
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            out.append((name, arg.arg, i, bound))
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                out.append((name, arg.arg, None, bound))
    return out


def _calls():
    """name -> list of (positional count, keyword names, whether * or ** is used)."""
    calls: dict[str, list] = {}
    for folder in CALLER_DIRS:
        for path in sorted(folder.rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is None:
                    continue
                starred = any(isinstance(a, ast.Starred) for a in node.args) \
                    or any(k.arg is None for k in node.keywords)
                calls.setdefault(name, []).append(
                    (len(node.args), {k.arg for k in node.keywords}, starred))
    return calls


def unset_parameters() -> list[str]:
    """`module.function(parameter)` for every defaulted parameter no call sets."""
    calls = _calls()
    unset = []
    for path in sorted(SRC.glob("*.py")):
        for name, param, pos, bound in _defaulted_params(_parse(path)):
            set_by = [starred or param in kws or (pos is not None and n + bound > pos)
                      for n, kws, starred in calls.get(name, [])]
            if not any(set_by):
                unset.append(f"{path.stem}.{name}({param})")
    return unset


def unused_imports() -> list[str]:
    """`module: name` for every imported name a module never uses (no __init__)."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}: {name}" for name in sorted(imported) if name not in used]
    return unused


def empty_module_dicts() -> list[str]:
    """`module.NAME` for every module-level name bound to an empty dict (`{}` or `dict()`)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            empty = (isinstance(value, ast.Dict) and not value.keys) or (
                isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id == "dict" and not value.args and not value.keywords)
            if empty:
                found += [f"{path.stem}.{t.id}" for t in targets if isinstance(t, ast.Name)]
    return found


def test_every_defaulted_parameter_has_a_caller():
    assert unset_parameters() == []


def test_every_import_is_used():
    assert unused_imports() == []


def test_caches_are_functools_caches():
    # the one keyed by hand: its single slot serves every smaller z_max as a slice
    assert empty_module_dicts() == ["sieve._PRIME_LOG_CACHE"]
