"""Static guards on horolab's surface: every option has a caller, every import a use,
no module keeps a hand-rolled cache, and no module reads another's private names.

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


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
               for d in node.decorator_list)


def _init_field(item) -> bool:
    """An annotated class-body name that is a parameter of the dataclass `__init__`."""
    if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
        return False
    return not (isinstance(item.value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in item.value.keywords))


def _defaulted_params(tree: ast.Module):
    """(name, parameter, position or None, leading self/cls count) of every
    defaulted parameter; `__init__` is named after its class, and so is a
    dataclass, whose defaulted fields are the parameters of its `__init__`."""
    owners = {}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    owners[item] = node.name
            if _is_dataclass(node):
                fields = [item for item in node.body if _init_field(item)]
                out += [(node.name, item.target.id, i, 0)
                        for i, item in enumerate(fields) if item.value is not None]
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


def foreign_private_names() -> list[str]:
    """`module: name` for every `_private` name a module takes from another horolab module."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = _parse(path)
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module is None:  # from . import quotient as qt
                    modules |= {alias.asname or alias.name for alias in node.names}
                else:
                    found += [f"{path.stem}: {node.module}.{alias.name}" for alias in node.names
                              if alias.name.startswith("_")]
        found += [f"{path.stem}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and node.attr.startswith("_")
                  and not node.attr.startswith("__")]
    return found


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


def test_no_module_reads_another_modules_private_names():
    assert foreign_private_names() == []


def test_caches_are_functools_caches():
    # the one keyed by hand: its single slot serves every smaller z_max as a slice
    assert empty_module_dicts() == ["sieve._PRIME_LOG_CACHE"]
