"""Static guards on horolab's surface: every option has a caller, every public
function, method and class a use, every output field a reader, every import a
use, no module keeps a hand-rolled cache, and no module reads another's private
names.

All read the source with `ast` and run nothing.  The censuses match by name
only: a call to any function of the same name counts as setting its
parameters, and a load of any attribute of the same name counts as reading a
field, so they can miss an unset option or an unread field, never invent one.
Options may be set by tests; functions, classes and fields must be reached
from `src/` or `perfbench/`, except the subjects of the acceptance criteria.
"""

import ast
from pathlib import Path

import horolab

SRC = Path(horolab.__file__).resolve().parent
ROOT = SRC.parents[1]
CALLER_DIRS = [SRC, ROOT / "tests", ROOT / "perfbench"]
# the code that uses the library; a name only tests reach is dead weight
REACH_DIRS = [SRC, ROOT / "perfbench"]
# names that tests/test_acceptance.py checks and nothing else needs
ACCEPTANCE_SUBJECTS = [
    "observables.SmoothingKernel", "observables.SmoothingKernel.quadrature_check",
    "sampling.renormalization_identity_check",
    "sieve.mertens_check", "sieve.MertensReport.lhs", "sieve.MertensReport.rhs",
    "sieve.MertensReport.holds",
    "sieve.buchstab_defect",
    "sl2.log_map", "sl2.random_element",
]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _trees(folders) -> dict[Path, ast.Module]:
    return {path: _parse(path) for folder in folders for path in sorted(folder.rglob("*.py"))}


def _name(node) -> str | None:
    """The name a Name, Attribute or call target refers to, by its last part."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


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
    for tree in _trees(CALLER_DIRS).values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or _name(node.func) is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords)
            calls.setdefault(_name(node.func), []).append(
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


def _public_defs(tree: ast.Module):
    """(qualified name, node) of every public module-level function and class
    and every public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def unreached_names() -> list[str]:
    """`module.name` for every public function, method or class of src/horolab
    that no code in `src/` or `perfbench/` reaches.  A function or method is
    reached where its name is loaded outside its own body; a class only where it
    is called or subclassed, so an isinstance test is no use of it."""
    trees = _trees(REACH_DIRS)
    loads: dict[str, list] = {}
    built = set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                loads.setdefault(_name(node), []).append((path, node))
            elif isinstance(node, ast.Call):
                built.add(_name(node.func))
            elif isinstance(node, ast.ClassDef):
                built |= {_name(base) for base in node.bases}
    unreached = []
    for path in sorted(SRC.glob("*.py")):
        for name, node in _public_defs(trees[path]):
            short = name.rsplit(".", 1)[-1]
            if isinstance(node, ast.ClassDef):
                reached = short in built
            else:
                body = {id(inner) for inner in ast.walk(node)}
                reached = any(where != path or id(load) not in body
                              for where, load in loads.get(short, []))
            if not reached:
                unreached.append(f"{path.stem}.{name}")
    return unreached


def _reads_itself_whole(node: ast.ClassDef) -> bool:
    """A class that hands itself to `asdict`, so every field reaches its output."""
    return any(isinstance(call, ast.Call) and _name(call.func) == "asdict"
               and any(isinstance(a, ast.Name) and a.id == "self" for a in call.args)
               for call in ast.walk(node))


def write_only_fields() -> list[str]:
    """`module.Class.field` for every dataclass field whose name no attribute
    load in `src/` or `perfbench/` reads."""
    loaded = {node.attr for tree in _trees(REACH_DIRS).values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)) \
                    or _reads_itself_whole(node):
                continue
            unread += [f"{path.stem}.{node.name}.{item.target.id}" for item in node.body
                       if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                       and item.target.id not in loaded]
    return unread


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


def test_every_public_name_is_reached():
    assert [name for name in unreached_names() if name not in ACCEPTANCE_SUBJECTS] == []


def test_every_dataclass_field_has_a_reader():
    assert [name for name in write_only_fields() if name not in ACCEPTANCE_SUBJECTS] == []


def test_acceptance_subjects_hide_no_dead_code():
    # each exempt name is one a census lists, and tests/test_acceptance.py uses it
    listed = set(unreached_names()) | set(write_only_fields())
    used = {_name(node) for node in ast.walk(_parse(ROOT / "tests" / "test_acceptance.py"))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    assert [name for name in ACCEPTANCE_SUBJECTS
            if name not in listed or name.rsplit(".", 1)[-1] not in used] == []


def test_every_import_is_used():
    assert unused_imports() == []


def test_no_module_reads_another_modules_private_names():
    assert foreign_private_names() == []


def test_caches_are_functools_caches():
    # the one keyed by hand: its single slot serves every smaller z_max as a slice
    assert empty_module_dicts() == ["sieve._PRIME_LOG_CACHE"]
