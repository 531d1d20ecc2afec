"""Every option of gpelab's public API has a caller that is not a unit test:
each defaulted parameter of a public function, method or dataclass in
src/gpelab/ is passed by some call in src/gpelab/, perfbench/ or the
acceptance suite.  An option that only a unit test sets is a private
constant of its module instead.  This reads the sources and runs nothing.

A call through `partial(f, ...)` counts as a call of f.  Names are
resolved through the calling file's imports; `x.f(...)` on anything but a
package module or class counts for every public method f."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gpelab"
CALLERS = (sorted(PACKAGE.glob("*.py"))
           + sorted((ROOT / "perfbench").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])
WRAPPERS = {"partial"}

# (owner, parameter) -> why the default stays a public option; the owner
# is "module.function", "module.Class.method" or "module.Class.__init__"
ALLOWED = {
    ("functionals.energy", "coupling"):
        "an input to the model: 0 gives the energy of the linear equation",
    ("closedforms.blowup_family", "theta0"):
        "an input to the closed form: the phase of the family",
    ("cli.main", "argv"):
        "the console entry point reads sys.argv when no list is given",
}


def _defaults(args, shift):
    """(name, positional index or None) of each defaulted parameter; the
    index counts from the first argument after `shift` bound ones."""
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - shift) for i, a in enumerate(positional) if i >= first]
    return out + [(a.arg, None) for a, d in zip(args.kwonlyargs,
                                                args.kw_defaults) if d]


def _is_dataclass(cls):
    return any(isinstance(d, (ast.Name, ast.Call))
               and "dataclass" in ast.unparse(d) for d in cls.decorator_list)


def _public_options():
    """{owner: [(parameter, index)]} of every public callable of the
    package that has a defaulted parameter."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            owner = f"{path.stem}.{node.name}"
            if isinstance(node, ast.FunctionDef):
                found[owner] = _defaults(node.args, 0)
            else:
                if _is_dataclass(node):
                    fields = [s for s in node.body
                              if isinstance(s, ast.AnnAssign)]
                    found[f"{owner}.__init__"] = [
                        (s.target.id, i) for i, s in enumerate(fields)
                        if s.value is not None]
                for fn in node.body:
                    if (isinstance(fn, ast.FunctionDef)
                            and (fn.name == "__init__"
                                 or not fn.name.startswith("_"))):
                        found[f"{owner}.{fn.name}"] = _defaults(fn.args, 1)
    return {owner: opts for owner, opts in found.items() if opts}


def _imports(tree):
    """Local name -> package module ("core") or imported object
    ("core.RadialGrid") in one file."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("gpelab.") and a.asname:
                    names[a.asname] = a.name.split(".")[1]
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("gpelab")):
            source = (node.module or "").removeprefix("gpelab").lstrip(".")
            for a in node.names:
                if source:
                    names[a.asname or a.name] = f"{source}.{a.name}"
                elif a.name in modules:
                    names[a.asname or a.name] = a.name
    return names


def _callees(func, names, methods):
    """The owners that a call's function expression may stand for."""
    if isinstance(func, ast.Name):
        target = names.get(func.id, "")
        return [target, f"{target}.__init__"] if "." in target else []
    if not isinstance(func, ast.Attribute):
        return []
    if isinstance(func.value, ast.Name) and func.value.id in names:
        return [f"{names[func.value.id]}.{func.attr}"]
    return [m for m in methods if m.endswith(f".{func.attr}")]


def _unset():
    """(owner, parameter) of every public option that no call passes; a
    call with *args or **kwargs passes every option."""
    options = _public_options()
    methods = [owner for owner in options if owner.count(".") == 2]
    passed = {}
    for path in CALLERS:
        tree = ast.parse(path.read_text())
        names = _imports(tree)
        if path.parent == PACKAGE:
            names.update({n.name: f"{path.stem}.{n.name}" for n in tree.body
                          if isinstance(n, (ast.FunctionDef, ast.ClassDef))})
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func, args = call.func, call.args
            if (getattr(func, "id", getattr(func, "attr", None)) in WRAPPERS
                    and args and not isinstance(args[0], ast.Starred)):
                func, args = args[0], args[1:]
            star = (any(isinstance(a, ast.Starred) for a in args)
                    or any(k.arg is None for k in call.keywords))
            count = float("inf") if star else len(args)
            keywords = {k.arg for k in call.keywords}
            for owner in _callees(func, names, methods):
                n, kw = passed.get(owner, (0, set()))
                passed[owner] = (max(n, count), kw | keywords)
    unset = []
    for owner, opts in options.items():
        n, keywords = passed.get(owner, (0, set()))
        unset += [(owner, name) for name, index in opts
                  if name not in keywords and (index is None or index >= n)]
    return unset


def test_every_public_option_has_a_caller():
    assert [key for key in _unset() if key not in ALLOWED] == []


def test_every_allowed_option_is_still_unset():
    # an exception that a caller now passes, or whose parameter is gone,
    # leaves the allowlist
    unset = set(_unset())
    assert [key for key in ALLOWED if key not in unset] == []
