"""src/threesquares defines only what it runs.

Every module-level function, class or constant, and every method that
is not a dunder, must be referenced somewhere in the package outside
__init__.py and outside its own body.  Independent references that only
the tests compare against live in the tests.  KEEP names the few
definitions that the package exports for its readers without calling
them itself, or that the standard library calls.

Likewise every parameter with a default must be passed by some call in
the package, so that no knob exists for the tests alone.  KNOBS names
the few that only callers outside the package set.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "threesquares"

KEEP = {
    # The paper's results; the acceptance tests run them, no CLI command does.
    "verify_hs": "the prime-square recursion for s(n)",
    "verify_theorems": "the four representation theorems",
    "verify_signature": "the character vanishing of the twelve genera",
    "verify_jagy": "the conjectured non-representation by both genera",
    # README's library sketch builds the sum of three squares with it.
    "identity_form": "README's library sketch",
    # Seed API that the seed tests pin.
    "QSeries.is_zero": "seed API",
    "QSeries.from_json_dict": "seed API",
    # argparse calls it on a bad command line.
    "_Parser.error": "argparse's hook for a refused command line",
}


KNOBS = {
    "main(argv)": "the console entry point; argparse reads sys.argv",
    "monomial(coeff)": "seed API that the seed tests pin",
    "verify_hs(chain_order)": "the acceptance tests set it",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _targets(node: ast.stmt):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield node.name
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Name):
                    yield leaf.id


def definitions(tree: ast.Module):
    """(qualified name, bare name, node) of each definition the guard checks."""
    for node in tree.body:
        for name in _targets(node):
            if not _is_dunder(name):
                yield name, name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not _is_dunder(item.name):
                        yield f"{node.name}.{item.name}", item.name, item


def references(tree: ast.AST) -> list[str]:
    """Every name read, attribute taken or name imported under tree."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names += [alias.name for alias in node.names]
    return names


def parse() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}


def unreferenced() -> set[str]:
    trees = parse()
    used = Counter(
        name
        for file, tree in trees.items()
        if file != "__init__.py"
        for name in references(tree)
    )
    found = set()
    for file, tree in trees.items():
        for qualified, name, node in definitions(tree):
            own = references(node) if file != "__init__.py" else []
            if used[name] == own.count(name):
                found.add(qualified)
    return found


def test_package_defines_only_what_it_runs():
    assert unreferenced() == set(KEEP)


def functions(tree: ast.Module):
    """(node, implicit first arguments) of every function under tree: 1 for
    a method, whose calls do not pass self, else 0."""
    for owner in ast.walk(tree):
        for node in ast.iter_child_nodes(owner):
            if isinstance(node, ast.FunctionDef):
                yield node, int(isinstance(owner, ast.ClassDef))


def defaulted(node: ast.FunctionDef):
    """(name, index among the positional arguments or None) of each
    parameter of node that has a default."""
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    for i in range(len(positional) - len(args.defaults), len(positional)):
        yield positional[i].arg, i
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def passes(call: ast.Call, name: str, index: int | None) -> bool:
    """Whether call passes the parameter name, by keyword or at index."""
    if any(kw.arg == name for kw in call.keywords):
        return True
    return index is not None and len(call.args) > index


def callee(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def unpassed_knobs() -> set[str]:
    trees = parse()
    calls = [
        node
        for file, tree in trees.items()
        if file != "__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    ]
    found = set()
    for tree in trees.values():
        for func, implicit in functions(tree):
            own = {id(node) for node in ast.walk(func)}
            outside = [
                c for c in calls if callee(c) == func.name and id(c) not in own
            ]
            for name, index in defaulted(func):
                at = None if index is None else index - implicit
                if not any(passes(call, name, at) for call in outside):
                    found.add(f"{func.name}({name})")
    return found


def test_every_default_is_passed_by_the_package():
    assert unpassed_knobs() == set(KNOBS)


def test_no_module_reads_the_environment():
    # Each setting has one source, the command line or the caller.
    reads = {"environ", "environb", "getenv", "getenvb"}
    readers = {
        file: sorted(reads & set(references(tree))) for file, tree in parse().items()
    }
    assert {file: names for file, names in readers.items() if names} == {}
