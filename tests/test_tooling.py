"""Checks on the benchmark harness's and the README's view of the package.

`perfbench/tracing.py` wraps drr's functions by name, and
`perfbench/workloads.py` calls drr's public names to run and check every
workload; a name that no longer resolves, or a call it no longer accepts,
would make every benchmark run crash.  The harness files are read, never
imported as modules, so the checks leave them untouched.  The README's
Python example is run as written.
"""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
PACKAGE = os.path.join(ROOT, "src", "drr")
TRACING = os.path.join(PERFBENCH, "tracing.py")
WORKLOADS = os.path.join(PERFBENCH, "workloads.py")


@pytest.fixture(scope="module")
def tracing():
    with open(TRACING) as f:
        source = f.read()
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = TRACING
    exec(compile(source, TRACING, "exec"), module.__dict__)
    return module


def test_every_trace_target_resolves(tracing):
    assert tracing.TARGETS
    for name, module, path in tracing.TARGETS:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        # The tracer swaps the attribute in the owner's own namespace.
        assert attr in vars(owner), f"{name}: {module}.{path} does not resolve"
        assert name.split(".", 1)[0] in tracing.LAYERS


def test_tracer_installs_and_restores(tracing):
    originals = []
    for _, module, path in tracing.TARGETS:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        originals.append((owner, attr, vars(owner)[attr]))
    tracer = tracing.Tracer()
    with tracer.installed():
        assert any(vars(owner)[attr] is not original for owner, attr, original in originals)
    assert all(vars(owner)[attr] is original for owner, attr, original in originals)


def drr_path(node):
    """The dotted path under drr of an attribute chain rooted at `drr` or
    `self.drr`, such as "cli.main", or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "drr" and parts:
        return ".".join(reversed(parts))
    if parts and parts[-1] == "drr" and isinstance(node, ast.Name) and node.id == "self":
        return ".".join(reversed(parts[:-1])) or None
    return None


@pytest.fixture(scope="module")
def workload_calls():
    """Every drr path the workloads read, and every call of one as
    (path, positional count, keyword names)."""
    with open(WORKLOADS) as f:
        tree = ast.parse(f.read(), WORKLOADS)
    paths = {path for node in ast.walk(tree) if (path := drr_path(node))}
    calls = [(path, len(node.args), [k.arg for k in node.keywords])
             for node in ast.walk(tree) if isinstance(node, ast.Call)
             and (path := drr_path(node.func))]
    return paths, calls


def resolve(path):
    import drr
    import drr.cli  # noqa: F401  (the harness imports it too)
    owner = drr
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_workload_name_resolves(workload_calls):
    paths, _ = workload_calls
    assert "decompress_grid" in paths and "bits_back.chunk_symbols" in paths
    for path in sorted(paths):
        try:
            resolve(path)
        except AttributeError:
            pytest.fail(f"perfbench/workloads.py reads drr.{path}, which does not resolve")


def test_every_workload_call_binds(workload_calls):
    _, calls = workload_calls
    assert ("decompress_grid", 4, ["tables"]) in calls
    for path, n_args, keywords in calls:
        signature = inspect.signature(resolve(path))
        try:
            signature.bind(*[None] * n_args, **dict.fromkeys(keywords))
        except TypeError as exc:
            pytest.fail(f"perfbench/workloads.py calls drr.{path} in a way it rejects: {exc}")


def unused_imports():
    """(module, name) of every name a drr module imports and neither reads
    nor lists in its __all__."""
    out = set()
    for filename in sorted(os.listdir(PACKAGE)):
        if not filename.endswith(".py"):
            continue
        module = "drr" if filename == "__init__.py" else f"drr.{filename[:-3]}"
        with open(os.path.join(PACKAGE, filename)) as f:
            tree = ast.parse(f.read(), filename)
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                    for elt in node.value.elts}
        out |= {(module, name) for name in imported - used - exported}
    return out


def test_every_import_is_used_or_traced(tracing):
    """A name a drr module imports is used there, listed in its __all__, or
    wrapped there by the tracer, which finds it in that module by name."""
    wrapped = {(module, path) for _, module, path in tracing.TARGETS}
    unused = sorted(f"{module}.{name}" for module, name in unused_imports() - wrapped)
    assert not unused, f"imported and never used: {', '.join(unused)}"


# The imports that only the benchmark's name-based tracer needs: each is
# wrapped where it is imported, and nothing in drr calls it there.
TRACER_SHIMS = {
    ("drr.bits_back", "pmf_quantize"),
    ("drr.replay_store", "decode_codes"),
    ("drr.replay_store", "decode_stream"),
    ("drr.replay_store", "encode_image"),
    ("drr.replay_store", "encode_stream"),
}


def test_unused_imports_are_exactly_the_tracer_shims(tracing):
    """The imports no drr code reads are the known tracer shims and no
    others, so a leftover import of a traced name fails too; deleting a
    shim means deleting it here."""
    wrapped = {(module, path) for _, module, path in tracing.TARGETS}
    assert TRACER_SHIMS <= wrapped
    assert unused_imports() == TRACER_SHIMS


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def named(tree, attributes_only=False):
    """Every name and attribute read in `tree`, or with `attributes_only`
    every attribute (`.name`), except a function's or a class's reads of its
    own name inside its own definition."""
    out = set()

    def visit(node, inside):
        if isinstance(node, DEFINITIONS):
            inside = inside | {node.name}
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name) and not attributes_only else None)
        if name is not None and name not in inside:
            out.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return out


def package_trees():
    """(file name, parsed module) of every module in drr."""
    for filename in sorted(os.listdir(PACKAGE)):
        if filename.endswith(".py"):
            with open(os.path.join(PACKAGE, filename)) as f:
                yield filename, ast.parse(f.read(), filename)


def test_every_private_function_has_a_package_caller():
    """Every `_`-prefixed function, method or class in drr is named in drr
    outside its own definition: a private helper that only tests call is
    deleted, not kept."""
    defined, used = {}, set()
    for filename, tree in package_trees():
        for node in ast.walk(tree):
            if (isinstance(node, DEFINITIONS) and node.name.startswith("_")
                    and not node.name.endswith("__")):
                defined.setdefault(node.name, f"{filename}:{node.lineno}")
        used |= named(tree)
    assert defined
    unused = sorted(f"{where} {name}" for name, where in defined.items() if name not in used)
    assert not unused, f"private names with no caller in drr: {', '.join(unused)}"


def test_every_public_name_has_a_caller(tracing):
    """Every public module-level function and class in drr, and every public
    method and property of its classes, is named outside its own
    definition: in drr (re-exports in __init__.py do not count), in the
    benchmark harness (the tracer's TARGETS paths count), in the acceptance
    tests or in the README's Python example.  A method or property counts
    as named only where it is read as an attribute (`.name`), so a local
    variable of the same name does not keep it.  Public code that only unit
    tests reach is deleted, not kept."""
    defined, members, trees = {}, {}, []
    for filename, tree in package_trees():
        if filename == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
                defined.setdefault(node.name, f"{filename}:{node.lineno}")
                for member in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(member, DEFINITIONS) and not member.name.startswith("_"):
                        members.setdefault(member.name, f"{filename}:{member.lineno}")
        trees.append(tree)
    for filename in sorted(os.listdir(PERFBENCH)):
        if filename.endswith(".py"):
            with open(os.path.join(PERFBENCH, filename)) as f:
                trees.append(ast.parse(f.read(), filename))
    with open(os.path.join(ROOT, "tests", "test_acceptance.py")) as f:
        trees.append(ast.parse(f.read()))
    with open(os.path.join(ROOT, "README.md")) as f:
        trees.append(ast.parse(re.findall(r"```python\n(.*?)```", f.read(), re.DOTALL)[0]))
    traced = {part for _, _, path in tracing.TARGETS for part in path.split(".")}
    used = traced.union(*(named(tree) for tree in trees))
    read = traced.union(*(named(tree, attributes_only=True) for tree in trees))
    assert defined and members
    unused = sorted([f"{where} {name}" for name, where in defined.items() if name not in used]
                    + [f"{where} {name}" for name, where in members.items() if name not in read])
    assert not unused, f"public names with no caller: {', '.join(unused)}"


STRUCT_CALLS = {"pack", "unpack", "unpack_from", "calcsize"}


def test_header_formats_are_declared_once():
    """Every binary header's format is one `struct.Struct` constant: no
    struct function in drr takes a format string, and no two Structs share
    a format.  One header carries a magic, the container's: exactly one
    format starts with a 4-byte string, in container.py."""
    formats = []
    magic_headers = []
    for filename in sorted(os.listdir(PACKAGE)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, filename)) as f:
            tree = ast.parse(f.read(), filename)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "struct"
                    and node.args):
                continue
            first = node.args[0]
            literal = isinstance(first, ast.JoinedStr) or (
                isinstance(first, ast.Constant) and isinstance(first.value, str))
            assert not (literal and node.func.attr in STRUCT_CALLS), (
                f"{filename}:{node.lineno}: struct.{node.func.attr} takes a format string")
            if node.func.attr == "Struct" and isinstance(first, ast.Constant):
                formats.append(first.value)
                if first.value.startswith("<4s"):
                    magic_headers.append(filename)
    assert formats and len(formats) == len(set(formats)), formats
    assert magic_headers == ["container.py"], magic_headers


def test_readme_example_runs(tmp_path):
    with open(os.path.join(ROOT, "README.md")) as f:
        examples = re.findall(r"```python\n(.*?)```", f.read(), re.DOTALL)
    assert len(examples) == 1
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, "-c", examples[0]], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "compressed" in proc.stdout


def test_readme_names_the_current_formats():
    from drr.bits_back import MODEL_FORMAT_VERSION, STREAM_FORMAT_VERSION
    from drr.cli import STREAM_SET_FORMAT_VERSION
    from drr.vq_codec import CODEC_FORMAT_VERSION
    with open(os.path.join(ROOT, "README.md")) as f:
        text = " ".join(f.read().split())
    found = re.findall(r"The formats are codec (\d+), models (\d+), stream (\d+) and "
                       r"stream set (\d+)", text)
    assert found == [(str(CODEC_FORMAT_VERSION), str(MODEL_FORMAT_VERSION),
                      str(STREAM_FORMAT_VERSION), str(STREAM_SET_FORMAT_VERSION))]
