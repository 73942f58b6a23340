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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def own_nodes(scope):
    """Every node inside `scope` (a module, class or function) that is not
    inside a function or class defined in it; those definitions are
    yielded, their insides are not."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, DEFINITIONS):
            stack.extend(ast.iter_child_nodes(node))


class Receivers:
    """The class of an expression's value, where the AST shows it, over a
    set of parsed modules.

    The rules are few and local.  An annotated parameter, `self` and `cls`
    have their class; so does a name or `self.` attribute assigned from an
    expression that has one; a call of a class, or of a function, method
    or property whose return annotation names a class, gives that class;
    a dataclass field's annotation gives the field's class.  A nested
    function sees its enclosing function's names.  Anything else, such as
    a loop variable, an unpacked tuple or a `list[...]`, has none.
    """

    def __init__(self, trees):
        self.trees = list(trees)
        self.classes = {node.name: node for tree in self.trees for node in ast.walk(tree)
                        if isinstance(node, ast.ClassDef)}
        self.returns = {}  # function name or (class, member) -> class name
        for tree in self.trees:
            for node in tree.body:
                if isinstance(node, FUNCTIONS):
                    self.returns[node.name] = self.annotation(node.returns)
        for name, node in self.classes.items():
            for member in node.body:
                if isinstance(member, FUNCTIONS):
                    self.returns[name, member.name] = self.annotation(member.returns)
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    self.returns[name, member.target.id] = self.annotation(member.annotation)
        for _ in range(2):  # the first pass learns the `self.x = ...` attributes
            self.reads = set()  # (class or None, name) of every `.name` read
            for tree in self.trees:
                self.visit(tree, {}, None)

    def annotation(self, node):
        """The class an annotation names, with `X | None` naming X."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node = ast.parse(node.value, mode="eval").body
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            named = [side for side in map(self.annotation, (node.left, node.right)) if side]
            return named[0] if len(named) == 1 else None
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        return name if name in self.classes else None

    def visit(self, scope, env, cls):
        """Note the reads in `scope` under the names `env` gives; `cls` is
        the class whose body `scope` is, if it is one."""
        nodes = list(own_nodes(scope))
        assigned = sorted((node for node in nodes if isinstance(node, (ast.Assign, ast.AnnAssign))
                           and node.value is not None), key=lambda n: (n.lineno, n.col_offset))
        for node in assigned:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if len(targets) != 1:
                continue
            target, found = targets[0], self.of(node.value, env)
            if isinstance(target, ast.Name):
                env[target.id] = found
            elif (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                  and isinstance(env.get(target.value.id), str) and target.value.id == "self"
                  and isinstance(found, str)):
                self.returns.setdefault((env["self"], target.attr), found)
        for node in nodes:
            if isinstance(node, ast.Attribute):
                found = self.of(node.value, env)
                self.reads.add((found[1] if isinstance(found, tuple) else found, node.attr))
            elif isinstance(node, ast.ClassDef):
                self.visit(node, {}, node.name)
            elif isinstance(node, FUNCTIONS):
                inner = dict(env)
                params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                for i, arg in enumerate(params):
                    if cls and i == 0 and arg.arg == "self":
                        inner["self"] = cls
                    elif cls and i == 0 and arg.arg == "cls":
                        inner["cls"] = ("class", cls)
                    else:
                        inner[arg.arg] = self.annotation(arg.annotation)
                self.visit(node, inner, None)

    def of(self, node, env):
        """The class of the value of `node`: a class name for an instance,
        ("class", name) for the class itself, or None."""
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            return ("class", node.id) if node.id in self.classes else None
        if isinstance(node, ast.Attribute):
            owner = self.of(node.value, env)
            if isinstance(owner, str):
                return self.returns.get((owner, node.attr))
            if owner is None and node.attr in self.classes:
                return ("class", node.attr)  # a class read off a module, such as drr.X
            return None
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                called = self.of(func, env)
                if isinstance(called, tuple):
                    return called[1]
                return self.returns.get(func.id) if func.id not in env else None
            if isinstance(func, ast.Attribute):
                owner = self.of(func.value, env)
                if isinstance(owner, (str, tuple)):
                    return self.returns.get((owner if isinstance(owner, str) else owner[1],
                                             func.attr))
                if func.attr in self.classes:
                    return func.attr
                return self.returns.get(func.attr)  # a function read off a module
        return None


def unread_members(members, reads):
    """The (class, name) keys of `members` that no read reaches: a read
    reaches its receiver's class, and a read whose receiver has no known
    class reaches every class with a member of that name."""
    anywhere = {name for cls, name in reads if cls is None}
    return sorted(key for key in members if key not in reads and key[1] not in anywhere)


def test_every_public_name_has_a_caller(tracing):
    """Every public module-level function and class in drr, and every public
    method and property of its classes, is named outside its own
    definition: in drr (re-exports in __init__.py do not count), in the
    benchmark harness (the tracer's TARGETS paths count), in the acceptance
    tests or in the README's Python example.  A method or property counts
    as named only where it is read as an attribute (`.name`) of its own
    class, keyed by (class, name), so neither a local variable of the same
    name nor another class's member of the same name keeps it.  Where the
    AST does not show a receiver's class (`Receivers`), the read keeps
    every member of that name.  Public code that only unit tests reach is
    deleted, not kept."""
    defined, members, trees = {}, {}, []
    for filename, tree in package_trees():
        if filename == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
                defined.setdefault(node.name, f"{filename}:{node.lineno}")
                for member in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(member, DEFINITIONS) and not member.name.startswith("_"):
                        members[node.name, member.name] = f"{filename}:{member.lineno}"
        trees.append(tree)
    for filename in sorted(os.listdir(PERFBENCH)):
        if filename.endswith(".py"):
            with open(os.path.join(PERFBENCH, filename)) as f:
                trees.append(ast.parse(f.read(), filename))
    with open(os.path.join(ROOT, "tests", "test_acceptance.py")) as f:
        trees.append(ast.parse(f.read()))
    with open(os.path.join(ROOT, "README.md")) as f:
        trees.append(ast.parse(re.findall(r"```python\n(.*?)```", f.read(), re.DOTALL)[0]))
    paths = [path.split(".") for _, _, path in tracing.TARGETS]
    used = {part for path in paths for part in path}.union(*(named(tree) for tree in trees))
    reads = Receivers(trees).reads | {tuple(path) for path in paths if len(path) == 2}
    assert defined and members
    unused = sorted([f"{where} {name}" for name, where in defined.items() if name not in used]
                    + [f"{members[key]} {key[0]}.{key[1]}"
                       for key in unread_members(members, reads)])
    assert not unused, f"public names with no caller: {', '.join(unused)}"


CALLERS_CASE = """
class Scalar:
    def potential(self): ...
    def size(self): ...

class Lanes:
    def potential(self): ...
    def size(self): ...

    @classmethod
    def fresh(cls) -> "Lanes":
        return cls()

def annotated(coder: Lanes):
    return coder.potential()

def assigned():
    lanes = Lanes.fresh()
    return lanes.size()

def unknown(coder):
    return coder.size()
"""


def test_a_member_is_kept_only_by_reads_of_its_own_class():
    # `Scalar.potential` is named only as `Lanes.potential`, on a receiver
    # whose class the AST shows, so it has no caller; `Scalar.size` is kept
    # by the read on a receiver of no known class.
    tree = ast.parse(CALLERS_CASE)
    members = {(cls, name) for cls in ("Scalar", "Lanes") for name in ("potential", "size")}
    reads = Receivers([tree]).reads
    assert {("Lanes", "potential"), ("Lanes", "size"), (None, "size")} <= reads
    assert unread_members(members, reads) == [("Scalar", "potential")]


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


def test_files_are_read_and_written_in_one_place():
    """No module of drr calls `open`, and only replay_store's `read_file`
    and `write_file` call `os.open`: every stored artifact goes through
    them."""
    callers = []
    for filename, tree in package_trees():
        scopes = [node for node in ast.walk(tree) if isinstance(node, FUNCTIONS)]
        for scope in scopes:
            for node in ast.walk(scope):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name) and func.id == "open":
                    callers.append((filename, scope.name, "open"))
                if (isinstance(func, ast.Attribute) and func.attr == "open"
                        and isinstance(func.value, ast.Name) and func.value.id == "os"):
                    callers.append((filename, scope.name, "os.open"))
    assert callers == [("replay_store.py", "read_file", "os.open"),
                       ("replay_store.py", "write_file", "os.open")], callers


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
