"""Static checks, in place of a linter: every name a ``hyperrag`` module
imports is used in that module (an import kept on purpose carries
``# noqa: F401`` on its line), every private module-level name is read
in the module that defines it, every parameter is read by its function,
no module but ``geometry`` and ``conformance`` imports the scalar Lorentz
API, no module but the CLI's ``conformance run`` imports ``conformance``,
no two modules define a public function of the same name, the
functions whose per-layer timings ``BENCHMARK.json`` declares stay
visible to the benchmark's tracer, and every public name of a production
module has a reader outside the tests."""

import ast
import importlib
import inspect
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hyperrag"


def unused_imports(path: Path) -> list[str]:
    """``file:line: name`` for each imported name never read in the file."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.name}:{lineno}: {name}"
        for name, lineno in imported.items()
        if name not in used and "# noqa: F401" not in lines[lineno - 1]
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == []


# The point-at-a-time Lorentz API.  Production code works on rows; these
# names belong to ``geometry``, which defines them, and ``conformance``,
# whose oracles check the rows against them.
SCALAR_LORENTZ = frozenset({
    "LorentzPoint", "TangentVector", "origin", "project_to_hyperboloid", "exp_map", "log_map",
    "geodesic_distance", "lorentz_inner", "riemannian_gradient", "rsgd_step",
    "distance_spatial_grad", "acosh_from_excess",
})
SCALAR_HOMES = ("geometry.py", "conformance.py")
# The one reason another module may bind a scalar name: the benchmark's
# tracer test checks that its wrapper is rebound under that module's name.
TRACER_PIN = "# noqa: F401 (perfbench's tracer test rebinds it here)"


def scalar_lorentz_imports(path: Path) -> list[str]:
    """``file:line: name`` for each scalar Lorentz name the file imports,
    except on a line that carries ``TRACER_PIN``."""
    source = path.read_text()
    lines = source.splitlines()
    return [
        f"{path.name}:{alias.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in SCALAR_LORENTZ and TRACER_PIN not in lines[alias.lineno - 1]
    ]


@pytest.mark.parametrize(
    "path",
    [path for path in sorted(SRC.glob("*.py")) if path.name not in SCALAR_HOMES],
    ids=lambda path: path.name,
)
def test_scalar_lorentz_api_stays_in_geometry_and_conformance(path):
    assert scalar_lorentz_imports(path) == []


def test_scalar_lorentz_import_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from .geometry import (\n"
        "    LorentzPoint,\n"
        "    origin_log_rows,\n"
        "    project_to_hyperboloid as lift,\n"
        ")\n"
        f"from .geometry import log_map  {TRACER_PIN}\n"
        "from .geometry import exp_map  # noqa: F401\n"
        "from hyperrag.geometry import origin\n"
    )
    assert scalar_lorentz_imports(module) == [
        "module.py:2: LorentzPoint",
        "module.py:4: project_to_hyperboloid",
        "module.py:7: exp_map",
        "module.py:8: origin",
    ]


# The oracles and scalar reference forms stay out of production code.  The
# one module that loads them is the CLI, inside its ``conformance run``.
CONFORMANCE = "hyperrag.conformance"
CONFORMANCE_ENTRY = ("cli.py", "cmd_conformance")


def conformance_imports(path: Path) -> list[str]:
    """``file:line: statement`` for each import statement that loads
    ``hyperrag.conformance`` (a relative import resolves in ``hyperrag``),
    except within the function that ``CONFORMANCE_ENTRY`` names; in line
    order."""
    tree = ast.parse(path.read_text())
    entry = {
        id(sub)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and (path.name, node.name) == CONFORMANCE_ENTRY
        for sub in ast.walk(node)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["hyperrag" if node.level else "", node.module]))
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        if id(node) not in entry and any(
            name == CONFORMANCE or name.startswith(f"{CONFORMANCE}.") for name in names
        ):
            found.append((node.lineno, f"{path.name}:{node.lineno}: {ast.unparse(node)}"))
    return [text for _, text in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_only_the_conformance_command_imports_conformance(path):
    assert conformance_imports(path) == []


def test_conformance_import_is_reported(tmp_path):
    source = (
        "import hyperrag.conformance\n"
        "from hyperrag import conformance as oracles\n"
        "from . import alignment, conformance\n"
        "from .conformance import run_all\n"
        "from .alignment import conformance_free\n"
        "import hyperrag.conformance_extra\n"
        "\n"
        "def cmd_conformance(args, config, writer):\n"
        "    from .conformance import run_all\n"
        "    return run_all\n"
        "\n"
        "def cmd_other(args, config, writer):\n"
        "    import hyperrag.conformance.sub as sub\n"
        "    return sub\n"
    )
    want = [
        "1: import hyperrag.conformance",
        "2: from hyperrag import conformance as oracles",
        "3: from . import alignment, conformance",
        "4: from .conformance import run_all",
        "13: import hyperrag.conformance.sub as sub",
    ]
    (tmp_path / "cli.py").write_text(source)
    assert conformance_imports(tmp_path / "cli.py") == [f"cli.py:{line}" for line in want]
    # Another module gets no exception, not even in a function of that name.
    (tmp_path / "pipeline.py").write_text(source)
    got = conformance_imports(tmp_path / "pipeline.py")
    assert got == [f"pipeline.py:{line}" for line in want[:4] + ["9: from .conformance import run_all", want[4]]]


def unread_private_names(path: Path) -> list[str]:
    """``file:line: name`` for each private module-level function, class or
    constant (one leading underscore; dunder names are exempt) that the
    module never reads."""
    tree = ast.parse(path.read_text())
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        defined[name.id] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{path.name}:{lineno}: {name}"
        for name, lineno in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_private_name_is_read(path):
    assert unread_private_names(path) == []


def test_unread_private_name_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "__all__ = []\n"
        "_LIMIT = 3\n"
        "_UNUSED: int = 4\n"
        "_a, _b = 1, 2\n"
        "_CACHE = {}\n"
        "_CACHE[_a] = 0\n"
        "\n"
        "def _helper():\n"
        "    return _LIMIT + _a\n"
        "\n"
        "def _orphan():\n"
        "    _local = 1\n"
        "    return _local\n"
        "\n"
        "class _Gone:\n"
        "    _attr = 1\n"
        "\n"
        "def public():\n"
        "    return _helper()\n"
    )
    assert unread_private_names(module) == [
        "module.py:3: _UNUSED",
        "module.py:4: _b",
        "module.py:11: _orphan",
        "module.py:15: _Gone",
    ]


# The CLI dispatches every subcommand with these arguments, read or not.
DISPATCH_SIGNATURE = ["args", "config", "writer"]


def unread_parameters(path: Path) -> list[str]:
    """``file:line: function(parameter)`` for each parameter that its
    function (or lambda) never reads; ``x += ...`` reads ``x``.  ``self``
    and ``cls`` are exempt, and so is a ``cmd_*`` function with the CLI's
    dispatch signature.  In line order."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        spec = node.args
        params = [*spec.posonlyargs, *spec.args, *spec.kwonlyargs]
        params += [arg for arg in (spec.vararg, spec.kwarg) if arg is not None]
        if name.startswith("cmd_") and [p.arg for p in params] == DISPATCH_SIGNATURE:
            continue
        read = set()
        for stmt in node.body if isinstance(node.body, list) else [node.body]:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
                    read.add(sub.id)
                elif isinstance(sub, ast.AugAssign) and isinstance(sub.target, ast.Name):
                    read.add(sub.target.id)
        out += [
            (p.lineno, p.col_offset, f"{path.name}:{p.lineno}: {name}({p.arg})")
            for p in params
            if p.arg not in read and p.arg not in ("self", "cls")
        ]
    return [text for _, _, text in sorted(out)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path) == []


def test_unread_parameter_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def used(a, /, b, *rest, key=1, **extra):\n"
        "    return a, b, rest, key, extra\n"
        "\n"
        "def unused(a, b, *, c=0):\n"
        "    return a\n"
        "\n"
        "def nested(a, b):\n"
        "    def inner():\n"
        "        return b\n"
        "    return a + inner()\n"
        "\n"
        "def bumped(n):\n"
        "    n += 1\n"
        "    return 0\n"
        "\n"
        "class K:\n"
        "    def method(self, x):\n"
        "        return 1\n"
        "\n"
        "    @classmethod\n"
        "    def make(cls, y):\n"
        "        return y\n"
        "\n"
        "def cmd_run(args, config, writer):\n"
        "    return 0\n"
        "\n"
        "def cmd_other(args, config):\n"
        "    return args\n"
        "\n"
        "pick = lambda row, col: row\n"
    )
    assert unread_parameters(module) == [
        "module.py:4: unused(b)",
        "module.py:4: unused(c)",
        "module.py:17: method(x)",
        "module.py:27: cmd_other(config)",
        "module.py:30: <lambda>(col)",
    ]


def public_functions(paths) -> dict[str, list[str]]:
    """Each public module-level function name, with the files that define it."""
    defined: dict[str, list[str]] = {}
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defined.setdefault(node.name, []).append(path.name)
    return defined


def test_public_function_names_are_unique():
    # The benchmark's tracer keys its spans by bare function name and
    # refuses to install when two modules share one.
    defined = public_functions(sorted(SRC.glob("*.py")))
    assert {name: files for name, files in defined.items() if len(files) > 1} == {}


def test_shared_public_function_is_reported(tmp_path):
    for name in ("a.py", "b.py"):
        (tmp_path / name).write_text("def score(x):\n    return x\n\ndef _helper():\n    pass\n")
    (tmp_path / "c.py").write_text("class K:\n    def score(self):\n        pass\n")
    assert public_functions(sorted(tmp_path.glob("*.py"))) == {"score": ["a.py", "b.py"]}


def traced_functions(per_layer: list[dict], paths) -> list[tuple[str, str]]:
    """``(module, name)`` for each function with a ``<name>.calls``,
    ``.busy_s`` or ``.self_s`` metric in ``per_layer``, in name order;
    ``module`` joins with ``+`` the stems of the files that define it."""
    split = (entry["name"].rsplit(".", 1) for entry in per_layer)
    names = sorted({name for name, stat in split if stat in ("calls", "busy_s", "self_s")})
    defined = public_functions(paths)
    return [("+".join(Path(f).stem for f in defined.get(name, [])), name) for name in names]


def test_traced_functions_follow_the_declared_metrics(tmp_path):
    (tmp_path / "a.py").write_text("def score(x):\n    return x\n\ndef shared():\n    pass\n")
    (tmp_path / "b.py").write_text("def shared():\n    pass\n")
    per_layer = [
        {"name": f"{name}.{stat}"}
        for name, stat in [
            ("score", "calls"), ("score", "self_s"), ("shared", "busy_s"), ("gone", "calls"),
            ("Point", "created"), ("spectral.subgraph_size", "mean"), ("trace", "overhead"),
        ]
    ]
    got = traced_functions(per_layer, sorted(tmp_path.glob("*.py")))
    assert got == [("", "gone"), ("a", "score"), ("a+b", "shared")]


# The benchmark's tracer reads these timings by function name.  It wraps
# only plain module functions (``inspect.isfunction``, defined in that
# module), so a decorator such as ``functools.lru_cache`` would hide one.
TRACED = traced_functions(
    json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"], sorted(SRC.glob("*.py"))
)


@pytest.mark.parametrize("module, name", TRACED, ids=lambda v: v)
def test_traced_function_stays_a_plain_module_function(module, name):
    assert module and "+" not in module, f"{name} is defined in [{module}], not one module"
    mod = importlib.import_module(f"hyperrag.{module}")
    fn = vars(mod)[name]
    assert inspect.isfunction(fn) and fn.__module__ == mod.__name__


def public_definitions(tree: ast.Module) -> list[tuple[ast.AST, str]]:
    """Each public module-level function and class, and each public method
    of a module-level class, with its name (``Class.method`` for a method)."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append((node, node.name))
        if isinstance(node, ast.ClassDef):
            out += [
                (sub, f"{node.name}.{sub.name}")
                for sub in node.body
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")
            ]
    return out


def names_read(tree: ast.AST) -> Counter:
    """How many times the tree reads each name: loaded names, loaded
    attribute names and imported names."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
        elif isinstance(node, ast.alias):
            reads[node.name.rsplit(".", 1)[-1]] += 1
    return reads


def unread_public_names(path: Path, read_elsewhere: set[str]) -> list[str]:
    """``file:line: name`` for each ``public_definitions`` entry of the file
    that is not in ``read_elsewhere`` and that the file reads only inside
    the definition itself.  Reads match by bare name, so any attribute of a
    method's name counts as its read."""
    tree = ast.parse(path.read_text())
    in_file = names_read(tree)
    return [
        f"{path.name}:{node.lineno}: {name}"
        for node, name in public_definitions(tree)
        for bare in [name.rsplit(".", 1)[-1]]
        if bare not in read_elsewhere and in_file[bare] == names_read(node)[bare]
    ]


def test_unread_public_name_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used_elsewhere():\n"
        "    pass\n"
        "\n"
        "def traced():\n"
        "    return orphan\n"
        "\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "\n"
        "def orphan():\n"
        "    return _private()\n"
        "\n"
        "def _private():\n"
        "    pass\n"
        "\n"
        "class Model:\n"
        "    def step(self):\n"
        "        return self.helper()\n"
        "\n"
        "    def helper(self):\n"
        "        self.unused = 1\n"
        "\n"
        "    def unused(self):\n"
        "        pass\n"
        "\n"
        "class Unread:\n"
        "    pass\n"
    )
    (tmp_path / "b.py").write_text("from .a import used_elsewhere\n\nused_elsewhere()\n")
    (tmp_path / "c.py").write_text("import a\n\na.Model().step()\n")

    def read_by(*names):
        return set().union(*(names_read(ast.parse((tmp_path / n).read_text())) for n in names))

    # recursive reads only itself; helper writes unused but does not read it.
    assert unread_public_names(tmp_path / "a.py", read_by("b.py", "c.py") | {"traced"}) == [
        "a.py:7: recursive",
        "a.py:23: Model.unused",
        "a.py:26: Unread",
    ]
    # Without c.py, Model and its step have no reader; traced still reads orphan.
    assert unread_public_names(tmp_path / "a.py", read_by("b.py")) == [
        "a.py:4: traced",
        "a.py:7: recursive",
        "a.py:16: Model",
        "a.py:17: Model.step",
        "a.py:23: Model.unused",
        "a.py:26: Unread",
    ]


# A test alone does not keep a production name: each has a reader in the
# package (``conformance``, which holds the test-only reference forms,
# included), the acceptance gate, the benchmark or its traced functions.
# ``io.load_table`` reads back what ``save_table`` writes, and is kept.
PUBLIC_READERS = [
    *sorted(SRC.glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
    *sorted((ROOT / "perfbench").glob("*.py")),
]
KEPT_UNREAD = {"io.py": {"load_table"}}


def test_every_public_name_has_a_reader():
    reads = {path: set(names_read(ast.parse(path.read_text()))) for path in PUBLIC_READERS}
    traced = {name for _, name in TRACED}
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "conformance.py":
            others = (names for reader, names in reads.items() if reader != path)
            kept = KEPT_UNREAD.get(path.name, set())
            unread += unread_public_names(path, traced.union(kept, *others))
    assert unread == []


def test_one_gated_answer_filters_and_generates_once(monkeypatch):
    """Each module that binds a traced function gets a counting wrapper, as
    the tracer installs them; one gated answer then calls the filter, the
    generator and its condition vector once each."""
    from hyperrag.pipeline import PipelineConfig, answer_query, run_training
    from hyperrag.synth import SynthSpec, synth_bundle

    bundle = synth_bundle(SynthSpec(num_queries=12, num_items=24, num_clusters=3, graph_size=18))
    config = PipelineConfig(dim=8, epochs=1, batch_size=6, crm_epochs=5, crm_hidden=8, k=3)
    components, _ = run_training(config, bundle)
    query = next(q for q in bundle.queries if answer_query(components, q).delta == 1)
    calls = dict.fromkeys(["filter_relevant", "generate", "condition_vector"], 0)
    for module, name in TRACED:
        if name not in calls:
            continue
        fn = vars(importlib.import_module(f"hyperrag.{module}"))[name]

        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("hyperrag") and vars(mod).get(name) is fn:
                monkeypatch.setattr(mod, name, counted)
    assert answer_query(components, query).delta == 1
    assert calls == {"filter_relevant": 1, "generate": 1, "condition_vector": 1}


def test_unused_import_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import json\n"
        "import numpy as np\n"
        "from os import path, sep  # noqa: F401\n"
        "from .spectral import KnowledgeGraph, RelevanceVector\n"
        "\n"
        "def f(g: KnowledgeGraph):\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(module) == ["module.py:1: json", "module.py:4: RelevanceVector"]
