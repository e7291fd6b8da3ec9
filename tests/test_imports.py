"""Static checks, in place of a linter: every name a ``hyperrag`` module
imports is used in that module (an import kept on purpose carries
``# noqa: F401`` on its line), every private module-level name is read
in the module that defines it, every parameter is read by its function,
no two modules define a public function of the same name, and the
functions whose per-layer timings ``BENCHMARK.json`` declares stay
visible to the benchmark's tracer."""

import ast
import importlib
import inspect
import json
import sys
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
