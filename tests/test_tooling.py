"""The benchmark's tracer contract, the README's worked example, the
suite's warning filters, the package's imports, where its normalisation
rule lives, its one sampler, its one locality kernel, its one cap rule,
its one model document reader, its plain model record, its one table
float formatter, its one tolerance ledger, the one owner of each
argument check, its one command-line parse, no private helper or
public function left uncalled, N read from the data it comes with, its
one visibility-v quantum source, a table that carries its own sizes,
and its one shot CSV writer."""

import ast
import contextlib
import csv
import importlib.util
import inspect
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chainedbell
from chainedbell import cli, experiment

ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    """Every name bound in a chainedbell module, and the constructors the
    tracer wraps, as (owner, name) -> object."""
    out = {}
    for key, module in list(sys.modules.items()):
        if key == "chainedbell" or key.startswith("chainedbell."):
            out.update({(key, name): obj for name, obj in vars(module).items()})
    for cls in (chainedbell.ConditionalDistribution, chainedbell.HiddenVariableModel):
        out[(cls.__name__, "__init__")] = cls.__dict__["__init__"]
    return out


class TestTracerContract:
    def test_patch_records_spans_and_unpatch_restores(self):
        tracer_mod = load_tracer()
        # Every layer the tracer names is a module with public functions.
        for layer in tracer_mod.LAYERS:
            module = sys.modules[f"chainedbell.{layer}"]
            assert any(inspect.isfunction(getattr(module, n, None)) for n in module.__all__)
        before = bindings()
        tracer = tracer_mod.Tracer()
        tracer.patch()
        try:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["qm", "2"])
        finally:
            tracer.unpatch()
        assert code == 0
        assert tracer.stats["quantum.qm_chained_distribution"].calls == 1
        assert tracer.stats["chained.evaluate_chain"].calls == 1
        assert tracer.stats["distributions.ConditionalDistribution"].calls >= 1
        after = bindings()
        assert after.keys() == before.keys()
        assert [k for k in before if after[k] is not before[k]] == []


class TestReadme:
    def test_worked_example_runs(self):
        text = (ROOT / "README.md").read_text()
        section = text[text.index("## Worked example"):]
        code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(code, "README.md", "exec"), {})
        lines = out.getvalue().splitlines()
        assert [line.split()[0] for line in lines[:3]] == ["2", "10", "100"]
        assert lines[3].endswith("-> True")  # the in-plane model is falsified
        assert lines[4] == "True"  # and its own statistics obey the cap


class TestWarningFilters:
    def test_falsifying_example_is_a_test_failure(self, tmp_path):
        # Explaining a falsifying example imports libcst, whose third-party
        # DeprecationWarning must not turn into a pytest INTERNALERROR.
        test = tmp_path / "test_falsified.py"
        test.write_text(
            "from hypothesis import given, settings, strategies as st\n\n"
            "@settings(database=None)\n"
            "@given(st.integers())\n"
            "def test_small(x):\n"
            "    assert x < 5\n"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(test)],
            capture_output=True, text=True, cwd=tmp_path, timeout=300,
        )
        assert "INTERNALERROR" not in proc.stdout + proc.stderr
        assert proc.returncode == 1  # tests failed; 3 is an internal error
        assert "Falsifying example" in proc.stdout


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, as "line N: name".  A name
    read only in a quoted annotation, or listed in ``__all__``, is read."""
    tree = ast.parse(source)
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            read.update(ast.literal_eval(node.value))
        # A parameter's or assignment's annotation, or a return annotation.
        ann = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            quoted = ast.walk(ast.parse(ann.value, mode="eval"))
            read.update(n.id for n in quoted if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


class TestImports:
    def test_no_module_imports_a_name_it_never_uses(self):
        # __init__ imports names only to re-export them.
        package = ROOT / "src" / "chainedbell"
        found = {
            path.name: unused
            for path in sorted(package.glob("*.py"))
            if path.name != "__init__.py"
            and (unused := unused_imports(path.read_text()))
        }
        assert found == {}

    def test_the_check_sees_an_unused_import(self):
        source = (
            "from __future__ import annotations\n"
            "import math  # math is named only in comments and strings\n"
            "import numpy as np\n"
            "from typing import Iterable, Sequence\n"
            "from .x import Table, y\n"
            "__all__ = ['y']\n"
            "def f(a: 'Sequence[int]') -> 'Table':\n"
            "    return np.zeros(1), 'Iterable, math'\n"
        )
        assert unused_imports(source) == ["line 2: math", "line 4: Iterable"]


def renorm_trigger_readers(source: str) -> list[str]:
    """Lines of a module that import or read ``_RENORM_TRIGGER``, as
    "line N"."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(alias.name.split(".")[-1] == "_RENORM_TRIGGER" for alias in node.names):
                lines.add(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "_RENORM_TRIGGER" \
                or isinstance(node, ast.Attribute) and node.attr == "_RENORM_TRIGGER":
            lines.add(node.lineno)
    return [f"line {line}" for line in sorted(lines)]


class TestOneNormalisationRule:
    def test_only_distributions_reads_the_renormalisation_trigger(self):
        # Tables, model kernels and locality rows share one clamp-and-
        # normalise function; a second module deciding when to divide
        # would be a second rule.
        package = ROOT / "src" / "chainedbell"
        found = {
            path.name: readers
            for path in sorted(package.glob("*.py"))
            if path.name != "distributions.py"
            and (readers := renorm_trigger_readers(path.read_text()))
        }
        assert found == {}

    def test_the_check_sees_a_reader(self):
        source = (
            "from .distributions import NORM_TOL, _RENORM_TRIGGER\n"
            "from . import distributions\n"
            "x = distributions._RENORM_TRIGGER\n"
            "y = NORM_TOL\n"
        )
        assert renorm_trigger_readers(source) == ["line 1", "line 3"]


def _called_name(node: ast.Call) -> str | None:
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def inverse_cdf_calls(source: str) -> list[str]:
    """Lines of a module that call ``_inverse_cdf``, as "line N"."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and _called_name(node) == "_inverse_cdf"]


def dense_einsums(source: str) -> list[str]:
    """Lines of a module whose ``einsum`` subscripts hold ``abuv``: an
    array over setting pairs (a, b) times hidden pairs (u, v)."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and _called_name(node) == "einsum" and node.args
            and isinstance(node.args[0], ast.Constant) and "abuv" in str(node.args[0].value)]


class TestOneSampler:
    def modules(self):
        return sorted((ROOT / "src" / "chainedbell").glob("*.py"))

    def test_only_experiment_draws_through_the_inverse_cdf(self):
        # Shots are drawn by one sampler; Monte-Carlo falsify counts with a
        # multinomial and needs no second one.
        found = {path.name: calls for path in self.modules() if path.name != "experiment.py"
                 and (calls := inverse_cdf_calls(path.read_text()))}
        assert found == {}
        assert inverse_cdf_calls((ROOT / "src" / "chainedbell" / "experiment.py").read_text())

    def test_experiment_without_out_draws_counts_not_shots(self, monkeypatch):
        # Without --out the estimate reads drawn counts: neither the shot
        # stream nor the fold runs, so 1e15 shots cost what 1e3 do.
        # Every shot stream is drawn by experiment._draws, whichever entry
        # point streams it.
        def refuse(*args, **kwargs):
            raise AssertionError("shots were streamed or folded")

        for owner in (cli, experiment):
            monkeypatch.setattr(owner, "simulate_shots_csv", refuse)
        for name in ("simulate_shots", "_draws", "_fold_counts"):
            monkeypatch.setattr(experiment, name, refuse)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["experiment", "--source", "qm", "--n", "4",
                             "--shots", "1000000000000000", "--seed", "3"])
        report = json.loads(out.getvalue())["report"]
        assert code == 0
        assert report["upper_bound"] >= report["point_estimate"]

    def test_experiment_with_out_reports_the_drawn_counts(self, monkeypatch, tmp_path):
        # With --out the report still reads the drawn counts: the CSV is
        # only written, never read back or folded.
        def run(*extra):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["experiment", "--source", "qm", "--n", "3",
                                 "--shots", "20000", "--seed", "3", *extra])
            assert code == 0
            return json.loads(out.getvalue())

        def refuse(*args, **kwargs):
            raise AssertionError("the shot CSV was read back or folded")

        without = run()
        for owner in (cli, experiment):
            monkeypatch.setattr(owner, "read_shots_csv", refuse, raising=False)
        monkeypatch.setattr(experiment, "_fold_counts", refuse)
        path = tmp_path / "shots.csv"
        with_out = run("--out", str(path))
        assert with_out.pop("out") == str(path)
        assert with_out == without
        assert path.stat().st_size > 0

    def test_only_the_draw_generator_orders_shots(self):
        # One generator draws each block's make-up and shuffles it, for
        # simulate_shots and simulate_shots_csv alike.
        found = {(path.name, callee): callers for path in self.modules()
                 for callee in ("_without_replacement", "shuffle")
                 if (callers := callers_of(path.read_text(), callee))}
        assert found == {("experiment.py", "_without_replacement"): ["_draws"],
                         ("experiment.py", "shuffle"): ["_draws"]}

    def test_no_array_over_setting_pairs_and_hidden_pairs(self):
        found = {path.name: lines for path in self.modules()
                 if (lines := dense_einsums(path.read_text()))}
        assert found == {}

    def test_the_checks_see_a_planted_violation(self):
        source = (
            "import numpy as np\n"
            "from .experiment import _inverse_cdf\n"
            "k = np.einsum('aux,bvy->abuvxy', a, b)\n"
            "t = np.einsum('uv,abuvxy->abxyuv', w, k)\n"
            "ok = np.einsum('aux,uv,bvy->abxy', a, w, b)\n"
            "x = _inverse_cdf(np.cumsum(t.ravel()), r)\n"
            "y = sampler._inverse_cdf(cdf, r)  # _inverse_cdf(\n"
        )
        assert inverse_cdf_calls(source) == ["line 6", "line 7"]
        assert dense_einsums(source) == ["line 3", "line 4"]

    def test_the_draw_check_sees_a_planted_violation(self):
        source = (
            "def _draws(rng, remaining, k):\n"
            "    part = _without_replacement(rng, remaining, remaining.sum(), k)\n"
            "    rng.shuffle(part)\n"
            "def simulate_shots(rng, cells):\n"
            "    np.random.default_rng(1).shuffle(cells)\n"
            "    def again():\n"
            "        return experiment._without_replacement(rng, cells, 9, 3)\n"
        )
        assert callers_of(source, "_without_replacement") == ["_draws", "again"]
        assert callers_of(source, "shuffle") == ["_draws", "simulate_shots"]


def referenced_names(sources: dict[str, str]) -> set[str]:
    """Every name a package's modules, given as file name -> source,
    reference by name, attribute or import."""
    referenced = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return referenced


def dead_private_functions(sources: dict[str, str]) -> list[str]:
    """The top-level ``_``-prefixed functions of a package's modules, given
    as file name -> source, that no module references by name, attribute
    or import, as "file:function"."""
    defined = [(name, node.name) for name, source in sources.items()
               for node in ast.parse(source).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_")]
    referenced = referenced_names(sources)
    return [f"{name}:{func}" for name, func in defined if func not in referenced]


def uncalled_public_functions(sources: dict[str, str]) -> list[str]:
    """The top-level functions that a module lists in ``__all__`` and that
    no module of ``sources`` references by name, attribute or import, as
    "file:function".  A listing in ``__all__`` is a string, not a
    reference."""
    defined = []
    for name, source in sources.items():
        body = ast.parse(source).body
        listed = {entry for node in body if isinstance(node, ast.Assign)
                  and ast.unparse(node.targets[0]) == "__all__"
                  for entry in ast.literal_eval(node.value)}
        defined += [(name, node.name) for node in body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name in listed]
    referenced = referenced_names(sources)
    return [f"{name}:{func}" for name, func in defined if func not in referenced]


# Public functions with no caller in the package, kept for ROADMAP item 3,
# which reads a shot CSV back into a certified cap.
UNCALLED_BY_DESIGN = ["experiment.py:estimate_chain_value", "experiment.py:read_shots_csv"]


class TestNoDeadHelper:
    """A private helper that nothing calls any more is deleted, not kept,
    and so is a public function that nothing in the package calls."""

    def test_every_private_function_is_referenced(self):
        package = ROOT / "src" / "chainedbell"
        sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
        assert dead_private_functions(sources) == []

    def test_every_public_function_has_a_caller(self):
        # __init__ names every public function only to re-export it.
        package = ROOT / "src" / "chainedbell"
        sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))
                   if path.name != "__init__.py"}
        assert uncalled_public_functions(sources) == UNCALLED_BY_DESIGN

    def test_the_check_sees_a_planted_dead_helper(self):
        sources = {
            "a.py": (
                "def _called():\n"
                "    \"\"\"_dead is named only in a docstring.\"\"\"\n"
                "def _dead():\n"
                "    return '_dead'\n"
                "def _imported(): pass\n"
                "def _read_as_attribute(): pass\n"
                "def _recursive(k):\n"
                "    return _recursive(k - 1)\n"
                "def public():\n"
                "    def _nested(): pass\n"
                "    return _called()\n"
                "class C:\n"
                "    def _method(self): pass\n"
            ),
            "b.py": "from .a import _imported\nfrom . import a\nf = a._read_as_attribute\n",
        }
        assert dead_private_functions(sources) == ["a.py:_dead"]

    def test_the_check_sees_a_planted_uncalled_function(self):
        sources = {
            "a.py": (
                "__all__ = ['Record', 'imported', 'listed_only', 'read_as_attribute', 'used']\n"
                "class Record: pass\n"
                "def used(): pass\n"
                "def listed_only():\n"
                "    \"\"\"listed_only is named only in a docstring.\"\"\"\n"
                "    return 'listed_only'\n"
                "def imported(): pass\n"
                "def read_as_attribute(): pass\n"
                "def not_listed(): pass\n"
                "def caller():\n"
                "    return used()\n"
            ),
            "b.py": "from .a import imported\nfrom . import a\nf = a.read_as_attribute\n",
        }
        assert uncalled_public_functions(sources) == ["a.py:listed_only"]


# The two identity cross-checks of a locality distance, by the start of
# their error messages.
CROSS_CHECKS = ("distance identity violated", "average-form distance")


def _own_nodes(func: ast.AST):
    """The nodes of a function's body, less those of functions nested in it."""
    pending = list(ast.iter_child_nodes(func))
    while pending:
        node = pending.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            pending += ast.iter_child_nodes(node)


def _functions(source: str):
    return [node for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def cross_check_raisers(source: str) -> dict[str, list[str]]:
    """For each cross-check message, the functions of a module that raise
    an error whose text holds it (an f-string's literal parts included)."""
    found = {message: [] for message in CROSS_CHECKS}
    for func in _functions(source):
        texts = [const.value for node in _own_nodes(func) if isinstance(node, ast.Raise)
                 for const in ast.walk(node)
                 if isinstance(const, ast.Constant) and isinstance(const.value, str)]
        for message in CROSS_CHECKS:
            if any(message in text for text in texts):
                found[message].append(func.name)
    return found


def callers_of(source: str, callee: str) -> list[str]:
    """The functions of a module that call ``callee``."""
    return [func.name for func in _functions(source)
            if any(isinstance(node, ast.Call) and _called_name(node) == callee
                   for node in _own_nodes(func))]


class TestOneLocalityKernel:
    def test_each_cross_check_is_raised_by_one_function(self):
        # One kernel measures every locality distance, for falsify and for
        # check --locality-bound; a second function raising either
        # cross-check would be a second measurement.
        found = {message: [] for message in CROSS_CHECKS}
        for path in sorted((ROOT / "src" / "chainedbell").glob("*.py")):
            for message, funcs in cross_check_raisers(path.read_text()).items():
                found[message] += [f"{path.name}:{name}" for name in funcs]
        assert found == {message: ["hvm.py:_locality_distances"] for message in CROSS_CHECKS}

    def test_both_commands_measure_through_the_kernel(self):
        # locality_measure is the kernel's one entry, and the bound check
        # measures its 2N settings through it.
        source = (ROOT / "src" / "chainedbell" / "hvm.py").read_text()
        assert callers_of(source, "_locality_distances") == ["locality_measure"]
        assert callers_of(source, "locality_measure") == ["locality_bound_check"]

    def test_the_checks_see_a_planted_copy(self):
        source = (
            "def _locality_distances(t):\n"
            "    if bad:\n"
            "        raise AssertionError(f'distance identity violated: {a} vs {b}')\n"
            "    raise AssertionError(f'average-form distance {a} disagrees')\n"
            "def locality_measure(p):\n"
            "    return _locality_distances(p.table[:, 0])\n"
            "def locality_bound_check(p):\n"
            "    '''No distance identity violated here: a docstring is no raise.'''\n"
            "    def half_l1(rows):\n"
            "        raise AssertionError('distance identity violated')\n"
            "    return half_l1(p)\n"
        )
        assert cross_check_raisers(source) == {
            "distance identity violated": ["_locality_distances", "half_l1"],
            "average-form distance": ["_locality_distances"],
        }
        assert callers_of(source, "_locality_distances") == ["locality_measure"]


def run_main(*argv: str) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, json.loads(out.getvalue())


class TestOneCapRule:
    """Every locality cap the CLI reports comes from ``hvm.locality_cap``:
    with the rule swapped, wherever chainedbell binds it, for a marked one,
    every cap field carries the mark."""

    @staticmethod
    def marked(chain_value):
        return chain_value + 1000.0

    @pytest.fixture
    def marked_rule(self, monkeypatch):
        rule = chainedbell.hvm.locality_cap
        for module in [m for k, m in sys.modules.items() if k.split(".")[0] == "chainedbell"]:
            if vars(module).get("locality_cap") is rule:
                monkeypatch.setattr(module, "locality_cap", self.marked)

    def test_every_cap_field_carries_the_mark(self, tmp_path, marked_rule):
        table, model = tmp_path / "qm.json", tmp_path / "leggett.json"
        model.write_text(json.dumps({"type": "leggett", "n": 3, "grid": 12}))
        _, qm = run_main("qm", "3", "--out", str(table))
        code, check = run_main("check", str(table), "--locality-bound")
        assert code == 0
        assert check["locality_bound"]["bound"] == self.marked(qm["chain_value"])
        ideal = self.marked(chainedbell.noisy_chain_closed_form(3, 1.0))
        for shots in ([], ["--shots", "1000", "--seed", "1"]):
            code, falsify = run_main("falsify", str(model), "--n", "3", *shots)
            assert (code, falsify["bound"], falsify["falsified"]) == (0, ideal, False)
        _, exp = run_main("experiment", "--source", "qm", "--n", "3", "--shots", "1000",
                          "--seed", "1")
        assert exp["max_locality_bound"] == self.marked(exp["report"]["upper_bound"])
        run_main("scan", "--n-max", "6", "--out", str(tmp_path / "scan.csv"))
        rows = list(csv.DictReader((tmp_path / "scan.csv").open(newline="")))
        assert [float(r["locality_bound"]) for r in rows] == [
            self.marked(float(r["chain_value"])) for r in rows]


# The model kinds whose document states N and the hidden alphabets.
SIZED_KINDS = ("leggett", "local_deterministic", "nonlocal_qm")


def owners(source: str, match) -> list[str]:
    """The functions of a module that hold a node ``match`` accepts, by
    name, or "<module>" for code outside every function; docstrings are
    skipped, and a nested function holds its own nodes."""
    found = set()
    pending = [(ast.parse(source), "<module>")]
    while pending:
        node, owner = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        children = list(ast.iter_child_nodes(node))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            children.remove(node.body[0])
        if match(node):
            found.add(owner)
        pending += [(child, owner) for child in children]
    return sorted(found)


def raises_too_large(node: ast.AST) -> bool:
    return isinstance(node, ast.Raise) and any(
        isinstance(c, ast.Constant) and isinstance(c.value, str)
        and "model document too large" in c.value for c in ast.walk(node))


def reads_budget(node: ast.AST) -> bool:
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name == "MAX_MODEL_ENTRIES" and isinstance(getattr(node, "ctx", None), ast.Load)


def names_a_sized_kind(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value in SIZED_KINDS


class TestOneDocumentReader:
    """A model document's N and hidden alphabets are read, checked against
    the size budget and built from in one pass: a second function that
    reads the budget or lists the kinds would be a second reader."""

    def found(self, match) -> list[str]:
        return sorted(f"{path.name}:{name}"
                      for path in sorted((ROOT / "src" / "chainedbell").glob("*.py"))
                      for name in owners(path.read_text(), match))

    def test_one_function_checks_the_size_budget(self):
        # The qm commands hold their 4·N² table to the same budget; they
        # read no document.
        assert self.found(raises_too_large) == ["hvm.py:_model_of_kind"]
        assert self.found(reads_budget) == ["cli.py:_qm_table", "hvm.py:_model_of_kind"]

    def test_only_the_reader_names_the_sized_kinds(self):
        assert self.found(names_a_sized_kind) == ["hvm.py:_model_of_kind",
                                                  "hvm.py:model_from_dict"]

    def test_the_checks_see_a_planted_reader(self):
        source = (
            "'nonlocal_qm'\n"
            "LIMIT = MAX_MODEL_ENTRIES\n"
            "MAX_MODEL_ENTRIES = 10\n"
            "def model_from_dict(data):\n"
            "    'leggett'\n"
            "    return _model_of_kind(data['type'], data)\n"
            "def _check_size(kind, data):\n"
            "    if kind in ('leggett', 'nonlocal_qm'):\n"
            "        raise ValueError(f'model document too large: {hvm.MAX_MODEL_ENTRIES}')\n"
            "def _model_of_kind(kind, data):\n"
            "    def size():\n"
            "        return kind == 'local_deterministic'\n"
            "    raise ValueError('model document too large')\n"
        )
        assert owners(source, raises_too_large) == ["_check_size", "_model_of_kind"]
        assert owners(source, reads_budget) == ["<module>", "_check_size"]
        assert owners(source, names_a_sized_kind) == ["_check_size", "size"]


def model_properties(source: str) -> list[str]:
    """Members of a module's ``HiddenVariableModel`` that are computed on
    read: decorated with a ``property`` or ``cached_property``, or bound
    to a call of one."""
    def is_property(node):
        node = node.func if isinstance(node, ast.Call) else node
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
        return name.endswith("property")

    found = []
    for cls in ast.walk(ast.parse(source)):
        if not (isinstance(cls, ast.ClassDef) and cls.name == "HiddenVariableModel"):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and any(map(is_property, node.decorator_list)):
                found.append(node.name)
            elif isinstance(node, ast.Assign) and is_property(node.value):
                found += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return found


def callable_calls(source: str) -> list[str]:
    """Lines of a module that call ``callable``, as "line N"."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and _called_name(node) == "callable"]


class TestPlainModelRecord:
    """A model is a plain record: every attribute, Bob's responses
    included, is built with the model, and a table-form model holds its
    ConditionalDistribution.  A property or a callable argument would be
    a second, lazy path."""

    def test_the_model_computes_nothing_on_read(self):
        source = (ROOT / "src" / "chainedbell" / "hvm.py").read_text()
        assert model_properties(source) == []
        assert callable_calls(source) == []

    def test_the_checks_see_a_planted_lazy_path(self):
        source = (
            "class HiddenVariableModel:\n"
            "    @property\n"
            "    def bob(self):\n"
            "        if callable(self._bob):\n"
            "            self._bob = self._bob()\n"
            "        return self._bob\n"
            "    @functools.cached_property\n"
            "    def alice(self):\n"
            "        return 1\n"
            "    table = property(lambda self: self._table)\n"
            "    def n(self):\n"
            "        'No property here: a docstring is no decorator.'\n"
            "        return callable\n"
            "class Other:\n"
            "    @property\n"
            "    def x(self):\n"
            "        return 1\n"
        )
        assert model_properties(source) == ["bob", "alice", "table"]
        assert callable_calls(source) == ["line 4"]


def table_list_builders(source: str) -> list[str]:
    """Lines of a module that call ``to_dict`` or ``tolist``, the ways to
    turn a table into a list of floats, as "line N"."""
    return [f"line {line}" for line in sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and _called_name(node) in ("to_dict", "tolist"))]


class TestOneFloatFormatter:
    """Table floats become text through ``_json_float_list``, which formats
    each distinct value once, both in a file and on stdout.  A payload that
    handed ``json.dumps`` or the stdout renderer ``_json_text`` a table list
    would format them one by one."""

    def test_writer_and_stdout_format_tables_through_it(self):
        package = ROOT / "src" / "chainedbell"
        assert callers_of((package / "distributions.py").read_text(),
                          "_json_float_list") == ["write_json_file"]
        cli_source = (package / "cli.py").read_text()
        assert callers_of(cli_source, "_json_float_list") == ["_payload_text"]
        assert table_list_builders(cli_source) == []

    def test_no_dumps_receives_a_table_list(self, monkeypatch, tmp_path):
        payloads = []

        def checked(formatter, record=False):
            def wrapped(obj, *args, **kwargs):
                pending = [obj]
                while pending:
                    value = pending.pop()
                    if isinstance(value, dict):
                        assert not isinstance(value.get("table"), list)
                        pending += value.values()
                    elif isinstance(value, list):
                        pending += value
                if record:
                    payloads.append(obj)
                return formatter(obj, *args, **kwargs)
            return wrapped

        # Every formatter: json's, the renderer (each of its recursive
        # calls too) and the stdout payload's, which records the payloads.
        monkeypatch.setattr(cli.json, "dumps", checked(json.dumps, record=True))
        monkeypatch.setattr(cli, "_json_text", checked(cli._json_text))
        monkeypatch.setattr(cli, "_payload_text", checked(cli._payload_text, record=True))
        path = tmp_path / "t.json"
        for argv in (["qm", "5"], ["lp", "--n", "3", "--delta", "0.2"],
                     ["qm", "4", "--out", str(path)], ["check", str(path)]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
        assert len(payloads) >= 4

    def test_the_checks_see_a_planted_violation(self):
        source = (
            "def write_json_file(p, path):\n"
            "    text = ', '.join(map(repr, p.table.ravel().tolist()))\n"
            "def _payload_text(payload):\n"
            "    return _json_float_list(payload['distribution'].table.ravel(), ',')\n"
            "def cmd_qm(args):\n"
            "    payload = {'distribution': dist.to_dict()}\n"
        )
        assert callers_of(source, "_json_float_list") == ["_payload_text"]
        assert table_list_builders(source) == ["line 2", "line 6"]


def ledger_names(source: str) -> list[str]:
    """Names that a module binds at its top level and that end in
    ``_TOL``, in order."""
    return [leaf.id for node in ast.parse(source).body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            for leaf in ast.walk(target)
            if isinstance(leaf, ast.Name) and leaf.id.endswith("_TOL")]


# The tolerance ledger: every tolerance the library defines by name, read
# from the two modules that define them.
LEDGER = {name: getattr(module, name) for module in (chainedbell.distributions, chainedbell.hvm)
          for name in ledger_names(Path(module.__file__).read_text())}


def ledger_literals(source: str) -> list[str]:
    """Float literals of a module that equal a ledger constant, as
    "line N: NAME"."""
    return [f"line {line}: {name}" for line, name in sorted(
        (node.lineno, name) for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and type(node.value) is float
        for name, value in LEDGER.items() if node.value == value)]


def table_constructions(source: str) -> list[str]:
    """Lines of a module that call ``ConditionalDistribution``, as "line N"."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and _called_name(node) == "ConditionalDistribution"]


class TestOneToleranceLedger:
    """The ledger is two named tolerances.  Only the two modules that
    define the ledger spell its values; every other module names them.
    The CLI measures the tables it reads: it builds none of its own."""

    def test_the_ledger_names_two_tolerances(self):
        # A new named tolerance fails here until this line names it too.
        assert set(LEDGER) == {"NORM_TOL", "IDENTITY_TOL"}

    def test_only_the_ledger_modules_spell_a_ledger_value(self):
        package = ROOT / "src" / "chainedbell"
        found = {path.name: literals for path in sorted(package.glob("*.py"))
                 if path.name not in ("distributions.py", "hvm.py")
                 and (literals := ledger_literals(path.read_text()))}
        assert found == {}

    def test_cli_constructs_no_table(self):
        assert table_constructions((ROOT / "src" / "chainedbell" / "cli.py").read_text()) == []

    def test_the_checks_see_a_planted_violation(self):
        source = (
            "from .distributions import ConditionalDistribution, NORM_TOL\n"
            "stat_tol = 1e-9\n"
            "floor = max(1e-6, cells * radius)\n"
            "close = abs(a - b) <= 1e-12 and n == 1 and c > 1e-3\n"
            "ok = NORM_TOL\n"
            "dist3 = ConditionalDistribution(table)\n"
            "same = isinstance(dist3, ConditionalDistribution)\n"
        )
        assert ledger_literals(source) == ["line 2: NORM_TOL", "line 4: IDENTITY_TOL"]
        assert table_constructions(source) == ["line 6"]
        assert ledger_names(
            "A_TOL = 1e-6\nB, C_TOL = 1.0, 2.0\nD: float = 0.1\nE_TOL: float = 1.0\n"
            "def f():\n    F_TOL = 1.0\n") == ["A_TOL", "C_TOL", "E_TOL"]


def _message(node: ast.Raise) -> str | None:
    """The text of a raised error's first argument, ``{}`` standing for each
    f-string field; None when it is no string literal."""
    if not (isinstance(node.exc, ast.Call) and node.exc.args):
        return None
    arg = node.exc.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in arg.values)
    return None


def raised_messages(source: str, function: str | None = None) -> list[tuple[int, str]]:
    """(line, message) of every error a module raises, or one of its
    functions raises itself."""
    if function is None:
        nodes = ast.walk(ast.parse(source))
    else:
        nodes = _own_nodes(next(f for f in _functions(source) if f.name == function))
    return sorted((node.lineno, message) for node in nodes if isinstance(node, ast.Raise)
                  and (message := _message(node)) is not None)


def repeated_checks(cli_source: str, library_source: str) -> list[str]:
    """Errors that ``cmd_experiment`` raises and the library module raises
    too, as "line N: message"."""
    library = {message for _, message in raised_messages(library_source)}
    return [f"line {line}: {message}"
            for line, message in raised_messages(cli_source, "cmd_experiment")
            if message in library]


class TestOneCheckOwner:
    """``experiment`` leaves to the library every argument check the
    library makes: the same error, raised before any file is written."""

    def test_cmd_experiment_repeats_no_library_check(self):
        src = ROOT / "src" / "chainedbell"
        assert repeated_checks((src / "cli.py").read_text(),
                               (src / "experiment.py").read_text()) == []

    def test_the_check_sees_a_planted_violation(self):
        cli_source = (
            "def cmd_falsify(args):\n"
            "    raise ValueError('shots must be at least 1')\n"
            "def cmd_experiment(args):\n"
            "    if args.shots < 1:\n"
            "        raise ValueError('shots must be at least 1')\n"
            "    raise ValueError(f'--shots must be at most {_INT64_MAX}')\n"
            "    raise ValueError(f'the model has {m} settings per side, not {n}')\n"
        )
        library_source = (
            "def _check_run(table, n, shots):\n"
            "    raise ValueError('shots must be at least 1')\n"
            "def simulate_shots(source, n, shots, seed):\n"
            "    raise ValueError(f'the model has {model.n_settings} settings per side, not {n}')\n"
        )
        assert repeated_checks(cli_source, library_source) == [
            "line 5: shots must be at least 1",
            "line 7: the model has {} settings per side, not {}"]


PARSE_CALLS = ("parse_args", "parse_known_args")


def parse_callers(source: str) -> list[str]:
    """The functions of a module that call ``parse_args`` or
    ``parse_known_args``, "<module>" for a call outside every function."""
    return owners(source, lambda node: isinstance(node, ast.Call)
                  and _called_name(node) in PARSE_CALLS)


def asdict_imports(source: str) -> list[str]:
    """Lines of a module that import ``asdict`` from ``dataclasses`` or read
    it off the module, as "line N"."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
            and any(alias.name in ("asdict", "*") for alias in node.names)
            or isinstance(node, ast.Attribute) and node.attr == "asdict"
            and isinstance(node.value, ast.Name) and node.value.id == "dataclasses"]


class TestOneParse:
    """One function reads a command line: it hands the rest of an argv that
    starts with a subcommand to that subcommand's parser, and every other
    argv to the full parser.  Report records become dicts field by field,
    never through ``asdict``, which deep-copies every value."""

    def modules(self):
        return sorted((ROOT / "src" / "chainedbell").glob("*.py"))

    def test_only_the_dispatch_parses(self):
        found = [f"{path.name}:{name}" for path in self.modules()
                 for name in parse_callers(path.read_text())]
        assert found == ["cli.py:_parse"]

    def test_no_module_imports_asdict(self):
        found = {path.name: lines for path in self.modules()
                 if (lines := asdict_imports(path.read_text()))}
        assert found == {}

    def test_the_checks_see_a_planted_violation(self):
        source = (
            "import dataclasses\n"
            "from dataclasses import asdict, fields\n"
            "from dataclasses import *\n"
            "args = build_parser().parse_args()\n"
            "def _parse(argv):\n"
            "    args, extras = command.parse_known_args(argv[1:])\n"
            "    return parser.parse_args(argv)\n"
            "def cmd_check(args):\n"
            "    \"\"\"Not parse_args(argv): a docstring is no call.\"\"\"\n"
            "    return {'report': dataclasses.asdict(report)}\n"
            "def main(argv):\n"
            "    def again():\n"
            "        return _parsers()[1]['qm'].parse_args(argv)\n"
            "    return dataclasses.fields(report)\n"
        )
        assert parse_callers(source) == ["<module>", "_parse", "again"]
        assert asdict_imports(source) == ["line 2", "line 3", "line 10"]


class TestNFromTheData:
    """Entry points that are given a table, a model's responses or count
    arrays read N from them; none takes N beside them."""

    ENTRY_POINTS = (chainedbell.evaluate_chain, chainedbell.sample_counts,
                    chainedbell.simulate_shots, chainedbell.simulate_shots_csv,
                    chainedbell.estimate_from_counts, chainedbell.HiddenVariableModel)

    def test_no_entry_point_takes_n(self):
        found = {fn.__name__: name for fn in self.ENTRY_POINTS
                 for name in inspect.signature(fn).parameters if name in ("n", "n_settings")}
        assert found == {}

    def test_the_package_exports_no_table_model(self):
        assert not hasattr(chainedbell, "table_model")

    def test_counts_and_mismatches_of_other_shapes_are_rejected(self):
        counts = np.full((4, 4), 10)
        with pytest.raises(ValueError, match="must be \\(N, N\\) arrays"):
            experiment.estimate_from_counts(counts, np.zeros((3, 3), dtype=int), 0.99)
        with pytest.raises(ValueError, match="must be \\(N, N\\) arrays"):
            experiment.estimate_from_counts(counts[:3], counts[:3] * 0, 0.99)


def _named_visibility(node: ast.AST) -> bool:
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name == "visibility"


def mixes_visibility(node: ast.AST) -> bool:
    """An arithmetic node with an operand named ``visibility``, bare or as
    an attribute."""
    if isinstance(node, ast.BinOp):
        return _named_visibility(node.left) or _named_visibility(node.right)
    if isinstance(node, ast.AugAssign):
        return _named_visibility(node.target) or _named_visibility(node.value)
    return False


class TestOneQuantumSource:
    """The visibility-v quantum table is built by one function and its
    chain value has one closed form: no other function of ``src/`` does
    arithmetic on a visibility."""

    def test_the_package_exports_no_second_source(self):
        for name in ("mix_with_noise", "quantum_chain_closed_form"):
            assert not hasattr(chainedbell, name), name

    def test_only_the_builder_and_the_closed_form_mix(self):
        found = sorted(f"{path.name}:{name}"
                       for path in sorted((ROOT / "src" / "chainedbell").glob("*.py"))
                       for name in owners(path.read_text(), mixes_visibility))
        assert found == ["chained.py:noisy_chain_closed_form",
                         "quantum.py:qm_chained_distribution"]

    def test_the_check_sees_a_planted_violation(self):
        source = (
            "def qm_chained_distribution(n, visibility=1.0):\n"
            "    table *= visibility\n"
            "def mix_with_noise(p, visibility):\n"
            "    '''visibility * p.table, in a docstring, is no arithmetic.'''\n"
            "    return visibility * p.table + (1.0 - visibility) * 0.25\n"
            "def cmd_qm(args):\n"
            "    v = 1.0 if args.visibility is None else args.visibility\n"
            "    return [v] * 3\n"
            "def cmd_scan(args):\n"
            "    return args.visibility * 2.0\n"
            "def scale(table, visibility):\n"
            "    def inner():\n"
            "        table[0] -= visibility\n"
            "    return inner\n"
        )
        assert owners(source, mixes_visibility) == ["cmd_scan", "inner", "mix_with_noise",
                                                    "qm_chained_distribution"]


def sized_table_constructions(source: str) -> list[str]:
    """Lines of a module that pass ``ConditionalDistribution`` anything but
    the one table, as "line N"."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and _called_name(node) == "ConditionalDistribution"
            and (len(node.args) != 1 or node.keywords or isinstance(node.args[0], ast.Starred))]


class TestTableCarriesItsSizes:
    """A table's party count and alphabets are its array's shape: the
    constructor takes the table alone, and no caller passes it sizes."""

    def test_the_constructor_takes_only_the_table(self):
        assert list(inspect.signature(chainedbell.ConditionalDistribution).parameters) == ["table"]

    def test_no_call_passes_sizes(self):
        found = {f"{path.parent.name}/{path.name}": lines
                 for path in sorted([*(ROOT / "src" / "chainedbell").glob("*.py"),
                                     *(ROOT / "tests").glob("*.py")])
                 if (lines := sized_table_constructions(path.read_text()))}
        assert found == {}

    def test_the_check_sees_a_planted_violation(self):
        source = (
            "from .distributions import ConditionalDistribution\n"
            "p = ConditionalDistribution(table)\n"
            "q = ConditionalDistribution(inputs, outputs, table)\n"
            "r = distributions.ConditionalDistribution(table, copy=False)\n"
            "s = ConditionalDistribution(*parts)\n"
            "t = isinstance(p, ConditionalDistribution)\n"
        )
        assert sized_table_constructions(source) == ["line 3", "line 4", "line 5"]


def opens_to_write(node: ast.AST) -> bool:
    """A call of ``open`` (a path's too) whose mode writes, a mode that is
    not a literal counting as one, or of ``write_text`` or ``write_bytes``."""
    if not isinstance(node, ast.Call):
        return False
    if _called_name(node) in ("write_text", "write_bytes"):
        return True
    at = 1 if isinstance(node.func, ast.Name) else 0  # open(path, mode), path.open(mode)
    modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[at:at + 1]
    return _called_name(node) == "open" and any(
        not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes)


def reads_columns(node: ast.AST) -> bool:
    """A read of the shot CSV header ``_COLUMNS``, by name or off a module."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name == "_COLUMNS" and isinstance(getattr(node, "ctx", None), ast.Load)


class TestOneShotWriter:
    """One function writes shot CSVs: ``simulate_shots_csv`` writes every
    stream, a wide one row by row from ``simulate_shots``'s blocks, and the
    CSV header is read only where a shot CSV is written or read."""

    def source(self):
        return (ROOT / "src" / "chainedbell" / "experiment.py").read_text()

    def test_only_simulate_shots_csv_opens_a_file_to_write(self):
        assert owners(self.source(), opens_to_write) == ["simulate_shots_csv"]

    def test_only_the_writer_and_the_reader_read_the_header(self):
        assert owners(self.source(), reads_columns) == ["read_shots_csv", "simulate_shots_csv"]

    def test_no_block_stream_writer_is_exported(self):
        assert not hasattr(chainedbell, "write_shots_csv")
        assert not hasattr(experiment, "write_shots_csv")

    def test_the_checks_see_a_planted_violation(self):
        source = (
            "_COLUMNS = ('a', 'b', 'x', 'y')\n"
            "def simulate_shots_csv(path):\n"
            "    with open(path, 'w', newline='') as fh:\n"
            "        fh.write(','.join(_COLUMNS))\n"
            "def read_shots_csv(path):\n"
            "    \"\"\"Not open(path, 'w'), nor _COLUMNS: a docstring is no code.\"\"\"\n"
            "    with open(path, newline='') as fh:\n"
            "        return experiment._COLUMNS\n"
            "def _start_csv(fh, width):\n"
            "    fh.write(','.join(_COLUMNS[:width]))\n"
            "def write_shots_csv(blocks, path):\n"
            "    with open(path, mode='a') as fh:\n"
            "        return blocks\n"
            "def dump(path, mode):\n"
            "    return path.open(mode)\n"
            "def save(path):\n"
            "    path.write_text('')\n"
            "def load(path):\n"
            "    return path.open('rb'), open(path, 'r')\n"
        )
        assert owners(source, opens_to_write) == ["dump", "save", "simulate_shots_csv",
                                                  "write_shots_csv"]
        assert owners(source, reads_columns) == ["_start_csv", "read_shots_csv",
                                                 "simulate_shots_csv"]
