import ast
import importlib.util
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from conftest import REPO


def _git(*args):
    return subprocess.run(["git", "-C", str(REPO), *args],
                          capture_output=True, text=True)


def test_no_tracked_file_is_gitignored():
    # Build outputs and logs belong in .gitignore, never in the tree.
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    top = _git("rev-parse", "--show-toplevel")
    if (top.returncode != 0
            or pathlib.Path(top.stdout.strip()).resolve() != REPO):
        pytest.skip("the checkout is not a git work tree")
    listed = _git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout.splitlines() == []


def _python_files():
    for path in sorted(REPO.rglob("*.py")):
        parts = path.relative_to(REPO).parts
        if not any(part.startswith(".") or part == "build" for part in parts):
            yield path


def _public_definitions(tree):
    """(qualified name, name) of public functions, classes and methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.name


def _is_caller(path):
    """Whether a use in ``path`` makes a public definition pay its way.

    The library, the benchmark, the tools and the acceptance suite count;
    the package's re-exports and the other tests do not, so that no
    public code is kept only for the tests that test it.
    """
    package = REPO / "src" / "conjparse"
    if path.is_relative_to(package):
        return path != package / "__init__.py"
    return (path.is_relative_to(REPO / "perfbench")
            or path.is_relative_to(REPO / "tools")
            or path == REPO / "tests" / "test_acceptance.py")


def test_every_public_definition_is_used():
    # Code that nothing calls is kept in step by hand for nothing.
    used = set()
    definitions = []
    for path in _python_files():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree) if _is_caller(path) else ():
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
        if path.is_relative_to(REPO / "src" / "conjparse"):
            definitions += [(f"{path.stem}.{qualified}", name)
                            for qualified, name in _public_definitions(tree)]
    assert definitions
    assert [qualified for qualified, name in definitions if name not in used] == []


def _benchmark_pins():
    """(module, name) pairs of ``IMPORTED_BY_NAME`` in perfbench's tests.

    The benchmark's tracer wraps these names where they are imported, so
    a module may import one it does not call.  Read from the source:
    importing that file puts perfbench's directory on ``sys.path``.
    """
    path = REPO / "perfbench" / "test_perfbench.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["IMPORTED_BY_NAME"]):
            return {(module.id, name.value)
                    for module, name, _ in (entry.elts for entry in node.value.elts)}
    return set()


def test_every_imported_name_is_used():
    # An import that nothing reads keeps a dependency alive for nothing.
    pins = _benchmark_pins()
    assert pins
    unused = []
    for path in sorted((REPO / "src" / "conjparse").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in read and (path.stem, bound) not in pins:
                        unused.append(f"{path.stem}.{bound}")
    assert unused == []


def test_importing_the_package_starts_no_thread():
    # Any thread the library starts must live inside a call.
    code = ("import threading, conjparse, conjparse.cli, conjparse.corpus_stats; "
            "print([thread.name for thread in threading.enumerate()])")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, cwd=REPO)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['MainThread']"


def test_generated_data_matches_its_generator(tmp_path, monkeypatch):
    # The generator puts src/ on sys.path when imported; undo that afterwards.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "make_sample_treebank", REPO / "tools" / "make_sample_treebank.py")
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    monkeypatch.setattr(generator, "ROOT", tmp_path)
    generator.main()
    for name in ("data/sample_treebank.conllx", "tests/data/sample23.conllx",
                 "data/embeddings_sample.txt"):
        assert (tmp_path / name).read_bytes() == (REPO / name).read_bytes(), name
