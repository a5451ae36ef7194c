"""Tests for the package's public names and what importing it loads."""

import ast
import ctypes
import importlib
import os
import subprocess
import sys
import textwrap
import tomllib
from pathlib import Path

import numpy as np
import pytest
from packaging.requirements import Requirement

import speclab

#: Every name the package exported before its export list was written once,
#: less the names that left the package, plus the packed-model lookups.
PUBLIC_NAMES = [
    "GREEDY", "TabularModel", "Vocabulary", "as_distribution",
    "load_model", "lookup_rows", "make_synthetic_target",
    "next_distribution", "sample_sequences",
    "save_model", "GateConfig", "apply_gate", "DEPENDENT", "INDEPENDENT", "STOCHASTIC",
    "DecodeTrace", "decode_loop",
    "CAT", "DECAY", "UNIFORM", "TrainConfig", "TrainingWindows", "build_training_windows",
    "cat_weights", "sample_corpus", "train_tabular_drafter", "BenchReport",
    "run_bench",
]
#: Names that left the package; the scalar ones live on in tests/oracles.py.
REMOVED_NAMES = [
    "CatWeights", "TrainingWindow", "window_loss", "build_ngram_model",
    "generate_autoregressive", "padded_suffix", "expected_accept_length",
    "DraftProposal", "compute_feature", "masked_context", "propose", "PositionRecord",
    "VerificationOutcome", "accept_prob", "residual_distribution", "verify_greedy",
    "verify_stochastic", "SAMPLE", "greedy_token", "sample_token", "CostModel",
]


def test_every_public_name_still_imports_from_the_package():
    assert [name for name in PUBLIC_NAMES if not hasattr(speclab, name)] == []


def test_window_losses_is_public():
    from speclab import training, window_losses

    assert window_losses is training.window_losses


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_removed_name_is_gone(name):
    for module in ("speclab", "speclab.models", "speclab.drafting", "speclab.training",
                   "speclab.verification", "speclab.bench"):
        assert not hasattr(importlib.import_module(module), name)


def test_importing_speclab_loads_no_scipy():
    # NumPy is the one runtime dependency; scipy is for tests and perfbench.
    code = ("import speclab, speclab.cli, sys; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    src = str(Path(speclab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.strip() == "[]"


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):  # no C library to load by None (Windows)
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
def test_importing_speclab_keeps_freed_heap_between_loads(tmp_path):
    # Without the import's malloc policy, glibc trims the heap a load frees
    # and the next load faults it back in: about 130 minor faults per load
    # of this 290-row model. With it, the loads after a warm-up reuse it.
    code = textwrap.dedent("""
        import resource, sys
        import speclab

        path = sys.argv[1]
        speclab.save_model(speclab.make_synthetic_target(0, 16, 2, 0.3), path)
        for _ in range(5):
            speclab.load_model(path)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            speclab.load_model(path)
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
    """)
    src = str(Path(speclab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path / "t.ngm")],
                            capture_output=True, text=True, env=env, check=True)
    assert float(result.stdout) < 10


def test_numpy_meets_the_declared_floor():
    # The floor is the release the tests run on; the .ngm reader's array
    # parse needs at least np.bitwise_count, new in NumPy 2.0.
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    requires = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["dependencies"]
    (numpy,) = [Requirement(r) for r in requires if Requirement(r).name == "numpy"]
    assert numpy.specifier.contains(np.__version__, prereleases=True), np.__version__


#: The package's modules but ``__init__.py``, whose imports but ``ctypes`` re-export.
MODULES = sorted(path.name for path in Path(speclab.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    # The unused-import check: every name a module imports is read in it,
    # unless its import line says ``# noqa: F401``.
    source = (Path(speclab.__file__).parent / module).read_text(encoding="utf-8")
    lines, tree = source.splitlines(), ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}
