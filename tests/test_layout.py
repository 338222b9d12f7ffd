"""Package layout: every name a ``stia`` module imports is used there or re-exported; the knobs are listed."""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stia

_SRC = Path(stia.__file__).parent

# Imports kept only so perfbench's tracer can wrap the function at that lookup site.
# ROADMAP items 3 and 4 (stage records inside the package, read by perfbench) remove them.
_PERFBENCH_LOOKUP_SITES = (("protocol", "build_stia_precoders"), ("precoding", "solve_right"))


def _unused_imports(path: Path) -> set[str]:
    """Names ``path`` imports that it neither reads nor lists in ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return imported - used - exported


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.stem)
def test_every_import_is_used_or_exported(path):
    # Equality: a lookup site that is gone, or read again, must also leave the tuple.
    allowed = {name for module, name in _PERFBENCH_LOOKUP_SITES if module == path.stem}
    assert _unused_imports(path) == allowed


def _linalg_callers(names: set[str]) -> set[str]:
    """The stia modules that import or look up any of ``names`` from a ``linalg`` module."""
    callers = set()
    for path in sorted(_SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.endswith("linalg"):
                used = {a.name for a in node.names}
            elif isinstance(node, ast.Attribute) and ast.unparse(node.value).endswith("linalg"):
                used = {node.attr}
            else:
                continue
            if used & names:
                callers.add(path.stem)
    return callers


def test_only_numerics_calls_a_lapack_solve():
    # One condition guard: every inverse, decode and rank flag goes through numerics._guarded_solve,
    # which alone calls LAPACK's inv. The DoF slope is a fixed weighted sum, not a least-squares solve.
    assert _linalg_callers({"solve", "inv", "lstsq", "pinv"}) == {"numerics"}


def test_no_module_calls_an_svd():
    # The guard's kappa_F stands in for kappa_2 everywhere, so no stia code needs singular values.
    assert _linalg_callers({"svd", "svdvals", "cond", "matrix_rank", "pinv"}) == set()


def test_every_public_name_is_reached_by_a_user():
    # The package exports what the README, a demo or the acceptance gate uses; other public names
    # stay importable from their modules.
    root = Path(__file__).resolve().parent.parent
    readers = [root / "README.md", root / "tests" / "test_acceptance.py", *sorted((root / "demos").glob("*.py"))]
    words = set(re.findall(r"\w+", "\n".join(p.read_text(encoding="utf-8") for p in readers)))
    assert sorted(set(stia.__all__) - words) == []


# Every keyword default of a function or class method defined in src/stia, as module.function(param).
# A new knob fails this test, so it is added here, and reviewed, on purpose.
_KNOBS = [
    "analysis.estimate_dof_slope(rounds_per_trial)",
    "analysis.estimate_dof_slope(threads)",
    "cli.main(argv)",
    "protocol.run_stia_round(noise_std)",
    "protocol.run_stia_round(power)",
    "protocol.run_stia_round(rng)",
    "protocol.run_stia_round(snr_linear)",
    "verify.plan_suite(k_values)",
    "verify.plan_suite(n_max)",
    "verify.power_suite(seed)",
    "verify.power_suite(trials)",
    "verify.round_sweep(inject_fault)",
    "verify.run_all(inject_fault)",
    "verify.run_all(k_values)",
    "verify.run_all(rounds)",
    "verify.run_all(seed)",
]


def _functions(module):
    """(qualified name, function) for the module's own functions and its own classes' methods.

    A dataclass ``__init__`` is generated from the fields, so its defaults are field defaults, not knobs.
    """
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)  # classmethod, staticmethod
                if inspect.isfunction(member) and not (attr == "__init__" and dataclasses.is_dataclass(obj)):
                    yield f"{name}.{attr}", member


def test_every_keyword_default_is_a_listed_knob():
    knobs = []
    for path in sorted(_SRC.glob("*.py")):
        module = importlib.import_module(f"stia.{path.stem}".removesuffix(".__init__"))
        for name, fn in _functions(module):
            knobs += [f"{path.stem}.{name}({p.name})" for p in inspect.signature(fn).parameters.values()
                      if p.default is not p.empty]
    assert sorted(knobs) == _KNOBS


# The variables OpenBLAS reads its thread count from, in the order it reads them.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh_child(code: str, **preset: str) -> str:
    """Stdout of ``code`` run by a fresh interpreter that imports stia from this checkout,
    with only ``preset`` of the BLAS thread variables set."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    env.update(preset, PYTHONPATH=os.pathsep.join(filter(None, (str(_SRC.parent), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_importing_the_package_and_cli_loads_no_thread_pool():
    # estimate_dof_slope imports the pool only when it runs threads.
    assert _fresh_child("import sys, stia, stia.cli; print('concurrent.futures' in sys.modules)") == "False"


def test_importing_the_package_first_runs_openblas_on_one_thread():
    code = ("import json, os, stia, stia.cli, numpy; print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), "
            "numpy.__config__.CONFIG['Build Dependencies']['blas']['name'], "
            "len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None]))")
    setting, blas, threads = json.loads(_fresh_child(code))
    assert setting == "1"
    if threads is None or "openblas" not in blas.lower():
        pytest.skip(f"no per-thread listing in /proc, or numpy's BLAS ({blas}) is not OpenBLAS")
    assert threads == 1


@pytest.mark.parametrize("preset", [{"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}], ids=lambda p: next(iter(p)))
def test_a_blas_thread_count_the_user_set_is_kept(preset):
    code = f"import json, os, stia, stia.cli; print(json.dumps([os.environ.get(v) for v in {_BLAS_THREAD_VARS!r}]))"
    assert json.loads(_fresh_child(code, **preset)) == [preset.get(v) for v in _BLAS_THREAD_VARS]
