"""Pinned optimizer trajectories and the package's structure: its imports
and the one module each shared rule lives in.

The optimizers are deterministic, so their sweep counts, convergence
flags and values are fixed for a given input.  Pinning them makes any
change to the shared line search, the restart tie rule or the Haar start
streams visible, even when the optimum itself would still be reached.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import infopurity
from infopurity import (
    OptimizerConfig,
    accessible_info_opt,
    depolarized_scrooge_povm,
    eig_hermitian,
    informational_power_opt,
    optimal_commuting_ensemble,
    symmetric_upper_bound,
)
from infopurity.infomeasures import _see_saw_restarts, _symmetric_descent

PACKAGE = Path(infopurity.__file__).parent


@pytest.mark.parametrize(
    "n, purity, sweeps, value, sym_value",
    [
        (2, 0.7, 57, 0.21608162004978376, 0.21608162004978393),
        (3, 0.5, 77, 0.40546510810816455, 0.4054651081081645),
        (4, 0.4, 93, 0.40616215068068195, 0.40616215068068207),
    ],
)
def test_accessible_info_trajectory(n, purity, sweeps, value, sym_value):
    # the see-saw and the descent that the certified exits skip on these
    # commuting ensembles, from the starts the public calls would use
    ensemble = optimal_commuting_ensemble(n, purity)
    _, avg_basis = eig_hermitian(ensemble.average.op)
    _, iterations, converged, records = _see_saw_restarts(
        ensemble, avg_basis, OptimizerConfig()
    )
    assert iterations == sweeps
    assert converged is True
    assert max(rec.value for rec in records) == pytest.approx(value, abs=1e-12)
    sigmas = np.stack([s.matrix for s in ensemble.states])
    descent = math.log(n) + n * _symmetric_descent(sigmas, ensemble.weights, avg_basis)
    assert descent == pytest.approx(sym_value, abs=1e-12)

    res = accessible_info_opt(ensemble)
    assert res.iterations == 0
    assert res.converged is True
    assert res.value == pytest.approx(value, abs=1e-12)
    assert symmetric_upper_bound(ensemble) == pytest.approx(sym_value, abs=1e-12)


@pytest.mark.parametrize(
    "args, sweeps, value",
    [
        ((2, 0.9, 16, 5), 88, 0.19485543121794147),
        ((2, 0.85, 64, 6), 108, 0.15719915881262456),
        ((3, 0.9, 27, 7), 158, 0.31147498142276775),
    ],
)
def test_informational_power_trajectory(args, sweeps, value):
    res = informational_power_opt(depolarized_scrooge_povm(*args))
    assert res.iterations == sweeps
    assert res.converged is True
    assert res.value == pytest.approx(value, abs=1e-12)


def test_no_import_inside_functions():
    # the modules import each other only at the top, so the import graph
    # is visible at a glance and has no cycle hidden behind a lazy import
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno} in {fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert found == []


def _write_mode(call: ast.Call) -> bool:
    # the mode of open(path, mode) or open(path, mode=...), "r" if absent
    mode = call.args[1] if len(call.args) > 1 else None
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), mode)
    return isinstance(mode, ast.Constant) and any(c in str(mode.value) for c in "wax+")


def _constant(node):
    # the value of a literal, with its sign
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = _constant(node.operand)
        return None if value is None else -value
    return node.value if isinstance(node, ast.Constant) else None


def _called(node, name: str) -> bool:
    return isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None),
        getattr(node.func, "attr", None),
    )


def _probability_rule(node) -> str | None:
    # a minimum compared with the -1e-12 floor, or abs(x - 1.0) compared
    # with the 1e-10 sum tolerance
    if not isinstance(node, ast.Compare):
        return None
    sides = [node.left, *node.comparators]
    consts = {_constant(side) for side in sides}
    if -1e-12 in consts and any(_called(side, "min") for side in sides):
        return "probability floor"
    distance_from_one = any(
        _called(side, "abs")
        and isinstance(side.args[0], ast.BinOp)
        and isinstance(side.args[0].op, ast.Sub)
        and 1.0 in (_constant(side.args[0].left), _constant(side.args[0].right))
        for side in sides
    )
    if 1e-10 in consts and distance_from_one:
        return "probability sum tolerance"
    return None


def test_shared_rules_have_one_home():
    # the log floor and the harmonic sums live in entropy.py (other modules
    # read H_k through the cached entropy._table record), file writes in
    # fileio.py, the probability rule in _checks.py, the curve kernels
    # behind tradeoff's public names (cli.py imports no private tradeoff
    # name), and the package reads no environment variable
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            rule = _probability_rule(node)
            if rule and path.name != "_checks.py":
                found.append(f"{where} {rule}")
            if isinstance(node, ast.Constant) and node.value == 1e-300:
                if path.name != "entropy.py":
                    found.append(f"{where} log floor")
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "open"
                and _write_mode(node)
                and path.name != "fileio.py"
            ):
                found.append(f"{where} open for writing")
            if isinstance(node, ast.Call) and path.name != "entropy.py":
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in ("cumsum", "_binomial_terms"):
                    found.append(f"{where} {name} call")
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                found.append(f"{where} environment read")
            if (
                isinstance(node, ast.ImportFrom)
                and path.name == "cli.py"
                and node.module == "tradeoff"
                and any(alias.name.startswith("_") for alias in node.names)
            ):
                found.append(f"{where} private tradeoff import")
    assert found == []
