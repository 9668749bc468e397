"""Reference external-solver bridge backed by the HiGHS core bundled with scipy.

Usage: ``python -m robust_rcpsp.highs_bridge MODEL.lp OUT.sol [TIME_S] [WARM.mst]``

``TIME_S`` is a finite number of seconds, at least 0; 0, the default, means
no limit.  Any other ``TIME_S`` exits 2.  ``WARM.mst`` is a warm-start file
of ``name value`` lines, as ``milp.export_warm_start`` writes it; an empty
argument, which a quoted ``'{mst}'`` becomes for a model without a warm
start, means none.

HiGHS reads the LP file written by :mod:`robust_rcpsp.milp` itself and
solves it.  The bridge then writes the solution-file contract expected by
``solve_external``: a status line (status word, plus the best bound when the
model has integer columns, a solution was found and the bound is finite,
since ``solve_external`` rejects a non-finite one) followed by one
``name value`` line per variable.  A warm start is handed to HiGHS with
``setSolution`` before the solve, each name mapped to its column in
``getLp().col_names_``; a column the file does not name is left undefined
for HiGHS to complete.  A line that is not a name and a finite number, or
a name that is not a column of the model, exits 1 with a message on stderr.

The HiGHS extension ``scipy/optimize/_highspy/_core`` is loaded straight
from its file, inside :func:`solve_lp_file`.  Neither ``scipy.optimize``,
``scipy.sparse`` nor numpy is imported, so a solver process starts in a
fraction of the time an ``import scipy.optimize`` takes.  If the extension
cannot be found the bridge exits 1 with a message on stderr.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from functools import cache
from pathlib import Path

from .errors import BridgeError

_CORE = "scipy.optimize._highspy._core"


def status_word(model_status: str, objective: float) -> str:
    """The solution-file status word of a ``HighsModelStatus`` member name.

    A time or iteration limit counts as ``feasible`` only when HiGHS holds a
    solution, which it signals by a finite objective value.
    """
    if model_status == "kOptimal":
        return "optimal"
    if model_status in ("kTimeLimit", "kIterationLimit"):
        return "feasible" if math.isfinite(objective) else "timeout"
    if model_status == "kInfeasible":
        return "infeasible"
    return "error"


@cache
def load_core():
    """The HiGHS extension module, loaded without running scipy's packages."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise BridgeError("scipy is not installed; the HiGHS bridge needs its bundled HiGHS")
    folder = Path(spec.submodule_search_locations[0], "optimize", "_highspy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_core{suffix}"
        if path.exists():
            loader = importlib.machinery.ExtensionFileLoader(_CORE, str(path))
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_loader(_CORE, loader))
            loader.exec_module(module)
            return module
    raise BridgeError(f"no HiGHS extension _core in {folder}; the bridge needs "
                      "a scipy that ships optimize/_highspy/_core")


def read_model(lp_path):
    """A silent HiGHS solver holding the model HiGHS reads from the LP file."""
    core = load_core()
    highs = core._Highs()
    highs.setOptionValue("output_flag", False)
    if highs.readModel(str(lp_path)) == core.HighsStatus.kError:
        raise BridgeError(f"HiGHS could not read {lp_path}")
    return highs


def set_warm_start(highs, mst_path):
    """Hand HiGHS the column values of the warm-start file ``mst_path``."""
    core = load_core()
    try:
        text = Path(mst_path).read_text()
    except OSError as exc:
        raise BridgeError(f"cannot read the warm start {mst_path}: {exc}") from exc
    names = highs.getLp().col_names_
    column = {name: col for col, name in enumerate(names)}
    values = [math.inf] * len(names)  # HiGHS's kHighsUndefined: a value to complete
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            name, value = line.split()
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(value)
        except ValueError:
            raise BridgeError(f"{mst_path} line {lineno}: expected a name and a finite "
                              f"value, not {line!r}") from None
        if name not in column:
            raise BridgeError(f"{mst_path} line {lineno}: {name!r} is not a column of the model")
        values[column[name]] = value
    solution = core.HighsSolution()
    solution.col_value = values
    solution.value_valid = True
    if highs.setSolution(solution) == core.HighsStatus.kError:
        raise BridgeError(f"HiGHS rejected the warm start {mst_path}")


def solve_lp_file(lp_path, sol_path, time_limit_s=None, mst_path=None):
    core = load_core()
    highs = read_model(lp_path)
    if mst_path:
        set_warm_start(highs, mst_path)
    if time_limit_s:
        highs.setOptionValue("time_limit", float(time_limit_s))
    highs.run()
    info = highs.getInfo()
    status = status_word(highs.getModelStatus().name, info.objective_function_value)

    lines = [status]
    if status in ("optimal", "feasible"):
        lp = highs.getLp()
        bound = info.mip_dual_bound
        if math.isfinite(bound) and any(kind != core.HighsVarType.kContinuous
                                        for kind in lp.integrality_):
            lines[0] = f"{status} {bound}"
        for name, value in zip(lp.col_names_, highs.getSolution().col_value):
            lines.append(f"{name} {_clean(value)}")
    Path(sol_path).write_text("\n".join(lines) + "\n")
    return status


def _clean(value):
    rounded = round(value)
    if abs(value - rounded) < 1e-9:
        return str(int(rounded))
    return f"{value:.12g}"


def main(argv):
    try:
        lp_path, sol_path = argv[0], argv[1]
        time_limit = float(argv[2]) if len(argv) > 2 else 0.0
        if not 0 <= time_limit < math.inf:
            raise ValueError(time_limit)
        mst_path = argv[3] if len(argv) > 3 else ""
    except (IndexError, ValueError):  # too few arguments, or TIME_S not a finite number >= 0
        print(__doc__, file=sys.stderr)
        return 2
    try:
        solve_lp_file(lp_path, sol_path, time_limit if time_limit > 0 else None, mst_path)
    except BridgeError as exc:
        print(f"highs_bridge: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
