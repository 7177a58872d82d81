"""The workloads' timed operations, and the peak resident memory of this process.

Each operation is a fixed list of calls into the program and returns
(output, step times): every call is timed on its own.  They run in
children forked from the benchmark and, once per round, in a fresh
interpreter that measures peak memory; this module is imported there, so
it stays free of heavy imports.
"""

from __future__ import annotations

import resource
import time


def coeffs(poly) -> list:
    """Coefficients of a polynomial result, ascending."""
    return list(getattr(poly, "coeffs", poly))


def op_recursion(ez, k):
    clock = time.perf_counter
    values, steps = [], []
    for j in range(1, k + 1):
        begin = clock()
        values.append(ez.zeta_numerator(j))
        steps.append(clock() - begin)
    begin = clock()
    poly = ez.numerator_polynomial(k)
    translated = ez.translated_polynomial(k, half_scale=True)
    steps.append(clock() - begin)
    return (values, coeffs(poly), coeffs(translated)), steps


def op_trees_odd(ez, k):
    clock = time.perf_counter
    begin = clock()
    poly = ez.polynomial_via_trees(k)
    middle = clock()
    value = ez.generalized_transform(k)
    end = clock()
    return (coeffs(poly), value), [middle - begin, end - middle]


def op_trees_rational(ez, k, specs):
    clock = time.perf_counter
    values, steps = [], []
    for spec in specs:
        begin = clock()
        values.append(ez.generalized_transform(k, spec))
        steps.append(clock() - begin)
    return values, steps


def solve(ez, inp: dict):
    """The workload's timed operation at its fixed size, on inputs from inputs.build."""
    k = inp["k"]
    if inp["workload"] == "recursion":
        return op_recursion(ez, k)
    if inp["workload"] == "trees-odd":
        return op_trees_odd(ez, k)
    return op_trees_rational(ez, k, [ez.SequenceSpec(s) for s in inp["sequences"]])


def peak_rss_kb() -> int:
    """This process's peak resident set in KB.

    On Linux this is VmHWM, the high-water mark of the address space that
    exec created, so it holds only this interpreter's own pages.  ru_maxrss,
    the fallback elsewhere, can also carry the peak of the process that
    started this one.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
