#!/usr/bin/env python3
"""The evenzeta benchmark: one workload per invocation, every output checked.

Usage:
    python3 evenbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see README.md for why each was chosen):
    recursion       cold zeta_numerator(1..K) sweeps, then translated_polynomial(K)
    trees-odd       polynomial_via_trees(K) and the odd-sequence transform
    trees-rational  generalized_transform(K) over seeded random rational sequences

A run repeats whole rounds of the same operations until S seconds have
passed.  Every round runs the workload's timed operations in fresh forked
children, each after a fresh interpreter that measures set-up time, runs
the operation once more in a fresh interpreter that measures peak memory,
and probes the largest k that fits the workload's budget.  With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics; with --trace 1 every
program call is traced and the line carries the per-layer metrics instead.
A results file and, when traced, a trace file go to evenbench/out/.

The package is imported from the src/ directory next to this one, never
from an installed copy.  Exit code 0 means every output was correct; 1
means an output was wrong; 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import pickle
import platform
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import ops  # noqa: E402
import proc  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402

MIN_ROUNDS = 2
# A recursion probe sweeps on until its steps add up to this many budgets,
# so that sweeps slowed by the host still time the steps near max_k.
SWEEP_SLACK = 2.0
OP_TIMEOUT_S = 120.0  # a hung operation is killed and counted as failed

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "max_k": "k",
    "peak_rss_mb": "MB",
}

SUITES = (
    "newton-girard", "cycle-index", "trees", "coeffs", "bernoulli",
    "fn", "positivity", "leading", "lemma-2ni",
)
PER_LAYER = {
    "trees.walk_s": "s",
    "trees.polynomial_via_trees_s": "s",
    "trees.generalized_transform_s": "s",
    "recursion.factor_product_s": "s",
    "recursion.factor_product_calls": "count",
    "polynomials.add_s": "s",
    "polynomials.add_calls": "count",
    "recursion.numerator_polynomial_s": "s",
    "recursion.apply_step_s": "s",
    "recursion.apply_step_calls": "count",
    "recursion.translated_polynomial_s": "s",
    "polynomials.mul_s": "s",
    "polynomials.mul_calls": "count",
    "polynomials.evaluate_s": "s",
    "polynomials.divide_linear_exact_s": "s",
    "polynomials.compose_affine_s": "s",
    "sequences.product_s": "s",
    "sequences.product_calls": "count",
    "zeta.zeta_even_rational_s": "s",
    "zeta.bernoulli_classical_s": "s",
    "symmetric.newton_girard_check_s": "s",
    "symmetric.cycle_index_elementary_s": "s",
    **{f"verify.suite.{name}_s": "s" for name in SUITES},
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.process_s": "s",
}

SETUP_CODE = """\
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import evenzeta, inputs
inputs.build(sys.argv[3], int(sys.argv[4]), sys.argv[5] == "1")
print(evenzeta.__file__)
"""

# The timed operation once, in a fresh interpreter whose peak memory is its own.
MEMORY_CODE = """\
import pickle, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import evenzeta, inputs, ops
out, _ = ops.solve(evenzeta, inputs.build(sys.argv[3], int(sys.argv[4]), sys.argv[5] == "1"))
sys.stdout.buffer.write(pickle.dumps((evenzeta.__file__, out, ops.peak_rss_kb())))
"""


class BenchError(Exception):
    """The benchmark cannot run here (exit code 2)."""


def load_package():
    init = SRC / "evenzeta" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no package source at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import evenzeta

    if Path(evenzeta.__file__).resolve() != init.resolve():
        raise BenchError(f"evenzeta was imported from {evenzeta.__file__}, not from src/")
    return evenzeta


def check_recursion(ref, k: int, out) -> None:
    values, poly, translated = out
    reference.check_numerators(ref, values)
    reference.check_polynomial(ref, k, poly)
    reference.check_translated(ref, k, translated)


def check_trees_odd(ref, k: int, out) -> None:
    poly, value = out
    reference.check_polynomial(ref, k, poly)
    reference.check_odd_transform(ref, k, value)


def timed_target(send, fn, args, recorder, then=None) -> None:
    """Child body: run fn(*args) and send its output, step times and spans.

    then, if given, is (function, *args) run afterwards with send and the
    operation's step times, as the recursion probe is.
    """
    if recorder is not None:
        recorder.reset()
    out, steps = fn(*args)
    send(("done", out, steps, recorder.aggregate() if recorder is not None else None))
    if then is not None:
        then[0](send, args[0], steps, *then[1:])


def sweep_on(send, ez, steps, k, limit, cap) -> None:
    """The recursion probe, run on in the child of a recursion operation.

    The operation left zeta_numerator(1..k) cached; the sweep goes on with
    k+1, k+2, ..., sends the time of every step (zeta_numerator(j) with
    1..j-1 cached) and stops once all its steps, the operation's included,
    add up to more than limit seconds, at the cap, or at the first j the
    program rejects.
    """
    values = []
    total = sum(steps[:k])
    for j in range(k + 1, cap + 1):
        begin = time.perf_counter()
        try:
            values.append(ez.zeta_numerator(j))
        except ValueError as exc:
            send(("rejected", j, str(exc)))
            break
        step = time.perf_counter() - begin
        total += step
        send(("k", j, step, None))
        if total > limit:
            break
    send(("values", k + 1, values))


def ladder_target(send, op, first_k, cap, budget) -> None:
    """Child body of a tree-route probe: time op(k) for k = first_k, first_k+1, ...

    Each k is timed on its own and sent with its output, which the parent
    checks; the probe stops at the first k over budget or rejected by the
    program.
    """
    for k in range(first_k, cap + 1):
        begin = time.perf_counter()
        try:
            out = op(k)
        except ValueError as exc:
            send(("rejected", k, str(exc)))
            return
        elapsed = time.perf_counter() - begin
        send(("k", k, elapsed, out))
        if elapsed > budget:
            return


def cumulative(steps: dict) -> dict:
    """Best time to reach each k from best step times; stops at the first gap."""
    out, total, k = {}, 0.0, 1
    while k in steps:
        total += steps[k]
        out[k] = total
        k += 1
    return out


def largest_fitting(best: dict, budget: float, first_k: int) -> int:
    """The largest k whose best time fits, counting up from the route's first k."""
    k = first_k - 1
    while best.get(k + 1, math.inf) <= budget:
        k += 1
    return k


class Bench:
    def __init__(self, ez, workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
        self.ez = ez
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.inp = inputs.build(workload, seed, smoke)
        self.k = self.inp["k"]
        self.budget = self.inp["budget_s"]
        self.recorder = tracer.Recorder() if trace else None
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.mismatches: list[str] = []
        self.setup_s: list[float] = []
        self.solve_steps: list[list[float]] = []  # per timed operation, its step times
        self.rss_kb: list[int] = []  # per round, the memory interpreter's peak
        self.best: dict[int, float] = {}
        self.probe_notes: set[str] = set()
        self.trace_rounds: list[dict] = []
        self.call_graph: dict = {}
        self.rounds = 0
        kmax = max(self.inp["cap"], max(inputs.COVERAGE.values()))
        self.ref = reference.Reference(kmax)
        self.specs = [ez.SequenceSpec(s) for s in self.inp.get("sequences", [])]
        self.suites = importlib.import_module("evenzeta.verify").suite_names()[1:]
        cover = inputs.rational_sequences(seed)[0]
        self.cover_spec = ez.SequenceSpec(cover)
        self.cover_replay = reference.replay_transform(inputs.COVERAGE["trees-rational"], cover)
        self.replays: list[list[Fraction]] = []
        self.expected: list[Fraction] = []
        self.recursion_poly: list[Fraction] = []
        # trees-rational probe outputs at k beyond the replay and other than
        # the fixed size; scaling-checked once the run is over
        self.probe_values: dict[int, Fraction] = {}

    # -- bookkeeping -------------------------------------------------------

    def _mismatch(self, where: str, exc: Exception) -> None:
        self.mismatches.append(f"{where}: {exc}")

    def _fail(self, where: str, detail: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{where}: {detail.strip().splitlines()[-1] if detail.strip() else '?'}")

    def _forked(self, fn, *args, then=None):
        """Run fn(ez, *args) in a forked child.

        Returns (output, step times, spans, the child's result); raises
        RuntimeError when the operation itself failed.
        """
        res = proc.run_forked(timed_target, fn, (self.ez, *args), self.recorder, then,
                              timeout_s=OP_TIMEOUT_S)
        done = [m for m in res.messages if m[0] == "done"]
        if not done:
            raise RuntimeError(res.error or f"child exit {res.exit_code}, killed={res.killed}")
        _, out, steps, spans = done[0]
        return out, steps, spans, res

    def _python(self, *args: str):
        """Run a fresh interpreter with the package's src/ on its path.

        Returns (CompletedProcess or None if it was killed, wall seconds).
        """
        return proc.run_process([sys.executable, *args], env=self.env, cwd=str(ROOT),
                                timeout_s=OP_TIMEOUT_S)

    def _check_import(self, loaded: str) -> None:
        if Path(loaded).resolve() != (SRC / "evenzeta" / "__init__.py").resolve():
            raise BenchError(f"a fresh interpreter imported evenzeta from {loaded}")

    # -- checks made once per run, outside every timed region ---------------

    def prepare(self) -> None:
        if self.workload == "trees-odd":
            poly = self._forked(lambda ez, k: (ops.coeffs(ez.numerator_polynomial(k)), []), self.k)[0]
            reference.check_polynomial(self.ref, self.k, poly)
            self.recursion_poly = [Fraction(c) for c in poly]
        if self.workload == "trees-rational":
            scaled = [self.ez.SequenceSpec([inputs.SCALE * v for v in s]) for s in self.inp["sequences"]]

            def expectations(ez, k):
                small = range(1, inputs.REPLAY_MAX + 1)
                return [
                    (ez.generalized_transform(k, spec), ez.generalized_transform(k, sc),
                     [ez.generalized_transform(j, spec) for j in small])
                    for spec, sc in zip(self.specs, scaled)
                ], []

            out = self._forked(expectations, self.k)[0]
            for seq, (base, scaled_value, small) in zip(self.inp["sequences"], out):
                reference.check_scaling(self.k, base, scaled_value, inputs.SCALE)
                replays = [reference.replay_transform(j, seq) for j in range(1, inputs.REPLAY_MAX + 1)]
                for j, (got, want) in enumerate(zip(small, replays), start=1):
                    reference.check_equal(f"transform k={j} vs per-tree replay", Fraction(got), want)
                self.replays.append(replays)
                self.expected.append(Fraction(base))

    # -- the operations of a round ------------------------------------------

    def _fresh(self, where: str, code: str):
        """Run code in a fresh interpreter with the workload's arguments; its output and wall time.

        Counts the operation as attempted, and as failed (returning None)
        when the interpreter failed or was killed.
        """
        self.attempted += 1
        res, wall = self._python("-c", code, str(SRC), str(BENCH), self.workload,
                                 str(self.seed), "1" if self.smoke else "0")
        if res is None or res.returncode != 0:
            self._fail(where, res.stderr.decode(errors="replace") if res else "killed")
            return None
        return res.stdout, wall

    def op_setup(self) -> None:
        got = self._fresh("setup", SETUP_CODE)
        if got is not None:
            self._check_import(got[0].decode().strip())
            self.setup_s.append(got[1])

    def op_memory(self) -> None:
        got = self._fresh("memory", MEMORY_CODE)
        if got is None:
            return
        loaded, out, peak_kb = pickle.loads(got[0])
        self._check_import(loaded)
        try:
            self.check_solve(out)
        except reference.Mismatch as exc:
            self._mismatch("memory", exc)
            return
        self.rss_kb.append(peak_kb)

    def check_solve(self, out) -> None:
        if self.workload == "recursion":
            check_recursion(self.ref, self.k, out)
        elif self.workload == "trees-odd":
            check_trees_odd(self.ref, self.k, out)
            reference.check_equal("polynomial_via_trees vs the recursion route",
                                  [Fraction(c) for c in out[0]], self.recursion_poly)
        else:
            for i, (got, want) in enumerate(zip(out, self.expected)):
                reference.check_equal(f"transform of sequence {i}", Fraction(got), want)

    def op_solve(self, spans: dict) -> None:
        self.attempted += 1
        fn, args = {
            "recursion": (ops.op_recursion, (self.k,)),
            "trees-odd": (ops.op_trees_odd, (self.k,)),
            "trees-rational": (ops.op_trees_rational, (self.k, self.specs)),
        }[self.workload]
        then = None
        if self.workload == "recursion":
            self.attempted += 1  # the probe runs on in the same child
            then = (sweep_on, self.k, self.budget * SWEEP_SLACK, self.inp["cap"])
        try:
            out, steps, child_spans, res = self._forked(fn, *args, then=then)
        except RuntimeError as exc:
            self._fail("solve", str(exc))
            return
        if then is not None:
            for j, step in enumerate(steps[: self.k], start=1):
                self._note_best(j, step)
            self._probe_messages(res)
        try:
            self.check_solve(out)
        except reference.Mismatch as exc:
            self._mismatch("solve", exc)
            return
        self.solve_steps.append(steps)
        if child_spans:
            tracer.merge(spans, child_spans)

    def _traced_cli(self, args: list[str], spans: dict) -> None:
        """A traced `python -m evenzeta` process (cli_child.py); its spans and times go to spans."""
        res, wall = self._python(str(BENCH / "cli_child.py"), *args)
        exit_code, stdout = (res.returncode if res else "killed"), ""
        if exit_code == 0:
            child = json.loads(res.stdout.decode().strip().splitlines()[-1])
            exit_code, stdout = child["exit_code"], child["stdout"]
            tracer.merge(spans, child["trace"])
            cli = spans.setdefault("cli", {"import_s": 0.0, "process_s": 0.0})
            cli["import_s"] += child["import_s"]
            cli["process_s"] += wall
        if exit_code != 0:
            detail = (res.stderr.decode(errors="replace") if res else "") or f"exit {exit_code}"
            raise RuntimeError(f"traced verify: {detail[-300:]}")
        try:
            reference.check_verify_record(json.loads(stdout), self.suites)
        except ValueError as exc:
            raise reference.Mismatch(f"verify printed no JSON record: {exc}") from exc

    def _note_best(self, k: int, elapsed: float) -> None:
        if elapsed < self.best.get(k, math.inf):
            self.best[k] = elapsed

    def op_probe(self) -> None:
        self.attempted += 1
        if self.workload == "trees-odd":
            def op(k):
                return ops.op_trees_odd(self.ez, k)[0]
        else:
            spec = self.specs[0]

            def op(k):
                return self.ez.generalized_transform(k, spec)

        res = proc.run_forked(ladder_target, op, self.inp["first"], self.inp["cap"], self.budget,
                              timeout_s=self.budget + 0.25)
        self._probe_messages(res)

    def _check_probe_output(self, k: int, out) -> None:
        """Check a tree-route probe's output at k (outside every timed region)."""
        if self.workload == "trees-odd":
            check_trees_odd(self.ref, k, out)
            return
        value = Fraction(out)
        if k <= inputs.REPLAY_MAX:
            reference.check_equal(f"probe transform k={k} vs per-tree replay", value, self.replays[0][k - 1])
        elif k == self.k:
            reference.check_equal(f"probe transform k={k}", value, self.expected[0])
        elif k in self.probe_values:
            reference.check_equal(f"probe transform k={k} vs its first run", value, self.probe_values[k])
        else:
            self.probe_values[k] = value

    def check_probe_values(self) -> None:
        """Scaling-check the trees-rational probe outputs no other check covered."""
        if not self.probe_values:
            return
        ks = sorted(self.probe_values)
        scaled = [inputs.SCALE * v for v in self.inp["sequences"][0]]

        def scaled_transforms(ez, ks):
            spec = ez.SequenceSpec(scaled)
            return [ez.generalized_transform(k, spec) for k in ks], []

        try:
            out = self._forked(scaled_transforms, ks)[0]
            for k, value in zip(ks, out):
                reference.check_scaling(k, self.probe_values[k], value, inputs.SCALE)
        except reference.Mismatch as exc:
            self._mismatch("probe", exc)

    def _probe_messages(self, res: proc.ChildResult) -> None:
        """Take the step or k times, outputs, rejections and values a probe child sent."""
        cap = self.inp["cap"]
        if res.error:
            self._fail("probe", res.error)
            return
        reached = 0
        for msg in res.messages:
            if msg[0] == "k":
                _, k, elapsed, out = msg
                if out is not None:
                    try:
                        self._check_probe_output(k, out)
                    except reference.Mismatch as exc:
                        self._mismatch(f"probe k={k}", exc)
                self._note_best(k, elapsed)
                reached = k
            elif msg[0] == "rejected":
                self.probe_notes.add(f"rejected k={msg[1]}: {msg[2]}")
            elif msg[0] == "values":
                try:
                    reference.check_numerators(self.ref, msg[2], first=msg[1])
                except reference.Mismatch as exc:
                    self._mismatch("probe", exc)
        if reached >= cap:
            self.probe_notes.add(f"reached the probe cap k={cap}")

    # -- traced coverage ------------------------------------------------------

    def coverage(self, spans: dict) -> None:
        """One small traced operation of every workload (not counted as attempted)."""
        sizes = inputs.COVERAGE
        k = sizes["recursion"]
        out, _, child, _ = self._forked(ops.op_recursion, k)
        check_recursion(self.ref, k, out)
        tracer.merge(spans, child)
        k = sizes["trees-odd"]
        out, _, child, _ = self._forked(ops.op_trees_odd, k)
        check_trees_odd(self.ref, k, out)
        tracer.merge(spans, child)
        k = sizes["trees-rational"]
        (value,), _, child, _ = self._forked(ops.op_trees_rational, k, [self.cover_spec])
        reference.check_equal("coverage transform vs per-tree replay", Fraction(value), self.cover_replay)
        tracer.merge(spans, child)
        self._traced_cli(["verify", "--suite", "all", "--max-k", str(sizes["cli"]), "--format", "json"], spans)

    # -- the run ---------------------------------------------------------------

    def round(self) -> None:
        spans: dict = {}
        for _ in range(self.inp["solves"]):
            self.op_setup()
            self.op_solve(spans)
        self.op_memory()
        if self.workload != "recursion":  # the recursion probe rides with each operation
            self.op_probe()
        if self.recorder is not None:
            self.coverage(spans)
            self.trace_rounds.append(layer_metrics(spans))
            tracer.merge(self.call_graph, spans)

    def run(self) -> None:
        self.prepare()
        began = time.perf_counter()
        deadline = began + self.seconds
        # Start another round while at least half a round's time is left, so
        # that a run lasts about --seconds on average.
        while self.rounds < MIN_ROUNDS or (
            deadline - time.perf_counter() > 0.5 * (time.perf_counter() - began) / self.rounds
        ):
            self.round()
            self.rounds += 1
        self.check_probe_values()

    def metrics(self) -> dict:
        if self.recorder is not None:
            return {
                name: {"value": middle([r[name] for r in self.trace_rounds]), "unit": unit}
                for name, unit in PER_LAYER.items()
            }
        if not self.setup_s or not self.solve_steps or not self.rss_kb:
            raise BenchError("no successful set-up, timed operation or memory run to report")
        best = cumulative(self.best) if self.workload == "recursion" else self.best
        values = {
            "setup_s": min(self.setup_s),
            "solve_s": best_of_steps(self.solve_steps),
            "max_k": largest_fitting(best, self.budget, self.inp["first"]),
            "peak_rss_mb": statistics.median(self.rss_kb) / 1024.0,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def best_of_steps(runs: list[list[float]]) -> float:
    """The sum over an operation's steps of each step's best time across runs."""
    return sum(min(times) for times in zip(*runs))


def middle(values: list):
    """The median; for counts the lower median, so that a count stays whole."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def layer_metrics(spans: dict) -> dict:
    """Per-layer values of one traced round."""
    layers = spans.get("layers", {})

    def get(name: str, field: int):
        entry = layers.get(name)
        return entry[field] if entry else 0

    out = {}
    for metric in PER_LAYER:
        if metric.endswith("_calls"):
            out[metric] = get(metric[: -len("_calls")], 0)
        else:
            out[metric] = get(metric[: -len("_s")], 1)
    out["trees.walk_s"] = sum(v[2] for n, v in layers.items() if n.startswith("trees."))
    cli = spans.get("cli", {})
    out["cli.import_s"] = cli.get("import_s", 0.0)
    out["cli.process_s"] = cli.get("process_s", 0.0)
    return out


def commit_id() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        res, _ = proc.run_process(["git", "rev-parse", "HEAD"], env=dict(os.environ), cwd=str(ROOT), timeout_s=10)
    except OSError:
        return "unknown"
    return res.stdout.decode().strip() if res is not None and res.returncode == 0 else "unknown"


def write_files(bench: Bench, line: dict, trace: bool, elapsed: float) -> None:
    OUT.mkdir(exist_ok=True)
    tag = f"{bench.workload}-seed{bench.seed}-trace{int(trace)}"
    record = {
        "commit": commit_id(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seed": bench.seed,
        "kernel_backend": getattr(bench.ez, "KERNEL_BACKEND", None),
        "workload": bench.workload,
        "seconds": bench.seconds,
        "elapsed_s": elapsed,
        "trace": trace,
        "smoke": bench.smoke,
        "rounds": bench.rounds,
        "result": line,
        "solve_r": len(bench.solve_steps),
        "solve_whole_s": [sum(steps) for steps in bench.solve_steps],
        "solve_whole_best_s": min((sum(s) for s in bench.solve_steps), default=None),
        "solve_whole_median_s": (
            statistics.median(sum(s) for s in bench.solve_steps) if bench.solve_steps else None
        ),
        "solve_step_best_s": [min(t) for t in zip(*bench.solve_steps)],
        "setup_samples_s": bench.setup_s,
        "setup_median_s": statistics.median(bench.setup_s) if bench.setup_s else None,
        "peak_rss_kb_samples": bench.rss_kb,
        "budget_s": bench.budget,
        "probe_best_s": {str(k): v for k, v in sorted(bench.best.items())},
        "probe_notes": sorted(bench.probe_notes),
        "failures": bench.failures,
        "mismatches": bench.mismatches,
    }
    if trace:
        record["per_round_layers"] = bench.trace_rounds
        (OUT / f"trace-{bench.workload}-seed{bench.seed}.json").write_text(
            json.dumps({"workload": bench.workload, "seed": bench.seed, "call_graph": bench.call_graph}, indent=1)
        )
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    began = time.perf_counter()
    try:
        ez = load_package()
        bench = Bench(ez, args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        if args.trace:
            tracer.install(bench.recorder, ez)
        bench.run()
        metrics = bench.metrics()
    except reference.Mismatch as exc:
        print(f"evenbench: wrong output: {exc}", file=sys.stderr)
        return 1
    except (BenchError, RuntimeError, OSError) as exc:
        print(f"evenbench: {exc}", file=sys.stderr)
        return 2
    line = {
        "correct": not bench.mismatches,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    write_files(bench, line, bool(args.trace), time.perf_counter() - began)
    for problem in bench.mismatches[:10]:
        print(f"evenbench: wrong output: {problem}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
