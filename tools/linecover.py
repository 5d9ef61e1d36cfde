"""List the lines of ``src/`` that a pytest selection and some workload cycles never run.

    python tools/linecover.py --workload count_table --cycles 1 -- -q tests/test_counting.py

Run it from the root of a ptlab checkout. The arguments after ``--`` go to
``pytest.main`` as they would on the command line; each ``--workload`` then
runs ``--cycles`` cycles of that benchmark workload (``benchmarks/ptbench``)
at seed 1, each item executed and checked by its oracles as the benchmark
does, untimed. One ``sys.settrace`` tracer, standard library only, records
every line run in a module under ``src/`` from before its import, so
module-level lines count.

A line counts as executable when the bytecode of its module carries it. The
report gives, per module, the ranges of executable lines that nothing ran,
then the totals. Only this process is traced: ``src/`` goes first on the
``PYTHONPATH`` that subprocesses inherit, but a line that only a subprocess
runs counts as not run. The exit status is 1 when the pytest selection or a
workload oracle fails, so the report never stands for a broken run; the
tracer slows the tests, so a wall-clock bound can fail under it (the full
suite's acceptance criterion 2 does).
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SEED = 1  # the workload seed of the benchmark's CI smoke runs


def executable_lines(path: Path) -> set:
    """Line numbers that carry bytecode in the module at path or in any code object inside it."""
    lines, pending = set(), [compile(path.read_text(), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        pending.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


class LineTracer:
    """Records (module path, line) for every line run in a file under src/."""

    def __init__(self):
        self.ran, self._inside = set(), {}

    def _under_src(self, filename: str):
        path = self._inside.get(filename)
        if path is None:
            resolved = Path(os.path.abspath(filename))
            path = self._inside[filename] = resolved if resolved.is_relative_to(SRC) else False
        return path

    def __call__(self, frame, event, arg):
        path = self._under_src(frame.f_code.co_filename)
        if not path:
            return None
        self.ran.add((path, frame.f_lineno))  # the call event: a def or decorator line that only resumes the frame

        def local(frame, event, arg):
            if event == "line":
                self.ran.add((path, frame.f_lineno))
            return local

        return local


def run_workloads(names, cycles: int) -> int:
    """Run each named workload's first cycles and return the number of items whose oracles failed."""
    sys.path[:0] = [str(ROOT / "benchmarks")]
    from ptbench.workloads import WORKLOADS

    failed = 0
    for name in names:
        workload = WORKLOADS[name]
        for index in range(cycles):
            for item in workload.cycle(SEED, index):
                checks = workload.check(item, workload.execute(item))
                failed += any(c.hard and not c.ok for c in checks)
    return failed


def ranges(numbers) -> str:
    numbers, spans = sorted(numbers), []
    for n in numbers:
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def report(ran):
    """Print the unexecuted lines of each module under src/, then their total."""
    total_missing = total_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        lines = executable_lines(path)
        missing = lines - {line for p, line in ran if p == path}
        total_missing, total_lines = total_missing + len(missing), total_lines + len(lines)
        print(f"{path.relative_to(ROOT)}: {len(missing)} of {len(lines)} lines not run"
              + (f": {ranges(missing)}" if missing else ""))
    print(f"total: {total_missing} of {total_lines} executable lines not run")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", default=[],
                        choices=("sweep2x2", "certify_small", "certify_dense", "count_table"))
    parser.add_argument("--cycles", type=int, default=1)
    parser.add_argument("pytest_args", nargs="*", help="a pytest selection, after --")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(SRC)]
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    tracer = LineTracer()
    sys.settrace(tracer)
    try:
        status = 0
        if args.pytest_args:
            import pytest

            status = int(pytest.main(args.pytest_args))
        failed = run_workloads(args.workload, args.cycles)
    finally:
        sys.settrace(None)
    report(tracer.ran)
    if failed:
        print(f"{failed} workload items failed their oracles", file=sys.stderr)
    return 1 if status or failed else 0


if __name__ == "__main__":
    sys.exit(main())
