"""Benchmark of the tautilt CLI over three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from
``src/`` of that checkout and nothing is installed.

With ``--trace 0`` the run measures the end-to-end metrics:

* ``setup_s``: a child that imports the program and sets up the workload's
  groups, fields, algebras and registries (``session.py``), timed from
  start to exit; the median of SETUP_REPEATS children.
* ``cold_s``: one pass over the workload's CLI operations, each a child
  process timed from start to exit, with a fresh cache directory.
* ``hit_s``: the same pass for the caching commands, served from the
  cache the cold pass filled.
* ``peak_rss_mb``: the largest ``ru_maxrss`` of any operation's child.

Times are calibrated (``calibrate.py``).  After the set-up children the
run makes whole passes while the next one is expected to end within
``--seconds``, and at least one; ``cold_s`` and ``hit_s`` sum, over the
operations, the median over the passes.

With ``--trace 1`` the run makes one plain and one traced in-process pass
(``layertrace.py``) and reports the per-layer metrics and the tracing overhead.

Every output is checked apart from the program (``checks.py``), hit bytes
against cold bytes, and cold bytes of one pass against those of the next.
An operation fails when it exits non-zero or a check fails; ``correct`` is
false when an operation that exited 0 gave a wrong output.  The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import inputs
from calibrate import Clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent

SETUP_REPEATS = 7
HIT_REPEATS = 3
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Op:
    command: str
    groups: tuple[str, ...]
    p: int
    m: int  # field degree the command uses
    pass_m: bool = True  # False: the CLI picks m itself (and picks this m)

    @property
    def caching(self) -> bool:
        return self.command in ("blocks", "stt", "verify")

    @property
    def label(self) -> str:
        m = f" --m {self.m}" if self.pass_m else ""
        return f"{self.command} {' '.join(self.groups)} --p {self.p}{m}"


WORKLOADS = {
    # Radical and block structure over prime fields, with small posets.
    "structure": [
        Op("stt", ("S4",), 2, 1),
        Op("stt", ("S4",), 3, 1),
        Op("stt", ("SL23",), 3, 1),
        Op("blocks", ("S5",), 2, 1),
        Op("blocks", ("S5",), 3, 1),
        Op("blocks", ("S5",), 5, 1),
    ],
    # Large posets of small groups over GF(4).
    "poset": [
        Op("stt", ("A4",), 2, 2, pass_m=False),
        Op("stt", ("S3xC3",), 2, 2, pass_m=False),
    ],
    # The paper's pipelines along normal embeddings over GF(4).
    "induction": [
        Op("verify", ("A4", "S4"), 2, 2, pass_m=False),
        Op("mackey", ("A4", "S4"), 2, 2, pass_m=False),
        Op("induce", ("A4", "S4"), 2, 2, pass_m=False),
        Op("verify", ("C3", "S3"), 2, 2, pass_m=False),
    ],
}


def bench_units(kind: str) -> dict[str, str]:
    """Name -> unit of BENCHMARK.json's ``end_to_end`` or ``per_layer`` metrics."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


@dataclass
class Outcome:
    code: int
    stdout: bytes
    json: bytes | None
    raw_s: float
    cal_s: float
    rss_mb: float = 0.0


class Workdir:
    """Inputs and per-pass caches of one run, inside the checkout."""

    def __init__(self, workload: str, seed: int):
        self.name = workload
        self.path = OUT / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        self.ops = WORKLOADS[workload]
        names = {g for op in self.ops for g in op.groups}
        self.groups = {g: inputs.write_group(self.path, g) for g in sorted(names)}
        self.module_path, self.module = inputs.write_seeded_module(self.path, seed)
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=str(SRC),
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            TAUTILT_CACHE=str(self.path / "cache-unused"),
        )

    def argv(self, op: Op, cache: Path, tag: str) -> tuple[list[str], Path | None]:
        """CLI arguments of an operation, and the --json file it writes.  The
        file is named after ``tag``, so a run reads back only what it wrote."""
        args = [op.command, *(str(self.groups[g]) for g in op.groups), "--p", str(op.p)]
        if op.pass_m:
            args += ["--m", str(op.m)]
        json_path = None
        if op.command == "stt":
            json_path = self.path / f"{tag}.json"
            args += ["--json", str(json_path)]
        if op.command in ("induce", "mackey"):
            args += ["--module", str(self.module_path)]
        return args + ["--cache-dir", str(cache)], json_path

    def close(self):
        shutil.rmtree(self.path, ignore_errors=True)


def spawn(argv: list[str], env: dict, stdout_path: Path) -> tuple[int, float]:
    """Run a child to its end; return (exit code, ru_maxrss in MB)."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024


def check(op: Op, out: Outcome, work: Workdir) -> list[str]:
    try:
        if op.command == "stt":
            return checks.check_stt(out.json or b"", out.stdout, op.groups[0], op.p)
        if op.command == "blocks":
            return checks.check_blocks(out.stdout, op.groups[0], op.p)
        if op.command == "verify":
            return checks.check_verify(out.stdout, *op.groups)
        if op.command == "induce":
            return checks.check_induce(out.stdout, *op.groups, work.module)
        return checks.check_mackey(out.stdout, *op.groups, work.module)
    except Exception as e:  # an output the checks cannot read is wrong
        return [f"unreadable output: {e!r}"]


class Tally:
    """Attempted and failed operations, and wrong outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def record(self, label: str, out: Outcome, problems: list[str]):
        self.attempted += 1
        if out.code != 0 or problems:
            self.failed += 1
            reason = "; ".join(problems[:3]) or f"exit code {out.code}"
            print(f"  FAILED {label}: {reason}", file=sys.stderr)
        if out.code == 0 and problems:
            self.correct = False


def run_op(op: Op, work: Workdir, clock: Clock, cache: Path, tag: str) -> Outcome:
    args, json_path = work.argv(op, cache, tag)
    if json_path:
        json_path.unlink(missing_ok=True)
    stdout_path = work.path / f"{tag}.out"
    raw, cal, (code, rss) = clock.measure(
        lambda: spawn([sys.executable, "-m", "tautilt.cli", *args], work.env, stdout_path)
    )
    written = json_path.read_bytes() if json_path and json_path.exists() else None
    return Outcome(code, stdout_path.read_bytes(), written, raw, cal, rss)


def run_pass(work: Workdir, clock: Clock, index: int, tally: Tally, previous):
    """Cold over the workload, then HIT_REPEATS times hit over its caching
    commands; returns {op index: (cold outcome, [hit outcomes])}."""
    cache = work.path / f"cache{index}"
    outcomes = {}
    for i, op in enumerate(work.ops):
        cold = run_op(op, work, clock, cache, f"p{index}-cold{i}")
        problems = check(op, cold, work)
        if previous and (cold.stdout, cold.json) != (previous[i][0].stdout, previous[i][0].json):
            problems.append("a second cold run gave other bytes")
        tally.record(op.label, cold, problems)
        outcomes[i] = (cold, [])
    for repeat in range(HIT_REPEATS):
        for i, op in enumerate(work.ops):
            if not op.caching:
                continue
            cold = outcomes[i][0]
            hit = run_op(op, work, clock, cache, f"p{index}-hit{repeat}-{i}")
            same = (hit.code, hit.stdout, hit.json) == (cold.code, cold.stdout, cold.json)
            tally.record(op.label + " (hit)", hit, [] if same else ["hit bytes differ from cold bytes"])
            outcomes[i][1].append(hit)
    return outcomes


def measure_setup(work: Workdir, clock: Clock) -> tuple[list[float], list[float]]:
    spec = sorted({(str(work.groups[g]), op.p, op.m) for op in work.ops for g in op.groups})
    spec_path = work.path / "session.json"
    spec_path.write_text(json.dumps(spec))
    argv = [sys.executable, str(HERE / "session.py"), str(spec_path)]
    code, _ = spawn(argv, work.env, work.path / "session.out")  # warm the bytecode cache
    if code != 0:
        raise RuntimeError(f"the session set-up exited with {code}")
    raws, cals = [], []
    for _ in range(SETUP_REPEATS):
        raw, cal, (code, _) = clock.measure(lambda: spawn(argv, work.env, work.path / "session.out"))
        if code != 0:
            raise RuntimeError(f"the session set-up exited with {code}")
        raws.append(raw)
        cals.append(cal)
    return raws, cals


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    work = Workdir(workload, seed)
    tally = Tally()
    try:
        with Clock() as clock:
            start = time.perf_counter()
            setup_raw, setup_cal = measure_setup(work, clock)
            passes = []
            while True:
                began = time.perf_counter()
                passes.append(run_pass(work, clock, len(passes), tally, passes[-1] if passes else None))
                now = time.perf_counter()
                if now - start + (now - began) > seconds:
                    break
    finally:
        work.close()

    def per_op(field: str, hits: bool) -> dict[int, float]:
        """Per operation, the median over the passes (and hit repeats)."""
        out = {}
        for i in passes[0]:
            samples = [getattr(o, field) for p in passes
                       for o in (p[i][1] if hits else [p[i][0]])]
            if samples:
                out[i] = statistics.median(samples)
        return out

    cold_raw, cold_cal = per_op("raw_s", False), per_op("cal_s", False)
    hit_raw, hit_cal = per_op("raw_s", True), per_op("cal_s", True)
    print(f"workload {workload}, seed {seed}: {len(passes)} passes, "
          f"CPU {clock.cpu}, {len(clock.probes)} reference probes, median "
          f"{1000 * statistics.median(clock.probes):.2f} ms ({1000 * min(clock.probes):.2f}-"
          f"{1000 * max(clock.probes):.2f})")
    for i, op in enumerate(work.ops):
        line = f"  {op.label:34s} cold {cold_raw[i]:7.3f} s raw {cold_cal[i]:7.3f} s cal"
        if i in hit_cal:
            line += f"   hit {hit_raw[i]:6.3f} s raw {hit_cal[i]:6.3f} s cal"
        print(line)
    print(f"  setup raw {statistics.median(setup_raw):.3f} s, cold raw {sum(cold_raw.values()):.3f} s, "
          f"hit raw {sum(hit_raw.values()):.3f} s")
    values = {
        "cold_s": sum(cold_cal.values()),
        "hit_s": sum(hit_cal.values()),
        "setup_s": statistics.median(setup_cal),
        "peak_rss_mb": max(o.rss_mb for p in passes for cold, hits in p.values() for o in [cold, *hits]),
    }
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in bench_units("end_to_end").items()},
    }


def in_process_pass(work: Workdir, mode: str) -> dict:
    """Cold over the workload, then HIT_REPEATS times hit over its caching
    commands, all in one process (``layertrace.py``), in ``plain`` or
    ``trace`` mode."""
    cache = work.path / f"cache-{mode}"
    ops = []
    for k, op in enumerate(work.ops + [op for op in work.ops if op.caching] * HIT_REPEATS):
        args, json_path = work.argv(op, cache, f"{mode}-{k}")
        ops.append({"argv": args, "json": str(json_path) if json_path else None})
    spec = {
        "src": str(SRC),
        "mode": mode,
        "ops": ops,
        "out": str(work.path / f"{mode}.json"),
        "spans": str(OUT / f"spans-{work.name}.csv"),
        "metrics": list(bench_units("per_layer")),
    }
    spec_path = work.path / f"{mode}-spec.json"
    spec_path.write_text(json.dumps(spec))
    code, _ = spawn([sys.executable, str(HERE / "layertrace.py"), str(spec_path)],
                    work.env, work.path / f"{mode}.out")
    if code != 0:
        raise RuntimeError(f"the {mode} in-process pass exited with {code}")
    return json.loads(Path(spec["out"]).read_text())


def traced_run(workload: str, seed: int) -> dict:
    """A plain and a traced in-process pass; per-layer metrics."""
    work = Workdir(workload, seed)
    try:
        results = {mode: in_process_pass(work, mode) for mode in ("plain", "trace")}
    finally:
        work.close()
    tally = Tally()
    hits = [i for i, op in enumerate(work.ops) if op.caching]
    outs = {
        mode: [
            Outcome(r["code"], r["stdout"].encode(),
                    r["json"].encode() if r["json"] is not None else None, r["raw_s"], r["cal_s"])
            for r in result["ops"]
        ]
        for mode, result in results.items()
    }
    for mode, out in outs.items():
        for i, op in enumerate(work.ops):
            problems = check(op, out[i], work)
            first = outs["plain"][i]
            if (out[i].stdout, out[i].json) != (first.stdout, first.json):
                problems.append("a second cold run gave other bytes")
            tally.record(f"{op.label} ({mode})", out[i], problems)
        for hit, i in zip(out[len(work.ops):], hits * HIT_REPEATS):
            cold = out[i]
            same = (hit.code, hit.stdout, hit.json) == (cold.code, cold.stdout, cold.json)
            tally.record(f"{work.ops[i].label} ({mode} hit)", hit,
                         [] if same else ["hit bytes differ from cold bytes"])
    plain_s = sum(o.cal_s for o in outs["plain"])
    traced_s = sum(o.cal_s for o in outs["trace"])
    print(f"workload {workload}, seed {seed}: traced pass {traced_s:.3f} s, plain pass "
          f"{plain_s:.3f} s (calibrated): tracing overhead {100 * (traced_s / plain_s - 1):.1f}%, "
          f"{results['trace']['spans']} spans in {OUT.name}/spans-{workload}.csv")
    values = results["trace"]["metrics"]
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in bench_units("per_layer").items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tautilt" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/tautilt; run from a tautilt checkout",
              file=sys.stderr)
        return 2
    if args.trace:
        result = traced_run(args.workload, args.seed)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(result))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
