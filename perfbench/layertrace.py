"""One in-process pass over a workload's operations, traced or plain.

Run as a child of ``run.py --trace 1``:

    python3 perfbench/layertrace.py SPEC.json

SPEC names the program's source directory, the CLI argument lists of the
pass, the mode (``plain`` or ``trace``), the per-layer metrics to report
(from BENCHMARK.json) and where to write the result.  Each operation calls
``tautilt.cli.main`` in this process, timed with the calibrated clock.  In
``trace`` mode the layer functions named in LAYERS are wrapped before the
pass: the wrapper records a span (name, parent, start, end, operation) per
call and the counts some metrics need (``Tracer.hooks``).  Every module
of the package that imported one of these functions by name is rebound to
the wrapper as well, so calls between layers are caught.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import sys
import time
from array import array
from pathlib import Path

from calibrate import Clock

# (layer name, module, attribute path within the module)
LAYERS = [
    ("ff.matmul", "tautilt.ff", "FFMatrix.__matmul__"),
    ("ff.rref", "tautilt.ff", "FFMatrix.rref"),
    ("ff.charpoly", "tautilt.ff", "FFMatrix.charpoly"),
    ("ff.minimal_polynomial", "tautilt.ff", "FFMatrix.minimal_polynomial"),
    ("ff.solve_intertwiner_system", "tautilt.ff", "solve_intertwiner_system"),
    ("rings.algebra_radical", "tautilt.rings", "algebra_radical"),
    ("rings.find_splitting_idempotent", "tautilt.rings", "find_splitting_idempotent"),
    ("algebra.radical_vectors", "tautilt.algebra", "GroupAlgebra.radical_vectors"),
    ("algebra.blocks", "tautilt.algebra", "GroupAlgebra.blocks"),
    ("polys.factor", "tautilt.polys", "factor"),
    ("modules.hom_basis", "tautilt.modules", "hom_basis"),
    ("modules.end_basis", "tautilt.modules", "end_basis"),
    ("modules.decompose", "tautilt.modules", "ModuleRegistry.decompose"),
    ("modules.find_or_register", "tautilt.modules", "ModuleRegistry.find_or_register"),
    ("modules.is_isomorphic", "tautilt.modules", "is_isomorphic"),
    ("homalg.projective_cover", "tautilt.homalg", "projective_cover"),
    ("homalg.syzygy", "tautilt.homalg", "syzygy"),
    # the translate of one indecomposable: what tau() and the engine call
    ("homalg.tau", "tautilt.homalg", "tau_indec_cached"),
    ("homalg.minimal_left_approximation", "tautilt.homalg", "minimal_left_approximation"),
    ("engine.certify_support_tau_tilting", "tautilt.engine", "certify_support_tau_tilting"),
    ("engine.enumerate_poset", "tautilt.engine", "enumerate_poset"),
    ("functors.induce", "tautilt.functors", "induce"),
    ("functors.is_invariant", "tautilt.functors", "is_invariant"),
    ("functors.verify_main_theorems", "tautilt.functors", "verify_main_theorems"),
    ("functors.verify_syzygy_commutation", "tautilt.functors", "verify_syzygy_commutation"),
    ("functors.mackey_decomposition", "tautilt.functors", "mackey_decomposition"),
    ("groups.from_generators", "tautilt.groups", "FiniteGroup.from_generators"),
    ("cli.cache_load", "tautilt.cli", "Cache.load"),
    ("cli.cache_store", "tautilt.cli", "Cache.store"),
]

class Tracer:
    """Spans in compact arrays, kept in memory until the pass ends."""

    def __init__(self):
        self.names = [name for name, _, _ in LAYERS]
        self.parent = array("i")
        self.name = array("h")
        self.op = array("h")
        self.outer = array("b")  # 1 if no enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.active = [0] * len(self.names)
        self.current_op = -1
        self.counts = {"mac": 0, "cells": 0, "unknowns": 0, "registry_hits": 0, "valid": 0}
        self.registries = []

    def hooks(self, name: str):
        """(before, after) callbacks that update the counts for one layer."""
        c = self.counts

        def add(key, n):
            c[key] += n

        if name == "ff.matmul":
            return lambda a: add("mac", a[0].rows * a[0].cols * a[1].cols), None
        if name == "ff.rref":
            return lambda a: add("cells", a[0].rows * a[0].cols), None
        if name == "ff.solve_intertwiner_system":
            return lambda a: add("unknowns", a[2][0] * a[2][1]), None
        if name == "modules.find_or_register":
            # a hit leaves the registry without a new entry
            return (
                lambda a: len(a[0].entries),
                lambda a, result, n: add("registry_hits", len(a[0].entries) == n),
            )
        if name == "engine.certify_support_tau_tilting":
            return None, lambda a, cert, _: add("valid", bool(cert.valid))
        return None, None

    def wrap(self, index: int, fn):
        before, after = self.hooks(self.names[index])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(self.start)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.name.append(index)
            self.op.append(self.current_op)
            self.outer.append(0 if self.active[index] else 1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(span)
            self.active[index] += 1
            state = before(args) if before else None
            self.start[span] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = time.perf_counter()
                self.active[index] -= 1
                self.stack.pop()
            if after:
                after(args, result, state)
            return result

        return wrapper

    def install(self):
        """Wrap every layer function and rebind every name bound to it."""
        for index, (_, module_name, path) in enumerate(LAYERS):
            module = importlib.import_module(module_name)
            owner = module
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(index, raw.__func__)))
                continue
            wrapped = self.wrap(index, raw)
            setattr(owner, attr, wrapped)
            if owner is module:
                for other_name, other in list(sys.modules.items()):
                    if other_name.startswith("tautilt") and other is not None:
                        for key, value in list(vars(other).items()):
                            if value is raw:
                                setattr(other, key, wrapped)
        registry_cls = importlib.import_module("tautilt.modules").ModuleRegistry
        original_init = registry_cls.__init__

        def init(registry, *args, **kwargs):
            original_init(registry, *args, **kwargs)
            self.registries.append(registry)

        registry_cls.__init__ = init

    def close_op(self) -> int:
        """Registry entries created during the operation that just ended."""
        classes = sum(len(r.entries) for r in self.registries)
        self.registries.clear()
        return classes

    def metrics(self, names: list[str], factors: list[float], registry_classes: int,
                output_bytes: int) -> dict:
        """The named per-layer metrics.  Times are calibrated seconds.
        ``self_s`` excludes time covered by child spans; ``total_s`` is
        inclusive and counts only the outermost span of a layer, so recursion
        is not counted twice."""
        n = len(self.start)
        dur = [(self.end[i] - self.start[i]) * factors[self.op[i]] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        calls = {name: 0 for name in self.names}
        self_s = {name: 0.0 for name in self.names}
        total_s = {name: 0.0 for name in self.names}
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            if self.outer[i]:
                total_s[name] += dur[i]
        certify = calls["engine.certify_support_tau_tilting"]
        lookups = calls["modules.find_or_register"]
        special = {
            "ff.matmul.mac": self.counts["mac"],
            "ff.rref.cells": self.counts["cells"],
            "ff.solve_intertwiner_system.unknowns": self.counts["unknowns"],
            "modules.find_or_register.hit_ratio": (
                self.counts["registry_hits"] / lookups if lookups else 0.0
            ),
            "modules.registry_classes": registry_classes,
            "engine.certify_support_tau_tilting.valid_ratio": (
                self.counts["valid"] / certify if certify else 0.0
            ),
            "cli.output_bytes": output_bytes,
        }
        by_kind = {"calls": calls, "self_s": self_s, "total_s": total_s}
        out = {}
        for metric in names:
            layer, _, kind = metric.rpartition(".")
            if metric in special:
                out[metric] = special[metric]
            elif kind in by_kind and layer in by_kind[kind]:
                out[metric] = by_kind[kind][layer]
            else:
                raise KeyError(f"no layer measures {metric}")
        return out

    def write(self, path: Path, factors: list[float]):
        """A JSON header with the layer names and each operation's
        calibration factor, then one line per span: id, parent, layer index,
        operation, and raw start and end in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "factors": factors}) + "\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.parent[i]},{self.name[i]},{self.op[i]},"
                    f"{self.start[i] - t0:.6f},{self.end[i] - t0:.6f}\n"
                )


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    cli = importlib.import_module("tautilt.cli")
    tracer = Tracer() if spec["mode"] == "trace" else None
    if tracer:
        tracer.install()
    results, factors = [], []
    registry_classes = output_bytes = 0
    with Clock() as clock:
        for index, op in enumerate(spec["ops"]):
            if tracer:
                tracer.current_op = index
            stdout = io.StringIO()

            def call():
                with contextlib.redirect_stdout(stdout):
                    try:
                        return cli.main(op["argv"])
                    except SystemExit as e:
                        return e.code

            raw, cal, code = clock.measure(call)
            factors.append(cal / raw)
            written = None
            if op["json"] and Path(op["json"]).exists():
                written = Path(op["json"]).read_text()
            text = stdout.getvalue()
            output_bytes += len(text.encode()) + (len(written.encode()) if written else 0)
            if tracer:
                registry_classes += tracer.close_op()
            results.append({"code": code, "stdout": text, "json": written, "raw_s": raw, "cal_s": cal})
    out = {"ops": results}
    if tracer:
        out["metrics"] = tracer.metrics(spec["metrics"], factors, registry_classes, output_bytes)
        out["spans"] = len(tracer.start)
        tracer.write(Path(spec["spans"]), factors)
    Path(spec["out"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
