"""Command-line workbench: block decompositions, support tau-tilting
posets, verification pipelines, induction and Mackey checks.

Subcommands: blocks | stt | verify | induce | mackey.  All output is
deterministic byte-for-byte for a fixed configuration; expensive results
are cached on disk keyed by a content hash over (command, configuration,
group data and the group names the output prints); an entry is served
only to the tool version and package sources that wrote it, before any
numeric module loads.  --cache-dir or TAUTILT_CACHE overrides the cache
directory; --no-cache disables caching.

The commands read their options from argparse: ``_cached`` turns them
into the cache directory and key, ``_algebras`` into the field.

Exit codes: 0 success, 2 parse error or unwritable output file or
stdout, 3 cap exceeded or out of memory, 4 embedding not normal, 5
verification failure, 6 field does not split, 7 decomposition search
exhausted, 8 internal inconsistency of the engine, 130 interrupted.

``run`` is the process entry (the console script and ``python -m
tautilt.cli``); ``main`` is the side-effect-free part that tests call in
process.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from . import __version__

# Only the standard library loads above: a cache hit reads its inputs and
# its entry and nothing else.  The numeric modules load on a miss, inside
# the functions that compute.

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_NOT_NORMAL = 4
EXIT_VERIFY = 5
EXIT_FIELD = 6
EXIT_DECOMPOSITION = 7
EXIT_ENGINE = 8

THEOREM_IDS = ("all", "L3.1", "T3.2", "T3.3", "C3.4", "P3.5", "T3.6")


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def source_digest() -> str:
    """SHA-256 over the package's Python sources, by file name and content."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Cache:
    """Content-addressed cache; hits must be byte-identical to fresh runs,
    so entries are invalidated by the tool version and by any change to
    the package sources."""

    def __init__(self, directory: str | None):
        self.directory = Path(directory) if directory else None
        self.source = source_digest() if directory else None

    @staticmethod
    def key(payload: dict) -> str:
        return hashlib.sha256(_json_text(payload).encode()).hexdigest()

    def load(self, key: str, fields) -> dict | None:
        """The outputs stored under ``key``, or None for a miss: no entry, an
        unreadable one, one written by another version or other sources, or
        one whose outputs lack any of ``fields`` (name -> type) or hold one
        of another type."""
        if self.directory is None:
            return None
        try:
            entry = json.loads((self.directory / f"{key}.json").read_text())
        except (OSError, ValueError):
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("version") != __version__
            or entry.get("source") != self.source
        ):
            return None
        outputs = entry.get("outputs")
        if not isinstance(outputs, dict) or not all(
            isinstance(outputs.get(f), t) for f, t in fields.items()
        ):
            return None
        return outputs

    def store(self, key: str, outputs: dict):
        """Store ``outputs`` under ``key``; a cache that cannot be written is
        skipped, and the next run computes afresh."""
        if self.directory is None:
            return
        entry = {
            "version": __version__,
            "source": self.source,
            "key": key,
            "outputs": outputs,
        }
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            _replace_file(self.directory / f"{key}.json", _json_text(entry).encode())
        except OSError:
            pass


def _cached(args, request: dict, fields, compute) -> dict:
    """The outputs of ``request`` (a command and its inputs) under the
    options in ``args``: from the cache if it holds all of ``fields``, each
    of the type it maps to, else from ``compute()``, which is then stored.
    The cache directory is none with --no-cache, else --cache-dir, else
    TAUTILT_CACHE, else ~/.cache/tautilt."""
    directory = None if args.no_cache else (
        args.cache_dir
        or os.environ.get("TAUTILT_CACHE")
        or str(Path.home() / ".cache" / "tautilt")
    )
    cache = Cache(directory)
    config = {
        "p": args.p,
        "m": args.m,
        "group_order_cap": args.order_cap,
        "poset_node_cap": args.node_cap,
    }
    key = cache.key({**request, "config": config})
    outputs = cache.load(key, fields)
    if outputs is None:
        outputs = compute()
        cache.store(key, outputs)
    return outputs


def _replace_file(path: Path, data: bytes):
    """Write ``data`` to ``path`` through a temporary file in the same
    directory, so that no reader sees a partial file."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: str, data: bytes):
    try:
        _replace_file(Path(path), data)
    except OSError as e:
        raise CliError(f"cannot write {path}: {e.strerror or e}", EXIT_PARSE) from e


def _read_json_file(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}", EXIT_PARSE) from e
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise CliError(f"invalid JSON in {path}: {e}", EXIT_PARSE) from e


def _read_group(path: str) -> dict:
    """A group file as the cache key sees it: the raw JSON, and the name
    that the outputs print (the file's stem)."""
    return {"name": Path(path).stem, "data": _read_json_file(path)}


def _build_group(path: str, group: dict, order_cap: int):
    """The ``FiniteGroup`` of a group read by ``_read_group`` from ``path``."""
    from .groups import GroupError, group_from_json

    try:
        return group_from_json(group["data"], name=group["name"], order_cap=order_cap)
    except GroupError as e:
        if "cap" in str(e):
            raise CliError(str(e), EXIT_CAP) from e
        raise CliError(f"bad group file {path}: {e}", EXIT_PARSE) from e


def _algebras(args, *groups) -> list:
    """The group algebras of ``groups`` over one field, GF(p^m) for --m, or
    by default the splitting field the last group needs."""
    from .algebra import GroupAlgebra, splitting_field_degree
    from .ff import field_create

    m = splitting_field_degree(args.p, groups[-1:]) if args.m is None else args.m
    field = field_create(args.p, m)
    return [GroupAlgebra(group, field) for group in groups]


def _embedding_or_die(sub, amb, need_normal: bool):
    from .groups import GroupError, SubgroupEmbedding

    try:
        emb = SubgroupEmbedding(sub, amb)
    except GroupError as e:
        raise CliError(f"not an embedded subgroup: {e}", EXIT_NOT_NORMAL) from e
    if need_normal and not emb.normal:
        raise CliError("the subgroup is not normal in the ambient group", EXIT_NOT_NORMAL)
    return emb


def _json_text(payload: dict) -> str:
    """The one JSON form of the CLI: sorted keys, no spaces."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _json_line(payload: dict) -> str:
    return _json_text(payload) + "\n"


# -- commands ----------------------------------------------------------------------


def cmd_blocks(args) -> int:
    group_in = _read_group(args.group)
    outputs = _cached(
        args,
        {"cmd": "blocks", "group": group_in},
        {"stdout": str},
        lambda: _blocks_outputs(args, group_in),
    )
    sys.stdout.write(outputs["stdout"])
    return EXIT_OK


def _blocks_outputs(args, group_in: dict) -> dict:
    group = _build_group(args.group, group_in, args.order_cap)
    (algebra,) = _algebras(args, group)
    blocks = algebra.blocks()
    payload = {
        "group": group.name,
        "order": group.order,
        "field": algebra.field.to_json(),
        "count": len(blocks),
        "blocks": [
            {
                "index": b.index,
                "dim": b.dim,
                "principal": b.is_principal,
                "idempotent_support": [i for i, c in enumerate(b.idempotent) if c],
            }
            for b in blocks
        ],
    }
    return {"stdout": _json_line(payload)}


def cmd_stt(args) -> int:
    group_in = _read_group(args.group)
    outputs = _cached(
        args,
        {"cmd": "stt", "group": group_in, "block": args.block},
        {"stdout": str, "json": str, "dot": str},
        lambda: _stt_outputs(args, group_in),
    )
    if args.json:
        _atomic_write(args.json, outputs["json"].encode())
    if args.dot:
        _atomic_write(args.dot, outputs["dot"].encode())
    sys.stdout.write(outputs["stdout"])
    return EXIT_OK


def _stt_outputs(args, group_in: dict) -> dict:
    from .engine import PosetCapExceeded, TiltingContext, enumerate_poset

    (algebra,) = _algebras(args, _build_group(args.group, group_in, args.order_cap))
    block = None
    if args.block is not None:
        blocks = algebra.blocks()
        if not 0 <= args.block < len(blocks):
            raise CliError(
                f"block index {args.block} out of range ({len(blocks)} blocks)",
                EXIT_PARSE,
            )
        block = blocks[args.block]
    ctx = TiltingContext(algebra, block)
    try:
        poset = enumerate_poset(ctx, node_cap=args.node_cap)
    except PosetCapExceeded as e:
        raise CliError(f"{e} (no partial files written)", EXIT_CAP) from e
    edge_word = "edge" if poset.n_edges == 1 else "edges"
    return {
        "stdout": f"{poset.n_nodes} nodes, {poset.n_edges} {edge_word}\n",
        "json": _json_line(poset.to_json()),
        "dot": poset.to_dot(),
    }


def cmd_verify(args) -> int:
    sub_in = _read_group(args.sub)
    amb_in = _read_group(args.amb)
    wanted = set(args.theorems)
    if "all" in wanted:
        wanted = set(THEOREM_IDS[1:])
    outputs = _cached(
        args,
        {"cmd": "verify", "sub": sub_in, "amb": amb_in, "theorems": sorted(wanted)},
        {"stdout": str, "passed": bool},
        lambda: _verify_outputs(args, sub_in, amb_in, wanted),
    )
    sys.stdout.write(outputs["stdout"])
    return EXIT_OK if outputs["passed"] else EXIT_VERIFY


def _verify_outputs(args, sub_in: dict, amb_in: dict, wanted: set) -> dict:
    from .engine import PosetCapExceeded, TiltingContext, enumerate_poset
    from .functors import (
        InductionContext,
        verify_main_theorems,
        verify_syzygy_commutation,
    )

    sub = _build_group(args.sub, sub_in, args.order_cap)
    amb = _build_group(args.amb, amb_in, args.order_cap)
    emb = _embedding_or_die(sub, amb, need_normal=True)
    sub_alg, amb_alg = _algebras(args, sub, amb)
    ictx = InductionContext(emb, sub_alg, amb_alg)
    amb_ctx = TiltingContext(amb_alg)
    try:
        amb_poset = enumerate_poset(amb_ctx, node_cap=args.node_cap)
    except PosetCapExceeded as e:
        raise CliError(str(e), EXIT_CAP) from e
    block_reports = []
    overall = True
    clause_map = {
        "T3.2": {"inductions_certify"},
        "T3.3": {"covering_block_components_certify"},
        "C3.4": {"order_preserved_and_reflected"},
        "T3.6": {"order_preserved_and_reflected", "induced_map_injective"},
        "P3.5": {"descent_matches"},
    }
    for block in sub_alg.blocks():
        ctx = TiltingContext(sub_alg, block)
        try:
            poset = enumerate_poset(ctx, node_cap=args.node_cap)
        except PosetCapExceeded as e:
            raise CliError(str(e), EXIT_CAP) from e
        main = verify_main_theorems(ictx, poset, amb_poset)
        entry = {
            "block": block.index,
            "block_dim": block.dim,
            "inertial_order": main.inertial.order,
            "poset": {"nodes": poset.n_nodes, "edges": poset.n_edges},
        }
        selected = set()
        for tid in wanted & clause_map.keys():
            selected |= clause_map[tid]
        if selected:
            informational = {"invariant_nodes_found", "induced_map_image"}
            clauses = [
                c
                for c in main.clauses
                if c.name in selected or c.name in informational
            ]
            entry["pipeline"] = {
                "clauses": [c.to_json() for c in clauses],
                "passed": all(c.passed for c in clauses),
            }
            overall = overall and entry["pipeline"]["passed"]
        if "L3.1" in wanted:
            l31 = []
            for node in main.invariant_nodes:
                rep = verify_syzygy_commutation(ictx, node.module(), main.inertial)
                slim = rep.to_json()
                for c in slim["clauses"]:
                    c["details"].pop("witness", None)
                    c["details"].pop("witnesses", None)
                l31.append(slim)
                overall = overall and rep.passed
            entry["L3.1"] = {
                "reports": l31,
                "passed": all(r["passed"] for r in l31),
            }
        block_reports.append(entry)
    payload = {
        "sub": sub.name,
        "amb": amb.name,
        "field": amb_alg.field.to_json(),
        "normal": True,
        "index": emb.n_cosets,
        "coset_reps": [list(amb.elements[r]) for r in emb.coset_reps],
        "theorems": sorted(wanted),
        "blocks": block_reports,
        "passed": overall,
    }
    return {"stdout": _json_line(payload), "passed": overall}


def _embedded_module(args, need_normal: bool):
    """The embedding of ``args.sub`` in ``args.amb``, the algebras of both
    groups and the module of ``args.module`` over the subgroup's algebra."""
    from .modules import module_from_json

    sub = _build_group(args.sub, _read_group(args.sub), args.order_cap)
    amb = _build_group(args.amb, _read_group(args.amb), args.order_cap)
    emb = _embedding_or_die(sub, amb, need_normal=need_normal)
    module_data = _read_json_file(args.module)
    sub_alg, amb_alg = _algebras(args, sub, amb)
    try:
        M = module_from_json(module_data, algebra=sub_alg)
    except MemoryError:
        raise
    except Exception as e:
        raise CliError(f"bad module file {args.module}: {e}", EXIT_PARSE) from e
    return emb, sub_alg, amb_alg, M


def cmd_induce(args) -> int:
    from .functors import InductionContext, induce
    from .modules import module_to_json

    emb, sub_alg, amb_alg, M = _embedded_module(args, need_normal=False)
    ind = induce(InductionContext(emb, sub_alg, amb_alg, require_normal=False), M)
    blob = _json_line(module_to_json(ind))
    if args.out:
        _atomic_write(args.out, blob.encode())
    else:
        sys.stdout.write(blob)
    return EXIT_OK


def cmd_mackey(args) -> int:
    from .functors import InductionContext, mackey_decomposition

    emb, sub_alg, amb_alg, M = _embedded_module(args, need_normal=True)
    witness = mackey_decomposition(
        InductionContext(emb, sub_alg, amb_alg), M
    )
    payload = witness.to_json()
    payload["module_dim"] = M.dim
    payload["index"] = emb.n_cosets
    sys.stdout.write(_json_line(payload))
    return EXIT_OK if witness.ok else EXIT_VERIFY


# -- entry point ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tautilt",
        description="group-algebra block and support tau-tilting workbench",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--p", type=int, required=True, help="field characteristic")
        p.add_argument(
            "--m",
            type=int,
            default=None,
            help="field degree (default: splitting-field heuristic)",
        )
        p.add_argument("--order-cap", type=int, default=10000)
        p.add_argument("--node-cap", type=int, default=512)
        p.add_argument("--cache-dir", default=None)
        p.add_argument("--no-cache", action="store_true")

    b = sub.add_parser("blocks", help="block decomposition of a group algebra")
    b.add_argument("group")
    common(b)

    s = sub.add_parser("stt", help="enumerate the support tau-tilting poset")
    s.add_argument("group")
    s.add_argument("--block", type=int, default=None, help="restrict to one block")
    s.add_argument("--dot", default=None, help="write the Hasse diagram as DOT")
    s.add_argument("--json", default=None, help="write the poset as JSON")
    common(s)

    v = sub.add_parser("verify", help="run the invariance/induction pipelines")
    v.add_argument("sub")
    v.add_argument("amb")
    v.add_argument(
        "--theorems",
        nargs="+",
        choices=list(THEOREM_IDS),
        default=["all"],
        help="which checks to run",
    )
    common(v)

    i = sub.add_parser("induce", help="induce a module along an embedding")
    i.add_argument("sub")
    i.add_argument("amb")
    i.add_argument("--module", required=True)
    i.add_argument("--out", default=None)
    common(i)

    m = sub.add_parser("mackey", help="verify the restriction of an induction")
    m.add_argument("sub")
    m.add_argument("amb")
    m.add_argument("--module", required=True)
    common(m)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "blocks": cmd_blocks,
        "stt": cmd_stt,
        "verify": cmd_verify,
        "induce": cmd_induce,
        "mackey": cmd_mackey,
    }
    try:
        return handlers[args.command](args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except Exception as e:
        failure = _failure(e)
        if failure is None:
            raise
        code, message = failure
        print(f"error: {message}", file=sys.stderr)
        return code


def _failure(exc: Exception) -> tuple[int, str] | None:
    """The exit code and message of a failure in the numeric modules or of
    an allocation, or None for any other exception.  A class is matched
    only if its module has loaded, so a cache hit loads no numeric module."""
    if isinstance(exc, MemoryError):
        return EXIT_CAP, f"out of memory: {exc}" if str(exc) else "out of memory"
    failures = (
        ("ff", "FFError", EXIT_PARSE, "{}"),
        ("rings", "FieldNotSplittingError", EXIT_FIELD,
         "the field does not split the algebra ({}); try a larger --m"),
        ("rings", "DecompositionError", EXIT_DECOMPOSITION, "decomposition failed: {}"),
        ("engine", "EngineError", EXIT_ENGINE, "internal inconsistency: {}"),
    )
    for module, name, code, message in failures:
        loaded = sys.modules.get(f"{__package__}.{module}")
        if loaded is not None and isinstance(exc, getattr(loaded, name)):
            return code, message.format(exc)
    return None


def run():
    """Run ``main`` and exit the process with its code.  Standard output is
    flushed here, so a closed reader exits 2 with one line, as an
    unwritable output file does; an interrupt exits 130 (128 + SIGINT).
    Before the exit, every live object moves to the collector's permanent
    generation (``gc.freeze``), so the interpreter's teardown does not
    traverse numpy's, the package's and the registry's objects again."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The buffered bytes are flushed once more at shutdown: send them
        # to the null device, so that flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: cannot write stdout", file=sys.stderr)
        code = EXIT_PARSE
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        code = 130
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
