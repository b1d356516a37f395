import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import tautilt
from tautilt import engine
from tautilt.cli import _failure, main
from tautilt.engine import CriteriaDisagree, EngineError
from tautilt.rings import DecompositionError


@pytest.fixture()
def group_files(tmp_path):
    def write(name, degree, generators):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"degree": degree, "generators": generators}))
        return str(path)

    return {
        "A4": write("A4", 4, [[[1, 2, 3]], [[1, 2], [3, 4]]]),
        "S4": write("S4", 4, [[[1, 2]], [[1, 2, 3, 4]]]),
        "S3": write("S3", 3, [[[1, 2]], [[1, 2, 3]]]),
        "C3": write("C3", 3, [[[1, 2, 3]]]),
        "C2deg3": write("C2deg3", 3, [[[1, 2]]]),
        "C2": write("C2", 2, [[[1, 2]]]),
        "V4": write("V4", 4, [[[1, 2], [3, 4]], [[1, 3], [2, 4]]]),
        # SL(2,3) and its normal Q8 on the 8 nonzero vectors of GF(3)^2,
        # as image lists (corpus.sl23 and corpus.quaternion_group)
        "SL23": write("SL23", 8, [[4, 8, 3, 7, 2, 6, 1, 5], [6, 3, 1, 7, 4, 2, 8, 5]]),
        "Q8": write("Q8", 8, [[6, 3, 1, 7, 4, 2, 8, 5], [5, 7, 4, 6, 2, 8, 1, 3]]),
        "bad": str((tmp_path / "bad.json").resolve()),
        "tmp": tmp_path,
    }


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_blocks_a4(group_files, capsys):
    code, out, _ = run(capsys, ["blocks", group_files["A4"], "--p", "2", "--no-cache"])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    assert data["field"] == {"p": 2, "m": 2, "modulus": [1, 1, 1]}
    assert data["blocks"][0]["principal"]


def test_blocks_s3_p3(group_files, capsys):
    code, out, _ = run(capsys, ["blocks", group_files["S3"], "--p", "3", "--no-cache"])
    assert code == 0
    assert json.loads(out)["count"] == 1


def test_blocks_c2(group_files, capsys):
    code, out, _ = run(capsys, ["blocks", group_files["C2"], "--p", "2", "--no-cache"])
    assert code == 0
    assert json.loads(out)["count"] == 1


def test_blocks_parse_error(group_files, capsys, tmp_path):
    bad = tmp_path / "nope.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["blocks", str(bad), "--p", "2", "--no-cache"])
    assert code == 2
    assert "error" in err


def test_blocks_missing_file(group_files, capsys):
    code, _, _ = run(capsys, ["blocks", group_files["bad"], "--p", "2", "--no-cache"])
    assert code == 2


def test_blocks_nonprime(group_files, capsys):
    code, _, _ = run(capsys, ["blocks", group_files["C2"], "--p", "6", "--no-cache"])
    assert code == 2


def test_stt_s4(group_files, capsys, tmp_path):
    dot = tmp_path / "s4.dot"
    js = tmp_path / "s4.json"
    code, out, _ = run(
        capsys,
        [
            "stt",
            group_files["S4"],
            "--p",
            "2",
            "--dot",
            str(dot),
            "--json",
            str(js),
            "--no-cache",
        ],
    )
    assert code == 0
    assert out.strip() == "8 nodes, 8 edges"
    data = json.loads(js.read_text())
    assert data["n_nodes"] == 8 and data["n_edges"] == 8
    text = dot.read_text()
    assert text.startswith("digraph") and text.count("->") == 8


def test_stt_c2(group_files, capsys):
    code, out, _ = run(capsys, ["stt", group_files["C2"], "--p", "2", "--no-cache"])
    assert code == 0
    assert out.strip() == "2 nodes, 1 edge"


def test_stt_node_cap(group_files, capsys):
    code, _, err = run(
        capsys,
        ["stt", group_files["S4"], "--p", "2", "--node-cap", "3", "--no-cache"],
    )
    assert code == 3
    assert "cap" in err


def test_stt_cap_leaves_no_files(group_files, capsys, tmp_path):
    dot = tmp_path / "never.dot"
    code, _, _ = run(
        capsys,
        [
            "stt",
            group_files["S4"],
            "--p",
            "2",
            "--node-cap",
            "3",
            "--dot",
            str(dot),
            "--no-cache",
        ],
    )
    assert code == 3
    assert not dot.exists()


def test_stt_determinism_and_cache(group_files, capsys, tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("TAUTILT_CACHE", str(cache_dir))
    outs = []
    for run_idx in range(2):
        dot = tmp_path / f"a4_{run_idx}.dot"
        js = tmp_path / f"a4_{run_idx}.json"
        code, out, _ = run(
            capsys,
            [
                "stt",
                group_files["A4"],
                "--p",
                "2",
                "--dot",
                str(dot),
                "--json",
                str(js),
            ],
        )
        assert code == 0
        outs.append((out, dot.read_bytes(), js.read_bytes()))
    assert outs[0] == outs[1]
    assert cache_dir.exists() and list(cache_dir.glob("*.json"))
    # cache-off rerun must also be byte-identical
    dot = tmp_path / "a4_nc.dot"
    js = tmp_path / "a4_nc.json"
    code, out, _ = run(
        capsys,
        [
            "stt",
            group_files["A4"],
            "--p",
            "2",
            "--dot",
            str(dot),
            "--json",
            str(js),
            "--no-cache",
        ],
    )
    assert (out, dot.read_bytes(), js.read_bytes()) == outs[0]


def test_stt_field_not_splitting(group_files, capsys):
    code, out, err = run(
        capsys, ["stt", group_files["C3"], "--p", "2", "--m", "1", "--no-cache"]
    )
    assert code == 6
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "try a larger --m" in err


@pytest.mark.parametrize(
    "exc, code",
    [
        (DecompositionError("no splitting idempotent found in 400 tries"), 7),
        (CriteriaDisagree("counting=True vs approximation=False"), 8),
        (EngineError("multiple certified completions"), 8),
        (MemoryError("Unable to allocate 1.38 GiB for an array with shape (169344, 1008)"), 3),
    ],
)
def test_stt_failure_exit_codes(group_files, capsys, monkeypatch, exc, code):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(engine, "enumerate_poset", fail)
    got, out, err = run(capsys, ["stt", group_files["C2"], "--p", "2", "--no-cache"])
    assert got == code
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(exc) in err


def test_certificate_failures_exit_8_with_one_line(group_files, capsys, monkeypatch):
    """A disagreement of the two criteria, and an exchange against the
    exchange theorem, each exit 8 with one line naming the pair."""
    real_certify = engine._certify

    def flipped(pair):
        c = real_certify(pair)
        return engine._certificate(
            pair, c.tau_rigid, c.hom_pm_zero, c.support_pims, not c.approx_ok, c.approx_coker_ids
        )

    monkeypatch.setattr(engine, "_certify", flipped)
    got = run(capsys, ["stt", group_files["C2"], "--p", "2", "--no-cache"])
    assert got == (8, "", "error: internal inconsistency: counting=True vs approximation=False "
                          "for Pair(P1) (coker classes (), support ())\n")
    monkeypatch.setattr(engine, "_certify", real_certify)
    real_generates = engine._generates
    monkeypatch.setattr(engine, "_generates", lambda *args: not real_generates(*args))
    got = run(capsys, ["stt", group_files["S3"], "--p", "2", "--no-cache"])
    assert got == (8, "", "error: internal inconsistency: a summand in Fac of the rest has a "
                          "lower completion after removing 0 from ((0,), ()) (coker classes ())\n")


def test_out_of_memory_is_the_cap_code():
    assert _failure(MemoryError("Unable to allocate 8 MiB")) == (3, "out of memory: Unable to allocate 8 MiB")
    assert _failure(MemoryError()) == (3, "out of memory")


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="reads the address space size from /proc")
def test_running_out_of_address_space_exits_3_with_one_line(tmp_path):
    """A child caps its own address space at 8 MB above its size after the
    imports and runs a computation that needs far more (``stt S5 --p 5``
    peaks near 115 MB): it exits 3 with one ``error: out of memory`` line."""
    group = tmp_path / "S5.json"
    group.write_text(json.dumps({"degree": 5, "generators": [[[1, 2]], [[1, 2, 3, 4, 5]]]}))
    child = textwrap.dedent(
        f"""
        import resource, sys
        from tautilt import cli, engine, functors, homalg, modules, rings  # one BLAS thread
        import numpy as np

        # OpenBLAS allocates its work buffer on the first large product and
        # ends the process itself if that fails: make it before the cap.
        np.ones((256, 256)) @ np.ones((256, 256))
        with open("/proc/self/statm") as fh:
            size = int(fh.read().split()[0]) * resource.getpagesize()
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (size + (8 << 20), hard))
        sys.exit(cli.main(["stt", {str(group)!r}, "--p", "5", "--no-cache"]))
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(tautilt.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 3, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("error: out of memory") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


# The cache key of `stt S3.json --p 2 --block 0`: the SHA-256 of the
# request (command, block, group data and printed name) and the
# configuration (--p, --m, the order and node caps).  It changes only if
# what the key covers changes, and then every stored entry is a miss.
STT_S3_KEY = "41657c2ca80b15ca3e91adbdc624585b52c5e063e92c0884ad71ff855e25813d"


def test_cache_key_of_an_stt_request_is_pinned(group_files, capsys, tmp_path):
    cache = tmp_path / "cache"
    argv = ["stt", group_files["S3"], "--p", "2", "--block", "0", "--cache-dir", str(cache)]
    code, _, _ = run(capsys, argv)
    assert code == 0
    assert [entry.stem for entry in cache.glob("*.json")] == [STT_S3_KEY]


def test_cache_entry_invalidated_by_source_edit(group_files, tmp_path):
    """A hit serves the stored bytes; after a package source changes, the
    same key is a miss and the run computes afresh."""
    src = tmp_path / "src"
    shutil.copytree(
        Path(tautilt.__file__).parent,
        src / "tautilt",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    cache = tmp_path / "cache"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "tautilt.cli", "blocks", group_files["C2"],
            "--p", "2", "--cache-dir", str(cache)]

    def stdout():
        return subprocess.run(argv, env=env, capture_output=True, check=True).stdout

    fresh = stdout()
    (entry,) = cache.glob("*.json")
    data = json.loads(entry.read_text())
    data["outputs"]["stdout"] = "from the cache\n"
    entry.write_text(json.dumps(data))
    assert stdout() == b"from the cache\n"
    with open(src / "tautilt" / "polys.py", "a") as fh:
        fh.write("\n# edited\n")
    assert stdout() == fresh


def test_verify_c3_in_s3_p3(group_files, capsys):
    code, out, _ = run(
        capsys,
        ["verify", group_files["C3"], group_files["S3"], "--p", "3", "--no-cache"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"]
    assert data["blocks"][0]["poset"]["nodes"] == 2
    counts = {
        c["name"]: c["details"]
        for c in data["blocks"][0]["pipeline"]["clauses"]
    }
    assert counts["invariant_nodes_found"]["count"] == 2


def test_verify_c3_in_s3_p2_twists_by_inertial_group(group_files, capsys):
    # over GF(4), kC3 has three blocks; S3 swaps the two non-principal ones,
    # so their inertial group is C3 itself and L3.1 has no twist to check
    code, out, _ = run(
        capsys,
        ["verify", group_files["C3"], group_files["S3"], "--p", "2", "--no-cache"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"]
    assert [b["inertial_order"] for b in data["blocks"]] == [6, 3, 3]
    for block in data["blocks"]:
        assert block["L3.1"]["passed"]
        for report in block["L3.1"]["reports"]:
            assert all(c["passed"] for c in report["clauses"])


# Per block of the subgroup: (inertial order, poset nodes, poset edges,
# invariant nodes, image size, target size).  The algebras of V4 and Q8 at
# p = 3 are semisimple, so each block has the two pairs of one simple.
VERIFY_BLOCKS = {
    ("V4", "A4", "3"): [(12, 2, 1, 2, 2, 4)] + [(4, 2, 1, 2, 2, 4)] * 3,
    ("V4", "S4", "3"): [(24, 2, 1, 2, 2, 24)] + [(8, 2, 1, 2, 2, 24)] * 3,
    ("Q8", "SL23", "3"): [(24, 2, 1, 2, 2, 8)] + [(8, 2, 1, 2, 2, 8)] * 3 + [(24, 2, 1, 2, 2, 8)],
    ("Q8", "SL23", "2"): [(24, 2, 1, 2, 2, 32)],
}


@pytest.mark.parametrize("sub,amb,p", list(VERIFY_BLOCKS))
def test_verify_blocks_of_normal_subgroups(group_files, capsys, sub, amb, p):
    code, out, _ = run(
        capsys, ["verify", group_files[sub], group_files[amb], "--p", p, "--no-cache"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"]
    got = []
    for block in data["blocks"]:
        clauses = {c["name"]: c["details"] for c in block["pipeline"]["clauses"]}
        image = clauses["induced_map_image"]
        got.append((
            block["inertial_order"],
            block["poset"]["nodes"],
            block["poset"]["edges"],
            clauses["invariant_nodes_found"]["count"],
            image["image_size"],
            image["target_size"],
        ))
    assert got == VERIFY_BLOCKS[(sub, amb, p)]


def test_verify_same_group(group_files, capsys):
    code, out, _ = run(
        capsys,
        ["verify", group_files["S3"], group_files["S3"], "--p", "3", "--no-cache"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"]
    assert data["index"] == 1
    # the induced map is the identity on the whole poset
    info = [
        c
        for c in data["blocks"][0]["pipeline"]["clauses"]
        if c["name"] == "induced_map_image"
    ][0]
    assert info["details"]["onto_target_poset"]


def test_verify_not_normal(group_files, capsys):
    code, _, err = run(
        capsys,
        ["verify", group_files["C2deg3"], group_files["S3"], "--p", "3", "--no-cache"],
    )
    assert code == 4
    assert "normal" in err


def test_verify_not_subgroup(group_files, capsys):
    code, _, _ = run(
        capsys,
        ["verify", group_files["C2"], group_files["S3"], "--p", "3", "--no-cache"],
    )
    assert code == 4


def test_verify_theorem_subset(group_files, capsys):
    code, out, _ = run(
        capsys,
        [
            "verify",
            group_files["C3"],
            group_files["S3"],
            "--p",
            "3",
            "--theorems",
            "L3.1",
            "--no-cache",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert "L3.1" in data["blocks"][0]
    assert "pipeline" not in data["blocks"][0]


def test_induce_roundtrip(group_files, capsys, tmp_path):
    # build a module file: the trivial module over C3 at p=3
    from tautilt.algebra import GroupAlgebra
    from tautilt.ff import field_create
    from tautilt.groups import group_from_json
    from tautilt.modules import ModuleRegistry, module_to_json, trivial_module

    c3 = group_from_json(json.loads(open(group_files["C3"]).read()), name="C3")
    alg = GroupAlgebra(c3, field_create(3, 1))
    ModuleRegistry(alg)
    mod_file = tmp_path / "k.json"
    mod_file.write_text(json.dumps(module_to_json(trivial_module(alg))))
    out_file = tmp_path / "ind.json"
    code, _, _ = run(
        capsys,
        [
            "induce",
            group_files["C3"],
            group_files["S3"],
            "--p",
            "3",
            "--module",
            str(mod_file),
            "--out",
            str(out_file),
            "--no-cache",
        ],
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["dim"] == 2


def test_mackey_cli(group_files, capsys, tmp_path):
    from tautilt.algebra import GroupAlgebra
    from tautilt.ff import field_create
    from tautilt.groups import group_from_json
    from tautilt.modules import ModuleRegistry, module_to_json, regular_module

    c3 = group_from_json(json.loads(open(group_files["C3"]).read()), name="C3")
    alg = GroupAlgebra(c3, field_create(3, 1))
    ModuleRegistry(alg)
    mod_file = tmp_path / "reg.json"
    mod_file.write_text(json.dumps(module_to_json(regular_module(alg))))
    code, out, _ = run(
        capsys,
        [
            "mackey",
            group_files["C3"],
            group_files["S3"],
            "--p",
            "3",
            "--module",
            str(mod_file),
            "--no-cache",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["left_dim"] == data["right_dim"] == 6


@pytest.mark.parametrize("entry", [3.5, -1, 70000])
def test_induce_rejects_module_entries_outside_the_field(group_files, capsys, tmp_path, entry):
    """Module entries must be field codes.  3.5 used to be truncated to the
    valid code 3, and 70000 surfaced numpy's int16 overflow message."""
    module = {
        "field": {"p": 2, "m": 2, "modulus": [1, 1, 1]},
        "group": json.loads(open(group_files["C3"]).read()),
        "dim": 1,
        "generator_matrices": [[3]],  # the generator acts by a cube root of 1
    }
    mod_file = tmp_path / "mod.json"
    argv = ["induce", group_files["C3"], group_files["S3"], "--p", "2",
            "--module", str(mod_file), "--no-cache"]
    mod_file.write_text(json.dumps(module))
    code, _, _ = run(capsys, argv)
    assert code == 0
    module["generator_matrices"] = [[entry]]
    mod_file.write_text(json.dumps(module))
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: bad module file {mod_file}: generator matrix 0: entry {entry!r} is not a field code in range(4)\n"


@pytest.mark.parametrize("command", ["induce", "mackey"])
@pytest.mark.parametrize("coefficient", [3, -1])
def test_module_field_modulus_outside_the_prime_field(group_files, capsys, tmp_path, command, coefficient):
    """A modulus coefficient outside range(p) built a second GF(4), and the
    module was refused as living over a field other than the session's."""
    module = {
        "field": {"p": 2, "m": 2, "modulus": [coefficient, 1, 1]},
        "group": json.loads(open(group_files["C3"]).read()),
        "dim": 1,
        "generator_matrices": [[1]],
    }
    mod_file = tmp_path / "mod.json"
    mod_file.write_text(json.dumps(module))
    argv = [command, group_files["C3"], group_files["S3"], "--p", "2",
            "--module", str(mod_file), "--no-cache"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == (f"error: bad module file {mod_file}: "
                   f"modulus coefficient {coefficient} is not in range(2)\n")


@pytest.mark.parametrize("command", ["blocks", "induce"])
def test_non_utf8_input_is_invalid_json(group_files, capsys, tmp_path, command):
    """A group or module file that is not UTF-8 ended in a
    UnicodeDecodeError traceback."""
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe{")
    if command == "blocks":
        argv = ["blocks", str(path), "--p", "2", "--no-cache"]
    else:
        argv = ["induce", group_files["C3"], group_files["S3"], "--p", "2",
                "--module", str(path), "--no-cache"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: invalid JSON in {path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "data",
    [
        {"degree": 3, "generators": [[2, 3, 1.0]]},
        {"degree": 3, "generators": [[[1, 2.5]]]},
        {"degree": 3, "generators": [[["a", 2]]]},
        {"degree": 3, "generators": 5},
        {"degree": True, "generators": [[1]]},
        {"degree": 3, "generators": [[2, 3, True]]},
    ],
)
def test_group_entries_must_be_integers(capsys, tmp_path, data):
    """Degrees, images and cycle points are ints, not bools or floats, and
    generators is a list: the first four ended in a TypeError traceback,
    the last two were read as ints."""
    path = tmp_path / "group.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["blocks", str(path), "--p", "2", "--no-cache"])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: bad group file {path}: ")
    assert err.count("\n") == 1


def test_verify_a4_in_s4_all(group_files, capsys, tmp_path, monkeypatch):
    """The flagship pipeline via the CLI: everything passes and the
    invariant-node map is onto the overgroup poset."""
    monkeypatch.setenv("TAUTILT_CACHE", str(tmp_path / "cache"))
    code, out, _ = run(
        capsys,
        ["verify", group_files["A4"], group_files["S4"], "--p", "2"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"]
    assert data["field"]["m"] == 2
    block = data["blocks"][0]
    assert block["poset"]["nodes"] == 32
    clauses = {c["name"]: c for c in block["pipeline"]["clauses"]}
    assert clauses["invariant_nodes_found"]["details"]["count"] == 8
    assert clauses["induced_map_image"]["details"]["onto_target_poset"]
    assert block["L3.1"]["passed"]
    assert len(block["L3.1"]["reports"]) == 8
    # cached second run is byte-identical
    code2, out2, _ = run(
        capsys,
        ["verify", group_files["A4"], group_files["S4"], "--p", "2"],
    )
    assert code2 == 0 and out2 == out


@pytest.mark.parametrize("preset", [None, "2"])
def test_import_sets_one_blas_thread_unless_the_user_chose(preset):
    """Importing the package, as the CLI does, sets the BLAS thread
    variables to 1 before numpy loads; a value the user set stays."""
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["PYTHONPATH"] = str(Path(tautilt.__file__).parent.parent)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = f"import os, tautilt; print(*(os.environ[n] for n in {names!r}))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, check=True, text=True
    ).stdout
    assert out.split() == [preset or "1", "1", "1"]


def _rename(path, name):
    """A copy of the group file ``path`` under another name, same bytes."""
    copy = Path(path).parent / f"{name}.json"
    shutil.copyfile(path, copy)
    return str(copy)


@pytest.mark.parametrize(
    "command",
    [
        ["blocks", "S3", "--p", "3"],
        ["stt", "S3", "--p", "2", "--json", "OUT"],
        ["verify", "C3", "S3", "--p", "3"],
    ],
)
def test_hit_bytes_follow_the_group_name(group_files, capsys, tmp_path, command):
    """The outputs print each group's name, the stem of its file.  A copy of
    a group file under another name hit the entry of the original and
    printed the old name."""
    cache = str(tmp_path / "cache")

    def outputs(names, cache_args):
        out_file = tmp_path / "out.json"
        out_file.unlink(missing_ok=True)
        argv = [
            _rename(group_files[a], names[a]) if a in names
            else str(out_file) if a == "OUT"
            else group_files.get(a, a)
            for a in command
        ]
        code, out, _ = run(capsys, argv + cache_args)
        return code, out, out_file.read_bytes() if "OUT" in command else None

    renames = {name: renamed for name, renamed in (("S3", "Sym3"), ("C3", "Cyc3")) if name in command}
    first = outputs({}, ["--cache-dir", cache])
    hit = outputs(renames, ["--cache-dir", cache])
    fresh = outputs(renames, ["--no-cache"])
    assert first[0] == hit[0] == fresh[0] == 0
    assert hit == fresh
    assert hit != first


@pytest.mark.parametrize("option", ["--json", "--dot", "--out"])
def test_unwritable_output_is_a_parse_error(group_files, capsys, tmp_path, option):
    """An output file in a missing directory ended in a FileNotFoundError
    traceback and exit 1, after the whole computation."""
    target = tmp_path / "missing" / "x.out"
    if option == "--out":
        module = {
            "field": {"p": 2, "m": 1, "modulus": [1, 1]},
            "group": json.loads(open(group_files["C3"]).read()),
            "dim": 1,
            "generator_matrices": [[1]],
        }
        mod_file = tmp_path / "mod.json"
        mod_file.write_text(json.dumps(module))
        argv = ["induce", group_files["C3"], group_files["S3"], "--p", "2", "--m", "1",
                "--module", str(mod_file)]
    else:
        argv = ["stt", group_files["S3"], "--p", "2"]
    code, out, err = run(capsys, argv + [option, str(target), "--no-cache"])
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_unwritable_cache_dir_skips_the_store(group_files, capsys, tmp_path):
    """A cache directory that cannot be made (here, below a plain file) ended
    in a traceback after a successful run; now the run prints its output."""
    blocker = tmp_path / "plain_file"
    blocker.write_text("")
    argv = ["blocks", group_files["S3"], "--p", "3"]
    fresh = run(capsys, argv + ["--no-cache"])
    assert run(capsys, argv + ["--cache-dir", str(blocker / "cache")]) == fresh
    assert fresh[0] == 0


@pytest.mark.parametrize(
    "command, field",
    [
        (["blocks", "C2", "--p", "2"], "stdout"),
        (["stt", "C2", "--p", "2", "--json", "OUT"], "json"),
        (["stt", "C2", "--p", "2", "--dot", "OUT"], "dot"),
        (["verify", "C3", "S3", "--p", "3"], "passed"),
    ],
)
def test_cache_entry_missing_an_output_is_a_miss(group_files, capsys, tmp_path, command, field):
    """An entry whose outputs lack one that the command reads ended in a
    KeyError traceback; now it is recomputed."""
    check_edited_entry_is_recomputed(group_files, capsys, tmp_path, command, field,
                                     lambda outputs: outputs.pop(field))


@pytest.mark.parametrize(
    "command, field, wrong",
    [
        (["blocks", "C2", "--p", "2"], "stdout", 5),
        (["stt", "C2", "--p", "2", "--json", "OUT"], "json", 5),
        (["stt", "C2", "--p", "2", "--dot", "OUT"], "dot", ["digraph"]),
        (["verify", "C3", "S3", "--p", "3"], "passed", 0),
    ],
)
def test_cache_entry_with_a_wrongly_typed_output_is_a_miss(
    group_files, capsys, tmp_path, command, field, wrong
):
    """An entry whose stdout was a number ended in a TypeError traceback
    and exit 1, and a ``passed`` of 0 gave the exit code of a failed
    verify; an output of another type than the command reads is now a
    miss, and recomputed."""
    check_edited_entry_is_recomputed(group_files, capsys, tmp_path, command, field,
                                     lambda outputs: outputs.update({field: wrong}))


def check_edited_entry_is_recomputed(group_files, capsys, tmp_path, command, field, edit):
    """After ``edit`` changed the outputs of the cache entry of a first
    run, the command gives the first run's results and stores ``field``
    again with the type of a fresh run."""
    cache = tmp_path / "cache"
    out_file = tmp_path / "out"
    argv = [group_files.get(a, a) for a in command]
    argv = [str(out_file) if a == "OUT" else a for a in argv] + ["--cache-dir", str(cache)]

    def result():
        code, out, err = run(capsys, argv)
        return code, out, err, out_file.read_bytes() if "OUT" in command else None

    fresh = result()
    assert fresh[0] == 0
    (entry,) = cache.glob("*.json")
    data = json.loads(entry.read_text())
    stored = data["outputs"][field]
    edit(data["outputs"])
    entry.write_text(json.dumps(data))
    assert result() == fresh
    assert type(json.loads(entry.read_text())["outputs"][field]) is type(stored)


def _python(code):
    env = dict(os.environ, PYTHONPATH=str(Path(tautilt.__file__).parent.parent))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, check=True, text=True
    ).stdout


def test_importing_the_package_and_cli_loads_no_numpy():
    code = "import sys, tautilt, tautilt.cli; print('numpy' in sys.modules)"
    assert _python(code) == "False\n"


def test_every_export_resolves():
    """The package resolves its exports on first use; each name in
    ``__all__`` is there, and ``from tautilt import *`` binds them all."""
    for name in tautilt.__all__:
        assert getattr(tautilt, name) is not None
    namespace = {}
    exec("from tautilt import *", namespace)
    assert set(tautilt.__all__) <= namespace.keys()
    assert namespace["FFMatrix"].__module__ == "tautilt.ff"
    with pytest.raises(AttributeError):
        tautilt.no_such_name


@pytest.mark.parametrize(
    "command",
    [
        ["blocks", "S3", "--p", "3"],
        ["stt", "S3", "--p", "2", "--json", "OUT"],
        ["verify", "C3", "S3", "--p", "3"],
    ],
)
def test_cache_hit_loads_no_numpy(group_files, capsys, tmp_path, command):
    """A hit reads its inputs and its entry: it gives the bytes of the cold
    run and ends without numpy loaded."""
    out_file = tmp_path / "out.json"
    argv = [group_files.get(a, a) for a in command]
    argv = [str(out_file) if a == "OUT" else a for a in argv]
    argv += ["--cache-dir", str(tmp_path / "cache")]
    code, cold, _ = run(capsys, argv)
    assert code == 0
    cold_file = out_file.read_bytes() if "OUT" in command else None
    out_file.unlink(missing_ok=True)
    hit = _python(
        "import contextlib, io, sys\n"
        "from tautilt.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    code = main({argv!r})\n"
        "print(code, 'numpy' in sys.modules)\n"
        "print(out.getvalue(), end='')\n"
    )
    assert hit == "0 False\n" + cold
    if cold_file is not None:
        assert out_file.read_bytes() == cold_file
