"""Byte identity of the CLI outputs: SHA-256 digests of stdout, ``--json``
and ``--dot`` for a fixed set of operations, pinned from a run of the
program.  A change that alters any output byte of these operations fails
here; one that alters them on purpose pins the new digests and says why."""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from tautilt.cli import main

# Generators as image lists on 1-based points.
GROUPS = {
    "A4": (4, [[2, 3, 1, 4], [2, 1, 4, 3]]),
    "S4": (4, [[2, 3, 4, 1], [2, 1, 3, 4]]),
    "C3": (3, [[2, 3, 1]]),
    "S3": (3, [[2, 3, 1], [2, 1, 3]]),
    "S5": (5, [[2, 3, 4, 5, 1], [2, 1, 3, 4, 5]]),
}

EXPECTED = {
    "stt A4 --p 2": {
        "stdout": "49d7c31571d26b1105db82b42c1748a8bd622090d1e977e4c4808dc21ea338fa",
        "json": "39ebdaf0a889fa9efa1c502d24c896b42806022cb7efc8ce29ef296765e31288",
        "dot": "54eb8ed03d20888e358d1494cbde92ec27abb5cdfd330b99a51cdca98bde4bdf",
    },
    "stt S4 --p 3 --m 1": {
        "stdout": "d22ac36b438cd2bbfe4f8686d7591dd4d645d40177029b7b12733d93d4239e06",
        "json": "13a32c61949ac392f380fd83ff17a340f1089ab6b6d585b88cfee495a0807ac6",
        "dot": "dd25e4b3ea0de2968fcbfc8bbf700cecde2136d38918942c107e913b4109056d",
    },
    "verify C3 S3 --p 2": {
        "stdout": "0cc1bc84e5ea6e0a13106aedfeeb5f8bb46b7b2fa7821ab6e2dcf496fcfc6c7b",
    },
    "mackey A4 S4 --p 2": {
        "stdout": "ad21a738a38c40f7f2e65004a078ffc035008b567e8cbfa3e2066d39c7519889",
    },
    # The radical of kS4 over GF(2) and the blocks of kS5 over GF(5),
    # pinned before their stage matrices and group products were batched.
    "stt S4 --p 2 --m 1": {
        "stdout": "dfba41bba1ff1600e6150df420baaf0d3be51a5e2bd38ebf351864506db127be",
        "json": "6ccf181ee6f530c9175360f5b0d9edd5a394c9077f4b6ffa9321096332a1d7ac",
        "dot": "a39b788437f93173f19b44ac6e7f2f47348f836862b524173d9c645c49c9c974",
    },
    "blocks S5 --p 5 --m 1": {
        "stdout": "2743ee329513198f867a89e590ddc69e29f32b0f2b377c479eac2d849d239165",
    },
    # The benchmark's induction operations on A4 < S4 over GF(4).
    "verify A4 S4 --p 2": {
        "stdout": "8ce0728401c670757071039629e0df0df15494655e7a46d4705d24d171c09ac3",
    },
    "induce A4 S4 --p 2": {
        "stdout": "011b4cb7537d092b45bfd1ce6e358c5822dc2709a96be09fb288211b0ee21926",
    },
    # An odd-characteristic extension field, GF(9): its products reduce by
    # digit sums, not by XOR as over GF(2^m).
    "verify A4 S4 --p 3": {
        "stdout": "5b8b89c63376bd1f4b02ee21d65e3c3b926aa627d37a6401018d3aa0bbc2af4b",
    },
}


def pair_module(tmp_path):
    """A4 acting on the 16 ordered pairs of its points, over GF(4), in the
    basis T e_1, ..., T e_16 for a fixed unitriangular T with entries in
    GF(2), so that the module is not a permutation module on its basis."""
    degree, gens = GROUPS["A4"]
    pairs = [(i, j) for i in range(degree) for j in range(degree)]
    n = len(pairs)
    N = np.array([[int(i < j and (3 * i + 5 * j) % 4 == 0) for j in range(n)] for i in range(n)])
    T = np.eye(n, dtype=int) + N
    T_inv = np.eye(n, dtype=int)  # (1 + N)^-1 = sum of N^k over GF(2)
    power = np.eye(n, dtype=int)
    for _ in range(n):
        power = power @ N % 2
        T_inv = (T_inv + power) % 2
    mats = []
    for g in gens:
        P = np.zeros((n, n), dtype=int)
        for k, (i, j) in enumerate(pairs):
            P[pairs.index((g[i] - 1, g[j] - 1)), k] = 1
        mats.append(T_inv @ P @ T % 2)
    module = {
        "field": {"p": 2, "m": 2, "modulus": [1, 1, 1]},
        "group": {"degree": degree, "generators": gens},
        "dim": n,
        "generator_matrices": [[int(x) for x in M.ravel()] for M in mats],
        "label": "A4 on ordered pairs",
    }
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module))
    return path


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Operation -> exit code and the SHA-256 of each output it writes."""
    tmp = tmp_path_factory.mktemp("digests")
    files = {}
    for name, (degree, gens) in GROUPS.items():
        files[name] = tmp / f"{name}.json"
        files[name].write_text(json.dumps({"degree": degree, "generators": gens}))
    module = pair_module(tmp)
    out = {}
    for op in EXPECTED:
        argv = [str(files.get(a, a)) for a in op.split()] + ["--no-cache"]
        if argv[0] == "stt":
            argv += ["--json", str(tmp / f"{op}.json"), "--dot", str(tmp / f"{op}.dot")]
        if argv[0] in ("mackey", "induce"):
            argv += ["--module", str(module)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        digests = {"stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}
        if argv[0] == "stt":
            for kind in ("json", "dot"):
                digests[kind] = hashlib.sha256((tmp / f"{op}.{kind}").read_bytes()).hexdigest()
        out[op] = code, digests
    return out


@pytest.mark.parametrize("op", list(EXPECTED))
def test_output_bytes_unchanged(outputs, op):
    code, digests = outputs[op]
    assert code == 0
    assert digests == EXPECTED[op]
