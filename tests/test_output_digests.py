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
    # SL(2,3) on the 8 non-zero vectors of GF(3)^2, generated by
    # [[1,1],[0,1]] and [[0,-1],[1,0]]
    "SL23": (8, [[4, 8, 3, 7, 2, 6, 1, 5], [6, 3, 1, 7, 4, 2, 8, 5]]),
    "S3xC3": (6, [[2, 3, 1, 4, 5, 6], [2, 1, 3, 4, 5, 6], [1, 2, 3, 5, 6, 4]]),
    # the Klein four-group <(12)(34), (13)(24)>, normal in A4 and S4
    "V4": (4, [[2, 1, 4, 3], [3, 4, 1, 2]]),
    # Q8 on the vectors of SL23 above, generated by [[0,-1],[1,0]] and
    # [[1,1],[1,-1]]; normal in SL23
    "Q8": (8, [[6, 3, 1, 7, 4, 2, 8, 5], [5, 7, 4, 6, 2, 8, 1, 3]]),
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
    # The rest of the benchmark's structure and poset operations, pinned
    # before the decomposition of a piece inherited its endomorphism ring.
    "stt S3xC3 --p 2": {
        "stdout": "1ca120a46f3c80af7bc2a2e726505c8e22378813e08d1c61113a1e3c9b0875ae",
        "json": "0e7e6bcb63a1cd28e8ca27f9e197bfdcb2d1cde7a061871dc85ee2c71b3665ee",
        "dot": "074f7427a9cb6e6e43d68dd42362df03bab254f31a8e6b171181de250e6921a7",
    },
    "stt SL23 --p 3 --m 1": {
        "stdout": "8e3428ad04054650efb5f828f0bf5765241776c8d964f2712a691574f460ece7",
        "json": "cf6018d15b5ce4bbf9aa131622d38c8d65e298f8482d3773ee8a8989eeae30ea",
        "dot": "36534d0f1be2a2fbb87af63b39f65ca5be34b0f4f86bf81370496e6ba748a704",
    },
    "blocks S5 --p 2 --m 1": {
        "stdout": "c5ac86a1939483e3b19fc649d44cc06a4ced77a66466d6c5dfb08cf860edf527",
    },
    "blocks S5 --p 3 --m 1": {
        "stdout": "5d894d9e469b3c99cdc19e58bf0b54ab9c5c0bc133f6f0d460689989042b9fd4",
    },
    # L3.1 alone, and a subgroup algebra that is local, pinned before the
    # sides of L3.1 were built from per-class facts of the registries.
    "verify C3 S3 --p 3": {
        "stdout": "99e00d44f6cae10df410434630e7cd3667f3ee23fc2096d038713f817aaf3393",
    },
    "verify A4 S4 --p 2 --theorems L3.1": {
        "stdout": "ab3cfd8853608ccaca6dd47ca30149c147e160e56a9ffebf598c48032babecfa",
    },
    # T3.3 alone, and embeddings whose subgroup algebra has four and five
    # blocks over GF(3), pinned before T3.3 read the block components of
    # the induced pair.
    "verify A4 S4 --p 2 --theorems T3.3": {
        "stdout": "f1c02a48d40019f646ca138a3e177bc0d6184494d6744b4c1dbb829f4085dd3d",
    },
    "verify V4 A4 --p 3": {
        "stdout": "6db1e3ad6979714533331c6da0598c66f1ac2c9711b65d54bca806c2101ff31a",
    },
    "verify Q8 SL23 --p 3": {
        "stdout": "105264cce7aef9affc1a5d7398cec07460fcb8c1c050daf11e077f075f0e08b2",
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
