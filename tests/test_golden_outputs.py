"""Byte identity of the acceptance experiments' outputs.

Runs the 16 CLI commands of README "Experiments" (acceptance criteria 1-3
and 6-8) into ``tmp_path`` and compares the SHA-256 of each command's
stdout, CSV and (for studies) JSON with recorded digests.  A change that is
meant to keep every output bit for bit, such as a faster way to build the
same arrays, must keep this test passing; a change that moves the numbers
on purpose re-records the digests with :func:`digests` and says so.

Floating-point results can differ in the last bit between numpy releases
(their SIMD kernels change), so the digests hold for the numpy version
recorded with them, and the test skips under any other.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import numpy as np
import pytest

from relaxarea import cli

#: the numpy version the digests were taken with
NUMPY_VERSION = "2.4.6"

_EPS4 = "0.2,0.1,0.05,0.025"
_SCAN = ",".join(repr(0.2 * 2.0**-j) for j in range(7))

#: README "Experiments", one name per command
COMMANDS = {
    "c1-area": ["area", "--field", "vortex", "--d", "1", "--domain", "ball2",
                "--tol", "1e-6"],
    "c1-energy": ["energy", "--field", "vortex", "--d", "1", "--domain", "ball2",
                  "--tol", "1e-6"],
    "c2-smoothing": ["relax", "--study", "smoothing", "--eps", _EPS4],
    "c3-planar": ["energy", "--field", "planar_vortex", "--domain", "ball3",
                  "--tol", "1e-6"],
    "c3-dipole": ["relax", "--study", "dipole", "--eps", _EPS4],
    "c3-scan": ["relax", "--study", "dipole-grad", "--eps", _SCAN],
    **{f"c6-disk{j}": ["relax", "--study", "chain", "--m", "6", "--disk", str(j)]
       for j in range(1, 7)},
    "c7-ball": ["counterexample", "--variant", "ball", "--k", "2,4,8,16"],
    "c7-cylinder": ["counterexample", "--variant", "cylinder", "--k", "4,8,16,32"],
    "c7-subadd": ["subadd", "--radii", "0.2,0.9", "--k", "8,16,32"],
    "c8-cyl2d": ["relax", "--study", "cyl2d", "--k", "4,8,16,32"],
}

#: SHA-256 of each output, per command (numpy ``NUMPY_VERSION``)
DIGESTS = {
    "c1-area": {
        "stdout": "cfab20640988ae9e434bd74f02b65505ab62d8ee48b3ef55719e4d76867ff9bb",
        "csv": "1bf5da0614cd51bba82ba5875e81555660adb923bda6e676b74e0331806dda40",
    },
    "c1-energy": {
        "stdout": "a9f0b2085c91fb320aad79eb099ab182b98e6c3f33810940a5b1e6c8469d1a60",
        "csv": "faa28d9c6a2f8c19bf58035d3706492910bf44e34ba55a5e1582462309dc06d6",
    },
    "c2-smoothing": {
        "stdout": "60172ddef4d71a140e26247e01d2400a91d4dbe196d21dfdd3018d2b1dc7d1c4",
        "csv": "adb6006bf706f3292ed68fceafc9df8d10bad16b9a390c18db81ae1d69b2460c",
        "json": "dee48ee59f81f7ef4a43c840fa4b46708e3fcaf9c0ca6d00bba9286fad33b805",
    },
    "c3-planar": {
        "stdout": "20c50cbcf6b9d00952e575c81709106f96ab4ad18499478113e4b12680c399d8",
        "csv": "f6f71864b5c5b50ad0401ddc723a2a6f52fde3debfe0065d681be7976a313c17",
    },
    "c3-dipole": {
        "stdout": "d6a5a5110d343606f7321a8a752f6dd95de127f0624134b838372c843b6ad126",
        "csv": "ba0bfcbdfd556c33ada412fd4ef7b91aee9af67ef39b7fe5625a0c8b04e48ee3",
        "json": "20eea3e96086fe9f19a531d4c25d253c907784937a2be30d4f6a83bbee3799bb",
    },
    "c3-scan": {
        "stdout": "96d2d4369a6639b8c147d38b6a41161466cbb9b4f3fe1ad4174004cebc4acb14",
        "csv": "2a22c7a913665383d5958f82fe2876e853d4cfa80a606251635d043c1efd0e1f",
        "json": "1719f823b7211225b008830bf3ae58fd8f58a3c8347c35a13c664aac83b7c68e",
    },
    "c6-disk1": {
        "stdout": "d3f6cdfd16566c6741ae1102424b85edc993bceef54b7ab83f4d9acb501906fc",
        "csv": "17c782784e69722787142377404ccd26ef45cb6da787cdeedbbfd3d5dfdd11c1",
        "json": "1f502ab83edc3290b0e554497542843901cca83c41c8d241458627f70166ebd2",
    },
    "c6-disk2": {
        "stdout": "9030b965cceed4e742772551cfdcf5bff0133f0024122bb23756c1cfeec3844b",
        "csv": "7e22b54a98d0b370d378ebde2f5d95b9efc18d6bceaa3a19acb12042a2bcb7dc",
        "json": "976b1cf26130f0489295352ce56a00322753b25bdc31a2eec5b2e578e6c8a42c",
    },
    "c6-disk3": {
        "stdout": "4b8dddb6adb33635129abcadfd1acb2edf292d3aa22a94551ba172abe6a9928b",
        "csv": "3b071e58b397570891a8ee3378c72d7290182e351e167754c2a232a54efbda5a",
        "json": "552c6082ae62fb4727c24cb31ea211297fea161560c4db5d77411cfa12860fdd",
    },
    "c6-disk4": {
        "stdout": "b988bc45c87c8441adff159db2e2eeab953a046abb12350957eea69d9f695eec",
        "csv": "27c81a44702a04ab6664ade3f2ee314dfd1977e3736248029ffbfe40604c2b89",
        "json": "f0b7e9d23e2bed3de2053228e129157372b672af34b3d1b15a784d77dc32116f",
    },
    "c6-disk5": {
        "stdout": "889f871466a13ce595c1352bf63b0b1f763a606e832b00f844aab8e3cbf12866",
        "csv": "ac696e1adfe853d4c88e2498cef918f7a129395a439973e420929230d8ac0202",
        "json": "2a79dc309f7dc95c4649c4a891f1c20be508c8566ae813584f513fa7ebbf8894",
    },
    "c6-disk6": {
        "stdout": "0f248ce4fbaf76300a0bacdf1ad0ce270601de6afae0cc7daacdd1e8a9b26d96",
        "csv": "29be27526f13fa1355803154561f4e30a34facc85309ba00816d7de7dd1a639d",
        "json": "20781c0f8ac2de58e9c7b0bcbfa50413a8b6cd353aec2294410d35b23e803026",
    },
    "c7-ball": {
        "stdout": "5c94872b53359609db74321b18b0be35dbb463186a6d4492efdb1805d10f75e8",
        "csv": "a144b56c400268d2224402b307ba2603764c95af335e41d9b18bc39fc907ac39",
        "json": "b7237f7636588a4e7e000ea8e2e285b80e0391e57a57a2925b5d7e51e67ee54f",
    },
    "c7-cylinder": {
        "stdout": "c56dbd6e8ee22b94409c9f5132d5692865b8754d3e34bb7bcc41ea941b62eecb",
        "csv": "643941565f02304668577af11878d2c56f12f980c5fa8541c18969a6a4d8ac31",
        "json": "bf7af7ae20fbe44323b2b5057811b1c23fb6f2ccaee7b93ddab833dfb8b7660e",
    },
    "c7-subadd": {
        "stdout": "8b125c4bb0c884ffe60f6781b993882a446e12f536ad0841cb120c62ae97360c",
        "csv": "8e19f1756d41255daa8d415158e13f8d45eca22c6d5d5d9f51d365470ccb006a",
        "json": "880b8153de7c969e38d9770da39c7d0e7d4e98e5ec29f72fce7d6c6638e8d27a",
    },
    "c8-cyl2d": {
        "stdout": "98f68b62a30563bb6aefa29ae74193d05eb948968b7760e8a7ca53263f43b356",
        "csv": "723d059c9534e511d13fc6b1b4e6a858f75da294de6514f2dfb3298ed698991d",
        "json": "7706d7264a962cf1955cb6bcb7b65438c752a558ee6e1f62af6a860b5fd8502d",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(name, out_dir):
    """Run one command with ``--out out_dir/name.csv``; the SHA-256 of its
    stdout and of each file it wrote, by kind (``stdout``, ``csv``,
    ``json``), and its exit code and stderr."""
    out = out_dir / f"{name}.csv"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(COMMANDS[name] + ["--out", str(out)])
    found = {"stdout": _sha(stdout.getvalue().encode())}
    for kind in ("csv", "json"):
        path = out.with_suffix(f".{kind}")
        if path.exists():
            found[kind] = _sha(path.read_bytes())
    return code, stderr.getvalue(), found


def test_every_readme_experiment_has_digests():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("## Experiments", 1)[1].split("```")[1]
    listed = []
    for line in block.splitlines():
        if line.startswith("relaxarea "):
            argv = line.split()[1:]
            # "--disk J" stands for the disks J = 1..6
            listed += ([argv[:-1] + [str(j)] for j in range(1, 7)]
                       if argv[-1] == "J" else [argv])
    assert listed == list(COMMANDS.values())
    assert len(COMMANDS) == 16
    assert set(DIGESTS) == set(COMMANDS)


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION,
                    reason=f"digests taken under numpy {NUMPY_VERSION}, "
                           f"running {np.__version__}, whose kernels may round "
                           f"otherwise")
@pytest.mark.parametrize("name", list(COMMANDS))
def test_outputs_are_byte_identical(name, tmp_path):
    code, err, found = digests(name, tmp_path)
    assert (code, err) == (0, "")
    assert found == DIGESTS[name]
