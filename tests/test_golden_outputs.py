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
        "stdout": "ba60a3ef9f43f22c404bc3fc1c9b3aaaeec1d77abcacc57b8a121c18cd2cae89",
        "csv": "d0753089dfdd15c921e0d35c4eb17890b8e285296aaa1f06c7de05d5746929c9",
    },
    "c1-energy": {
        "stdout": "a9f0b2085c91fb320aad79eb099ab182b98e6c3f33810940a5b1e6c8469d1a60",
        "csv": "edd9e4597784a1bb089fb342167eab14d346f13eb7f9a12a638ec9a12357a5d3",
    },
    "c2-smoothing": {
        "stdout": "60172ddef4d71a140e26247e01d2400a91d4dbe196d21dfdd3018d2b1dc7d1c4",
        "csv": "239750111c47db6f2eb22376fb6df06c1df0c9a4ca8b3879970e95ccafab7f18",
        "json": "9b784c05a99c0f82079ed90ab00c15310cd851da9af22a6ac9d8552229737ad7",
    },
    "c3-planar": {
        "stdout": "1b3403640864add7bfef14f604e740cf170eb7f007ddd2cbaedfa63e72ded071",
        "csv": "68439f353c0aa3b3ed7096b9917138fa483937675f089ed10f2cf4aa2c4c1c58",
    },
    "c3-dipole": {
        "stdout": "37be324ad7ef9592ffe13158c539da5cdd3ee3ff4806c5c805a3bb82a9101fa9",
        "csv": "a25f11d9645307ee49bb571dc661f52c017b56d8baec8c5dce2b1d39b46f296a",
        "json": "75fc5c281a4076a7da7d1159f362dfdd82708a9a3fd30f01c95d6cbd88eb888c",
    },
    "c3-scan": {
        "stdout": "96d2d4369a6639b8c147d38b6a41161466cbb9b4f3fe1ad4174004cebc4acb14",
        "csv": "8107dcafc2bde7ce1517752db472f2cb9d9a47a5da566670f3b156051c13e942",
        "json": "b85f0e311ff386fc3af5a9bed4271a6b9200fd51492f16f8b75096bdc28bbdbc",
    },
    "c6-disk1": {
        "stdout": "d3f6cdfd16566c6741ae1102424b85edc993bceef54b7ab83f4d9acb501906fc",
        "csv": "31051abeb769f8cf7ddc7347e8acb82168f687672c7728e0b5435b8b6c58868e",
        "json": "77dac0c1b2e7dc6cfead8eff95fa66fdd27ce7cbeff539c78d33a7ad25fc7218",
    },
    "c6-disk2": {
        "stdout": "9030b965cceed4e742772551cfdcf5bff0133f0024122bb23756c1cfeec3844b",
        "csv": "ecb293eb825ab98e801c90dfce15cecaadab53d1ed42fa1d9862dcd5f7427034",
        "json": "9d1df2b291b6b3f381178d9b6cb5a4fa49672757b14b9f92d7024a2796fca1b7",
    },
    "c6-disk3": {
        "stdout": "4b8dddb6adb33635129abcadfd1acb2edf292d3aa22a94551ba172abe6a9928b",
        "csv": "a96bc643b1693e51378cdd971c984314b55730f3889a0364043301f3c6ec4b36",
        "json": "7a82ac2bf9f051185165716f5680cfb581da2190e82a3558c7cb86866c943590",
    },
    "c6-disk4": {
        "stdout": "b988bc45c87c8441adff159db2e2eeab953a046abb12350957eea69d9f695eec",
        "csv": "c1025f1056c33ec66e4a8c01b4c04742a7ff908df0a9a7ed51a0123d79586fe5",
        "json": "c8749522c2fd92f6826ff62659daeee16416645fffc32df62be4ed11cf4825d2",
    },
    "c6-disk5": {
        "stdout": "889f871466a13ce595c1352bf63b0b1f763a606e832b00f844aab8e3cbf12866",
        "csv": "00b27c2501bfff76bbbecdbf132d1759a6f2419442a9c290488a00beb40555de",
        "json": "5410ee9b5a7d312b0748d03aa8fbcb15553936b1664e098e65ec9804e414ee06",
    },
    "c6-disk6": {
        "stdout": "0f248ce4fbaf76300a0bacdf1ad0ce270601de6afae0cc7daacdd1e8a9b26d96",
        "csv": "78c8509752a919d0bffd81b9a38649e4478005e8bdbf14fad3aef8ab7a6e9b3c",
        "json": "61bdfaec532e724dcb7bd4861619b0f81e4d271c4abdee6412b5b131d2c75049",
    },
    "c7-ball": {
        "stdout": "777a23dcb8af71da47546b9993e9fee3b309ebcbee266bd47831eba65ba06e2c",
        "csv": "32d590219822bd17bb1a2b8291de7e35af66fc881f3b68e1f53cfb05a4672c1e",
        "json": "99c9d76d58d89e469e592319a7798cf1060e3f2bdfe52a0bdb31c4b278f37ae1",
    },
    "c7-cylinder": {
        "stdout": "158842dd5b5baaafc6ad79864a7cf436c6400c734df0d0b5e26a7377a1867200",
        "csv": "eff522a11c8616ea6c050319550f1f94b019df5ee3efba7d85d94e84d1175be0",
        "json": "4aa0cc6813eb9f45919f8646bf729e1768def6422cd381e70a071d6d518ddc48",
    },
    "c7-subadd": {
        "stdout": "8b125c4bb0c884ffe60f6781b993882a446e12f536ad0841cb120c62ae97360c",
        "csv": "2b83841a39b984173f827bc567c2f4483006ecd45ade7ba0042c8f058acdef7a",
        "json": "e5d3172760b96b83690a5fe1dc1724299b68ef474150e85379091a8be00372a6",
    },
    "c8-cyl2d": {
        "stdout": "1a1cacce41d9ff21e1b56139c3eb4564a2363898a9b17a3c92256db1f9ddfd2d",
        "csv": "97d24d6ba6e90db468af1c7a261f2c9c48bb88e8fccf6198d68758469b486724",
        "json": "0dd2fa88495dae13929016a9e9a2d2dc08d11914438c35b0dc8e207f5ff87390",
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
