"""Golden output: every README ``kschur`` command prints the same bytes.

Each command of the README's CLI block runs through ``cli.main`` in order
(``pair --check cert.json`` reads the file the ``--out`` line wrote).  The
stdout digest, the exit code and the written certificate's digest are
pinned; the values were recorded before the certify path was reworked, so
a change that moves any byte of output fails here.  Two larger
certificates ride along, since the README's own is six pairs, a larger
involution sweep, since the README's covers only |lambda| <= 4 and n <= 2,
three polynomials in 5 to 10 letters, and every request of the benchmark's
big-poly pool against the digests the pool froze.
"""

import contextlib
import hashlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from shifted_kschur.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
POOL = README.parent / "perfbench" / "pools" / "big-poly.json"

# command -> (exit code, sha256 of stdout, sha256 of the --out file or None)
GOLDEN = {
    "kschur special-value --shape 4,2,1 --family GP -n 3": (
        0, "32e2bc1b562072f240843d53a42b3feeaa59db3dea962efc5a03daee78efd9e7",
        None),
    "kschur parity --shape 1 --family GQ -n 1": (
        0, "9f8ba67ef24f995313e082b0151df65ecd9d176e8d21d2797678fe499cb9ab0b",
        None),
    "kschur double-skew --lambda 9,8,6,4 --mu 7,5,4,2": (
        0, "a9befe0025e7d1a1bd69533e20a95757e5884e05732d628a987fc71b30d9b362",
        None),
    "kschur special-value --shape 2,1/1 --family GQdouble -n 2": (
        0, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
        None),
    "kschur enumerate --shape 2,1 --family P -n 2": (
        0, "a9b1859760773347164af5f0fd49600764b65c4bddb1c42d34cab913d1921fc9",
        None),
    "kschur enumerate --shape 1 --family Q -n 1 --count-only": (
        0, "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
        None),
    "kschur poly --shape 6,4,1/4,2 --family GP -n 2 --format jsonl": (
        0, "9af9e25dfbdec5ee42c7bd2a8c6024455397b91daa2d7434a42a28b8f5dcda97",
        None),
    "kschur identity --check beta-zero --max-weight 4 --max-n 2": (
        0, "ca8c52a92d62c96bde4226b58950ec1b3dcb4dbbefb6d8967a2a609bc96e68b9",
        None),
    "kschur identity --check coproduct --max-weight 3 --nx 2 --ny 2": (
        0, "5477e4d353091332cd0883ec10f138d48493b2de4e4112df0de45b4942f404c3",
        None),
    "kschur verify-involution --max-weight 4 --max-n 2": (
        0, "cbb64cd18c6e2f2bdf084cb273e08f731ffe30561fc937657d4ac8626d04b1d0",
        None),
    "kschur oracle-check --max-weight 4 --max-n 2": (
        0, "d2e964bbdc7f2d426afb71142360dfc1effc5017c912af5c3a5c3b174c01403e",
        None),
    "kschur pair --lambda 2,1 --mu 1 --family P -n 2 --out cert.json": (
        0, "283c22e4222ad8baba930ebdc00ccee5b07498b91db2d41036bf34bd9393cfd0",
        "ea8936e5a57f4abe59d726d8da3a2b3cf892c13a7cab77625f290b2561d163be"),
    "kschur pair --lambda 2,1 --mu 1 --family P -n 2 --check cert.json": (
        0, "301d64a7a4a16c8f53e35358f2d45ec2ade216c0c926f4f6a7188a61b45681b4",
        None),
    "kschur pair --lambda 9,8,6,4 --mu 7,5,4,2 --family P -n 2 "
    "--minimal-only": (
        0, "632f5cef4ea0696c04a0aeaf8dfe5712e1584a815fa8232be473ee960cbfc4be",
        None),
}

OK, CERT_OK = "pairs={} leftover=0 ok\n", "certificate ok\n"

# larger certificates: command -> (exit code, stdout, sha256 of the file)
EXTRA = {
    "kschur pair --lambda 4,2,1 --mu 2,1 --family P -n 3 --out big.json": (
        0, OK.format(2402),
        "c19e8f7d1efb365d7791d915b4e82aef5ab76abb349cf49f593bf9e1fe8d3747"),
    "kschur pair --lambda 4,2,1 --mu 2,1 --family P -n 3 --check big.json": (
        0, CERT_OK, None),
    "kschur pair --lambda 4,3,1 --mu 3,1 --family Q -n 2 --out q.json": (
        0, OK.format(696),
        "821117b87a643a1813781e68aae350b90704c09fae1c0729119ed28536c56bce"),
    "kschur pair --lambda 4,3,1 --mu 3,1 --family Q -n 2 --check q.json": (
        0, CERT_OK, None),
    # mu = 7,5,4,2 has three removable boxes: eight inner shapes, four pairs
    "kschur pair --lambda 9,8,6,4 --mu 7,5,4,2 --family P -n 2 --minimal-only "
    "--out three.json": (
        0, OK.format(4),
        "4eca8b482cac8acaf9fd7bfa639b0be67a6300d33f973211ad2fea4a83b70514"),
    "kschur pair --lambda 9,8,6,4 --mu 7,5,4,2 --family P -n 2 --minimal-only "
    "--check three.json": (
        0, CERT_OK, None),
}

# a larger sweep: command -> (exit code, stdout lines, sha256 of stdout)
SWEEPS = {
    "kschur verify-involution --max-weight 5 --max-n 3": (
        0, 270,
        "73e0c9caf328fdec614ccaca3aed1aa6b96c34e5eddfaceb5663afd5334b934c"),
}

# larger polynomials, with n from 5 to 10, as the branching engine printed
# them before it kept one term per x-orbit: command -> (exit code, sha256)
POLYS = {
    "kschur poly --shape 2 --family GP -n 10": (
        0, "fffa8cb337e4fa76c012c5326fec96d2650e9a751ead5e411cd911d945cee00a"),
    "kschur poly --shape 6,4,1 --family GQ -n 5 --format jsonl": (
        0, "602ef55e54e1c1a0980ad714f73c08256cd53a257182ee07ba1fc12171cf50a7"),
    "kschur poly --shape 4,2,1 --family GP -n 6": (
        0, "ef2d986783485e87bf83538a091f18d1c735c2afaae54e47ba590dee32490a8b"),
}


def readme_commands() -> list[str]:
    """The ``kschur`` lines of the README's CLI block, comments stripped."""
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", README.read_text(),
                      re.S).group(1)
    return [line.split("#")[0].strip() for line in block.splitlines()
            if line.startswith("kschur ")]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_all(commands, workdir: Path) -> dict:
    """Run the commands in order in workdir; file arguments live there."""
    results = {}
    for cmd in commands:
        argv = shlex.split(cmd)[1:]
        out_file = None
        for k, arg in enumerate(argv):
            if arg.endswith(".json"):
                argv[k] = str(workdir / arg)
                if argv[k - 1] == "--out":
                    out_file = Path(argv[k])
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        written = sha256(out_file.read_bytes()) if out_file else None
        results[cmd] = (code, out.getvalue(), written)
    return results


@pytest.fixture(scope="module")
def readme_results(tmp_path_factory):
    return run_all(readme_commands(),
                   tmp_path_factory.mktemp("readme"))


def test_every_readme_command_is_pinned():
    assert readme_commands() == list(GOLDEN)


@pytest.mark.parametrize("cmd", list(GOLDEN))
def test_readme_command_output(readme_results, cmd):
    code, stdout, written = readme_results[cmd]
    assert (code, sha256(stdout.encode()), written) == GOLDEN[cmd]


def test_larger_certificates(tmp_path):
    results = run_all(list(EXTRA), tmp_path)
    assert results == EXTRA


@pytest.mark.parametrize("cmd", list(SWEEPS))
def test_larger_sweep(tmp_path, cmd):
    code, stdout, _ = run_all([cmd], tmp_path)[cmd]
    assert (code, stdout.count("\n"), sha256(stdout.encode())) == SWEEPS[cmd]


@pytest.mark.parametrize("cmd", list(POLYS))
def test_larger_polynomials(tmp_path, cmd):
    code, stdout, _ = run_all([cmd], tmp_path)[cmd]
    assert (code, sha256(stdout.encode())) == POLYS[cmd]


def test_big_poly_pool_bytes():
    # every request of the benchmark's big-poly pool, read-only: its exit
    # code 0 and the stdout digest the pool froze
    pool = json.loads(POOL.read_text())["requests"]
    assert len(pool) == 108
    for req in pool:
        a = req["args"]
        argv = ["poly", "--shape", a["shape"], "--family", a["family"],
                "-n", str(a["n"]), "--format", a["format"]]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        data = out.getvalue().encode()
        assert (code, len(data), sha256(data)) == \
            (0, req["expect"]["bytes"], req["expect"]["sha256"]), req["id"]
