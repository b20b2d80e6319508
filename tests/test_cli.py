"""Command-line surface: flags, exit codes, formats, determinism."""

import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import pelab
from pelab.cli import main
from pelab.laurent import LaurentPoly

SRC = Path(pelab.__file__).resolve().parents[1]


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse: --help and malformed flags
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_family_conic_fixture(capsys):
    code, out, _ = run(capsys, "family", "--n", "1", "--lambda", "2", "--c", "1/3", "--Lambda", "-3", "--r1", "1")
    assert code == 0
    assert 'P = "r^4 - 4*r + 3"' in out
    assert "conic case" in out
    assert "base coefficient derived = 1/2" in out
    assert "base coefficient printed = 1/6" in out


def test_family_edge_json(capsys):
    code, out, _ = run(capsys, "family", "--n", "1", "--lambda", "2", "--c", "1/3", "--Lambda", "-3", "--r1", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == "5/4"
    assert payload["beta_sq_derived"] == "15/8"
    assert payload["beta_sq_paper"] == "75/32"
    assert payload["berger_coeff"] == "1/3"
    assert payload["z_scale"] == "1"
    assert payload["P_text"] == "r^4 - 19/2*r + 3"


def test_family_catalogue_shortcut(capsys):
    code, out, _ = run(capsys, "family", "--n", "1", "--k", "1", "--r1", "1")
    assert code == 0
    assert "berger_coeff = 1" in out


def test_family_missing_flags_exits_2(capsys):
    code, _, err = run(capsys, "family", "--n", "1", "--lambda", "2")
    assert code == 2
    assert "missing required flags" in err


def test_family_k_conflicts_exit_2(capsys):
    code, _, _ = run(capsys, "family", "--n", "1", "--k", "1", "--c", "2", "--r1", "1")
    assert code == 2


def test_family_invalid_params_exit_2(capsys):
    code, _, _ = run(capsys, "family", "--n", "1", "--lambda", "2", "--c", "1", "--Lambda", "3", "--r1", "1")
    assert code == 2
    code, _, _ = run(capsys, "family", "--n", "1", "--lambda", "2", "--c", "1", "--Lambda", "-3", "--r1", "1/2")
    assert code == 2


# sha256 of the full stdout of the exact-only commands, of verify on both
# charts and sweep --verify, and of every --help page: the edge and conic
# arbiters, the audit table, the float verdicts, the CSV and JSON writers and
# the option surface must stay byte-identical.  A command with {summary}
# hashes its stdout followed by the --summary-output file.
EXACT_GOLDENS = [
    ("audit", "c2bc06070a51e07bb47a8abbf3a995a88e94c42c42ae4d5e71497b94a8a5945d"),
    ("audit --format json", "44b14f3c8c602897b7913c50da204fa2b6571ce92b9711466192a198e9f5f364"),
    ("family --n 1 --k 3 --r1 1", "82fc9da85ab2a987718237b8787b1dca052829dcadb3679afd0cbb65f4638111"),
    ("family --n 2 --k 3 --r1 1", "6495d85b099916614fb3c0cfe7eb6f0882b0f46a9e04a2f1b9aa42c7cff91774"),
    ("family --n 4 --k 3 --r1 1", "982c027b88b694275f459d57eb16ba9cc8bf55e2c9b82dad8f926e3e25fd5ea9"),
    ("family --n 1 --k 3 --r1 1 --format json", "ebea4ca26cc51227af8a7d5fa920aebfe4edaa71880477ba85179fff15a7ac9d"),
    ("family --n 3 --k 2 --r1 1 --format json", "1f5d81079c17cac23d060c6d7478e569c8c3f0ad35db0dac9587935feb7475bd"),
    ("family --n 1 --k 1 --r1 5/2", "f11b0bcd8a096ed56041183f2c10c26cf7bd66656e4faa3a59c08af720d4149e"),
    ("family --n 10 --k 3 --r1 1", "688b6f4b5bf655cf9c1cc757b18982b80f7b32c7c1c82af39a497238cf7360e1"),
    ("family --n 4 --k 5 --r1 7/3", "fa6cc6cb310f6d6f0d04d528785962a90e22619ae7cd469f4c117e686cebc0a7"),
    ("family --n 4 --k 5 --r1 7/3 --format json", "d15490fa9edd48de67b550e56a085c32b10c324ffc1b30c31d1eaea655a26c6c"),
    ("family --n 2 --lambda 3 --c 1/2 --Lambda -5 --r1 3/2", "f5959651f2e9c12c1b87eeedfbc55571dc03e364f9d3dd9b3afa4728faba835e"),
    # an edge and a conic member at n = 200: the edge and conic arbiters read Taylor coefficients of a degree-402 P
    ("family --n 200 --k 3 --r1 7/3", "6b80891da31128ddf4206de4bf6ac6eaa1793fab4ba0978709c91f5f43394b25"),
    ("family --n 200 --k 3 --r1 1", "0695eb46f35c3cf20029ec39feb37eaa96abfc60c780a2289d3af4c7bc9c07e7"),
    ("limit --n 1", "0c5f0a97cbcf75d30a3a5cc16a65943112a59d57d78d07ba2bc099ee86146ba1"),
    ("limit --n 1 --format json", "abcc4be94fab4deaab1aa70b7d43cf3cf1adb5cde8626bae2639480c0f55fbaf"),
    ("limit --n 2 --format json", "dcc19af7eaa3f3ba6581a2aeb69361c341481d8c2e4dd3b565db0500ccf1d864"),
    ("limit --n 2 --rho-grid 1:3:5", "19257dc4952b658887b85a715e82bd684b468b283b9c2b7f0af80cb22a9fd4e7"),
    ("limit --n 1 --t-list 0.1,0.01 --rho-grid 1:2:5 --summary-output {summary}", "dc671137905a5a50489275c83d3dfd7857f548695c9913880791fef2d692893d"),
    ("sweep --param r1 --start 1.01 --stop 10 --count 7 --n 1 --k 1", "741e2c2853571ee9480b2ae636b3e59d052443475fdb5bcfa5c49e347e50a33d"),
    ("sweep --param r1 --start 2 --stop 3 --count 4 --n 1 --k 1 --format json", "1ccf9809d37d0ba0dc74e55a96b7430553c899a55c88c93f66a4f17181b909e3"),
    # the row counts of the benchmark's exact sweeps at n = 3, 6 and 10, where P's coefficients reach ~350 bits
    ("sweep --param r1 --start 1.01 --stop 10 --count 160 --n 3 --k 2", "f513b5d8b47442d6dace985ae614745d170f113c5980e17659d08e2ad2917ddf"),
    ("sweep --param r1 --start 1.5 --stop 9.25 --count 130 --n 6 --k 3", "0ade8420b83aaf8c2975f0f4cae5c8a48cc34db071a6b0f9e30d4c8d6cde6964"),
    ("sweep --param r1 --start 1.01 --stop 7.5 --count 100 --n 10 --k 4", "29df3e40472897190a58aa01b9275faad3bf5dfb4be2c0bf3c125a25d45cf2fe"),
    ("sweep --param r1 --start 2.5 --stop 10 --count 100 --n 10 --k 5 --format json", "561f0b3d10780833fa3d0c53aa6dddff59eb4e8c316e9c9a44f14c70aef2e9e5"),
    ("sweep --param t --start 1/10 --stop 2 --count 6 --n 1 --k 1", "1406c584ed3fedc32468a3775a87eafa3d799d64b32a21e51c435bcd3c351661"),
    ("sweep --param t --start 1/1000 --stop 1 --count 4 --spacing log --n 1 --k 1", "c5e6615f3d61df094294cbfe8319bbb290a75b2a7463d30f5d14c7bd3c4b246d"),
    ("sweep --param c --start 1/4 --stop 2 --count 4 --n 2 --lambda 3 --Lambda -5 --r1 3/2", "e7541c0327d1bf8c3115cf84f005cbad0aa1ebb43b06d11508750d0fbf14eb82"),
    ("sweep --param k --start 1 --stop 4 --count 4 --n 2 --r1 1 --format json", "c583ee63a18a4ec36b611c6d1c8e035af50ee2eed93293be3ede16ff0423c51b"),
    ("sweep --param k --start 1 --stop 3 --count 3 --n 1 --r1 5/2 --format json", "9a47ea56ab2e1ac7139a8844bc3fab20fc3c0a0018c87c3105318f66b4beb0f6"),
    ("sweep --param r1 --start 2 --stop 3 --count 3 --n 1 --k 1 --verify --seed 5", "323886e3304c2eb6fab27032375b39b9f20a5676e628707241a027ee7459dc53"),
    # sweep --verify with lambda and c varying per row, a conic first row, a c sweep, a 30-row
    # sweep that takes two blocks, 7 points per row, JSON, two rows to a block (64 points),
    # one row to a block (65) and rows longer than a block (130)
    ("sweep --param k --start 1 --stop 5 --count 5 --n 1 --r1 5/2 --verify --seed 3", "59d140279f738a421f42a8218be4196d51c977b44e990eb1df1d8c44473a5b21"),
    ("sweep --param t --start 0 --stop 1 --count 6 --n 1 --k 2 --verify --seed 1", "eb23aac189b3b063dc4d1d5d4b3da183228d1109f6f9a0f58b8c8158a14865ba"),
    ("sweep --param c --start 1/4 --stop 2 --count 5 --n 1 --lambda 2 --Lambda -3 --r1 3/2 --verify --seed 2", "62bac437aaaeb329cd1ee0e0bced24a715dfe42c3977ef93ea3fe4ae56e24c10"),
    ("sweep --param r1 --start 1 --stop 9 --count 30 --n 1 --k 1 --verify --seed 4", "aa604133690727e91175a960e3cd4b06c59bacf87c6abaf047460105ee5a0668"),
    ("sweep --param r1 --start 2 --stop 8 --count 25 --n 1 --k 3 --verify --points 7 --seed 6", "30a39b5bca842c3230a92b78afa80373f31c96d10554e0d7babc52a24e748e5b"),
    ("sweep --param r1 --start 3/2 --stop 4 --count 5 --n 1 --k 2 --verify --format json --seed 8", "c9989aa5f51f2af50dca047878195aaf9e3146b05f06bec4e98b651b9c413d36"),
    ("sweep --param r1 --start 2 --stop 4 --count 5 --n 1 --k 1 --verify --points 64 --seed 9", "26f21e02abb9bf6c2f6c1fff029e7db0134b794f7bc3a7fac4a68892fefaef1a"),
    ("sweep --param t --start 0 --stop 1 --count 4 --n 1 --k 2 --verify --points 65 --seed 10", "e153badfae25d0354521f736a9708c8ce0d6757b6284a66ffcdee8a186cfbf87"),
    ("sweep --param r1 --start 1 --stop 3 --count 4 --n 1 --k 1 --verify --points 130 --seed 11", "bc94dda0a4b62d160edb0fc7dba9e8efc66d47750292120cf268546743a5a07d"),
    ("verify --n 1 --k 1 --r1 1 --points 50 --seed 0", "f57948af7210d951f472bd99684db3dc552f5c44a28d1124f97d02fb242ce405"),
    ("verify --n 1 --k 1 --r1 1 --points 50 --seed 0 --format json", "b36129f8e2a5d6b8b8cf366ee004ae0312b0dbc65e2fc74c1a06efccc5fb6e6d"),
    ("verify --n 1 --k 1 --r1 1 --points 50 --seed 0 --format csv", "46ed3d698d1ecf4b25b8d0cdbd8db6b41c57b2e4a2d209f59f776737192188d5"),
    # more points than one block holds
    ("verify --n 1 --k 2 --r1 7/2 --points 300 --seed 5 --format csv", "ca0498ba85759009ffbaf7a07759597a44ebd6a0c2018938f41373c86e4f490f"),
    ("verify --chart rescaled --points 20 --seed 3", "278cc026245ae80972792b65ab20ab0fa59150942908d387475042fbe5d65fe3"),
    ("verify --chart rescaled --points 20 --seed 3 --format json", "25c308266e2701c1b848fc9a8d51381a941203f619b20febd0a9d995b8796448"),
    ("verify --chart rescaled --points 20 --seed 3 --format csv", "3f9f04a4e5a8693870bd5c1e562da669d178b002a3971889773ec23c9eb46992"),
    ("--help", "56e99973dd81066e653ba0bba0026242831cb89e49484ad47dd9d400a0091f05"),
    ("family --help", "3a5eb7d77b2bc99900714ae525307688a75aeabcefa9b70a48cedd4ed554e0ad"),
    ("verify --help", "dcecb636ab74bc1718079d3e27574c88d55a0b8671cfd3a444c533b89d0cbca7"),
    ("audit --help", "31dd1af12b3d6710bf1de60d43d4213c76cf1cbb6dd794fcbbff1791f77f0f61"),
    ("sweep --help", "a961fbb18a4cf0d2359840bc947a76de210e1789f85b7ccfd1200ecff1f6b75c"),
    ("limit --help", "0c09697580aeb423b020d56f48e5da0531da24d24a1787b6ad66cf165df61121"),
]


@pytest.mark.parametrize("command, digest", EXACT_GOLDENS, ids=[command for command, _ in EXACT_GOLDENS])
def test_exact_output_golden(monkeypatch, tmp_path, capsys, command, digest):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal width
    summary = tmp_path / "summary.json"
    code, out, err = run(capsys, *command.format(summary=summary).split())
    assert (code, err) == (0, "")
    if summary.exists():
        out += summary.read_text()
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


@pytest.mark.parametrize(
    "command",
    [
        "family --n 1 --k 1 --r1 5/2",
        "family --n 2 --k 3 --r1 1 --format json",
        "audit",
        "limit --n 1",
        "sweep --param r1 --start 2 --stop 3 --count 3 --n 1 --k 1",
        "sweep --param r1 --start 2 --stop 3 --count 3 --n 1 --k 1 --verify --seed 5",
    ],
)
def test_no_command_builds_a_derivative_polynomial(monkeypatch, capsys, command):
    # P'(r1) is read off P in one integer pass; the derivative polynomial is the tests' reference only
    def refuse(self):
        raise AssertionError("a command built a derivative polynomial")

    monkeypatch.setattr(LaurentPoly, "derivative", refuse)
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "") and out


FLOAT_FAULT = "a float of the curvature engine leaves the float range"

# Every check that an argv can trip raises pelab.UsageError, in the CLI or
# in a layer below it, and reaches the user as "error: <message>" with exit
# code 2 and nothing on stdout.  Each check has a row here: a check that
# raised any other exception would end in a traceback.
USAGE_ERRORS = [
    ("family --n 1 --lambda 2 --c 0 --Lambda -3 --r1 2", "c must be > 0, got 0"),
    ("sweep --param c --start 0 --stop 1 --count 3 --lambda 2 --Lambda -3 --r1 2", "c must be > 0, got 0"),
    ("family --n 1 --lambda 2", "missing required flags: --c, --Lambda, --r1"),
    ("family --n 1 --k 1 --c 2 --r1 1", "--k replaces --lambda/--c/--Lambda; do not combine them"),
    ("sweep --param r1 --start 2 --stop 3 --count 1 --n 1 --k 1", "--count must be >= 2"),
    ("sweep --param r1 --start 3 --stop 2 --count 5 --n 1 --k 1", "--start must be < --stop"),
    ("sweep --param r1 --start 2 --stop 3 --count 2 --n 1 --k 1 --r1 5", "--r1 conflicts with sweeping r1"),
    ("verify --n 1 --k 1 --r1 1 --points 0", "--points must be >= 1"),
    ("limit --n 1 --t-list ,,", "t_values must not be empty"),
    ("family --n 1 --lambda 2 --c 1 --Lambda 3 --r1 1", "Lambda must be < 0, got 3"),
    ("family --n 1 --lambda 2 --c 1 --Lambda -3 --r1 1/2", "r1 must be >= 1, got 1/2"),
    ("family --n 0 --k 1 --r1 1", "n must be a positive integer, got 0"),
    ("family --n 1 --k 0 --r1 1", "k must be a positive integer, got 0"),
    ("sweep --param k --start 0 --stop 2 --count 3 --n 1 --r1 1", "k must be a positive integer, got 0"),
    ("sweep --param r1 --start 1/2 --stop 3 --count 3 --n 1 --k 1", "r1 must be >= 1, got 1/2"),
    ("sweep --param t --start -1 --stop 1 --count 3 --n 1 --k 1", "--param t needs t >= 0, got -1"),
    ("sweep --param r1 --start 1 --stop 2 --count 100001 --n 1 --k 1", "--count must be <= 100000"),
    # every point of verify (of a sweep --verify row) is drawn before it is evaluated
    ("verify --n 1 --k 1 --r1 2 --points 100001", "--points must be <= 100000"),
    ("verify --n 1 --k 1 --r1 2 --points 1000000000000000", "--points must be <= 100000"),
    ("sweep --param r1 --start 2 --stop 3 --count 2 --n 1 --k 1 --verify --points 100001", "--points must be <= 100000"),
    ("sweep --param r1 --start 2 --stop 3 --count 2 --n 1 --k 1 --verify --points 1000000000000000", "--points must be <= 100000"),
    ("sweep --param c --start 0 --stop 1 --count 3 --spacing log --n 1 --lambda 2 --Lambda -3 --r1 2", "log spacing requires --start > 0"),
    ("limit --n 1 --t-list 0.1,0.1", "t_values must be positive and decreasing"),
    ("limit --n 1 --t-list 0", "t_values must be positive and decreasing"),
    ("limit --n 1 --t-list abc", "argument --t-list: not a rational number: 'abc' (Invalid literal for Fraction: 'abc')"),
    ("limit --n 1 --t-list 0.1,y", "argument --t-list: not a rational number: 'y' (Invalid literal for Fraction: 'y')"),
    ("limit --n 1 --t-list 0.1 --rho-grid 0.5,1", "rho = 1/2 is below the inner radius for t = 1/10"),
    ("limit --n 1 --t-list 0.1 --rho-grid=-2,2", "rho = -2 is below the inner radius for t = 1/10"),
    ("limit --n 1 --rho-grid ,", "rho_grid must not be empty"),
    ("limit --n 1 --t-list 0.1 --rho-grid 1:2:x", "--rho-grid count must be an integer, got 'x'"),
    ("limit --rho-grid 1:x:3", "argument --rho-grid: not a rational number: 'x' (Invalid literal for Fraction: 'x')"),
    ("verify --chart rescaled --rho1 abc --points 2", "argument --rho1: not a rational number: 'abc' (Invalid literal for Fraction: 'abc')"),
    ("verify --chart rescaled --profile-lambda 0 --points 2", "lam must be > 0, got 0"),
    ("verify --chart rescaled --profile-lambda -2 --points 2", "lam must be > 0, got -2"),
    ("verify --chart rescaled --n -1 --rho1 1 --points 2", "n must be a positive integer, got -1"),
    ("verify --chart rescaled --n 0 --rho1 1 --points 2", "n must be a positive integer, got 0"),
    ("sweep --param r1 --start 2 --stop 1e400 --count 3 --spacing log --k 1", "log spacing needs --start and --stop within the float range"),
    ("sweep --param c --spacing log --start 1e-400 --stop 1 --count 3 --lambda 2 --Lambda -3 --r1 2", "log spacing needs --start and --stop within the float range"),
    # exact values whose floats overflow: the chart builders and the limit comparison name them
    ("verify --k 1 --r1 1e400 --points 2", f"page-pope n=1 lambda=4 c=1 Lambda=-3 r1={10**400}: an exact value lies beyond the float range"),
    ("verify --k 1 --r1 1e300 --points 2", f"page-pope n=1 lambda=4 c=1 Lambda=-3 r1={10**300}: an exact value lies beyond the float range"),
    ("verify --lambda 2 --c 1e400 --Lambda -3 --r1 2 --points 2", f"page-pope n=1 lambda=2 c={10**400} Lambda=-3 r1=2: an exact value lies beyond the float range"),
    ("sweep --param r1 --start 1 --stop 1e400 --count 2 --k 1 --verify", f"page-pope n=1 lambda=4 c=1 Lambda=-3 r1={10**400}: an exact value lies beyond the float range"),
    ("verify --chart rescaled --rho1 1e400 --points 2", f"rescaled lambda=2 rho1^2={10**800}: an exact value lies beyond the float range"),
    # every coefficient of P fits in a float, Lambda for the residual does not
    ("verify --n 1 --lambda 3e298 --c 1e-10 --Lambda -2e308 --r1 1 --points 3", f"Lambda = {-2 * 10**308} lies beyond the float range"),
    ("sweep --param r1 --start 1 --stop 2 --count 2 --n 1 --lambda 3e298 --c 1e-10 --Lambda -2e308 --verify --points 2", f"Lambda = {-2 * 10**308} lies beyond the float range"),
    # an exact lambda > 0 whose float underflows to 0.0, which ghat divides by
    ("verify --n 1 --lambda 1e-400 --c 1 --Lambda -3 --r1 2 --points 3", "page-pope n=1 r1=2: lambda > 0 rounds to 0.0 as a float"),
    ("verify --chart rescaled --profile-lambda 1e-400 --points 3", "rescaled rho1^2=2/3: lambda > 0 rounds to 0.0 as a float"),
    ("sweep --param r1 --start 2 --stop 3 --count 2 --n 1 --lambda 1e-400 --c 1 --Lambda -3 --verify --points 2", "page-pope n=1 r1=2: lambda > 0 rounds to 0.0 as a float"),
    ("limit --n 1 --rho-grid 1e400", f"t = 1/10, rho = {10**400}: a deviation lies beyond the float range"),
    # every exact value fits in a float, but a float of the engine overflows, divides by zero or is invalid
    ("verify --chart rescaled --profile-lambda 5e-324 --points 3", f"rescaled rho1^2=2/3: {FLOAT_FAULT} (divide by zero encountered in divide)"),
    ("verify --n 1 --lambda 3e298 --c 1e-10 --Lambda -2e308 --r1 1 --points 3 --Lambda-check -3", f"page-pope n=1 r1=1: {FLOAT_FAULT} (overflow encountered in multiply)"),
    ("verify --n 1 --lambda 5e-324 --c 1 --Lambda -3 --r1 2 --points 3", f"page-pope n=1 r1=2: {FLOAT_FAULT} (invalid value encountered in multiply)"),
    ("verify --n 1 --lambda 1e-300 --c 1 --Lambda -3 --r1 2 --points 3", f"page-pope n=1 r1=2: {FLOAT_FAULT} (overflow encountered in multiply)"),
    ("verify --n 1 --lambda 2 --c 1e-300 --Lambda -3 --r1 2 --points 3", f"page-pope n=1 r1=2: {FLOAT_FAULT} (overflow encountered in multiply)"),
    ("verify --n 1 --lambda 2 --c 1e300 --Lambda -3 --r1 2 --points 3", f"page-pope n=1 r1=2: {FLOAT_FAULT} (invalid value encountered in multiply)"),
    ("verify --chart rescaled --profile-lambda 1e300 --points 3", f"rescaled rho1^2=2/3: {FLOAT_FAULT} (overflow encountered in multiply)"),
    ("verify --chart rescaled --profile-lambda 1e-300 --points 3", f"rescaled rho1^2=2/3: {FLOAT_FAULT} (overflow encountered in multiply)"),
    ("sweep --param c --start 1e-300 --stop 1 --count 3 --lambda 2 --Lambda -3 --r1 2 --verify", f"page-pope n=1 r1=2: {FLOAT_FAULT} (overflow encountered in multiply)"),
    # every metric entry is finite; lam * G overflows in the Einstein residual
    ("verify --n 1 --k 1 --r1 1 --points 3 --Lambda-check 1e308", f"page-pope n=1 r1=1: {FLOAT_FAULT} (overflow encountered in multiply)"),
    # the fitted order takes log t in floats
    ("limit --n 1 --t-list 1e-400", "t_values must lie in the float range, where the fitted order takes log t"),
    # r1 + 0.1 rounds back to r1, so the page-pope sampling window is empty
    ("verify --k 1 --r1 1e20 --points 2", "r1 = 1e+20 lies beyond the float sampling window (r1 + 0.1 rounds to r1)"),
    ("sweep --param r1 --start 1e20 --stop 2e20 --count 2 --k 1 --verify", "r1 = 1e+20 lies beyond the float sampling window (r1 + 0.1 rounds to r1)"),
    # both charts refuse n != 1 in one place, geom._fibration_chart
    ("verify --n 2 --k 1 --r1 2 --points 3", "the chart verification covers n = 1"),
    ("sweep --param r1 --start 2 --stop 3 --count 2 --k 1 --n 2 --verify", "the chart verification covers n = 1"),
    ("verify --chart rescaled --n 2 --rho1 1 --points 2", "the chart verification covers n = 1"),
    ("verify --chart rescaled --n 3 --points 2", "the chart verification covers n = 1"),
    ("family --n 1 --k 1", "--r1 is required"),
    ("sweep --param k --start 1 --stop 3 --count 3 --n 1", "sweeping k needs --r1"),
    ("sweep --param k --start 1/2 --stop 3 --count 3 --n 1 --r1 1", "k sweeps need integer --start/--stop"),
    ("sweep --param k --start 1 --stop 3 --count 4 --n 1 --r1 1", "k sweeps need --count equal to stop - start + 1"),
    ("sweep --param k --start 1 --stop 3 --count 3 --n 1 --r1 1 --spacing log", "k sweeps need --spacing linear"),
    ("sweep --param k --start 1 --stop 2 --count 2 --n 1 --lambda 2 --r1 2", "sweeping k fixes lam, c, Lambda; only --n and --r1 may be given"),
    ("sweep --param c --start 1 --stop 2 --count 2 --n 1 --lambda 2 --c 1 --Lambda -3 --r1 2", "--c conflicts with sweeping c"),
    ("sweep --param c --start 1 --stop 2 --count 2 --n 1 --k 1 --r1 2", "--k fixes c; it cannot be combined with sweeping c"),
    ("sweep --param c --start 1 --stop 2 --count 2 --n 1 --lambda 2 --r1 2", "sweeping c needs --lambda, --Lambda, --r1"),
    ("limit --n 1 --rho-grid 1:2", "rho grid range must be start:stop:count"),
    ("limit --n 1 --rho-grid 2:1:3", "rho grid range needs start < stop and count >= 2"),
    ("limit --n 1 --rho-grid 1:2:1", "rho grid range needs start < stop and count >= 2"),
    ("limit --n 1 --rho-grid 1:2:100001", "--rho-grid count must be <= 100000"),
    ("limit --n 1 --format json --summary-output summary.json", "--summary-output needs --format csv"),
]


@pytest.mark.parametrize("command, message", USAGE_ERRORS, ids=[command for command, _ in USAGE_ERRORS])
def test_usage_error_message(capsys, command, message):
    assert run(capsys, *command.split()) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "command",
    [
        "verify --n 1 --lambda 2 --c 1e300 --Lambda -3 --r1 2 --points 3",
        "verify --chart rescaled --profile-lambda 5e-324 --points 3",
        "sweep --param c --start 1e-300 --stop 1 --count 3 --lambda 2 --Lambda -3 --r1 2 --verify",
    ],
)
def test_float_fault_prints_one_line_in_a_fresh_interpreter(command):
    # In process, filterwarnings = error turns a numpy RuntimeWarning into an
    # exception; a user's interpreter prints it and goes on.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONWARNINGS", None)
    done = subprocess.run([sys.executable, "-m", "pelab", *command.split()], env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {dict(USAGE_ERRORS)[command]}\n")


@pytest.mark.parametrize(
    "module, name, argv",
    [
        ("geom", "assemble_curvature", "verify --n 1 --k 1 --r1 2 --points 3"),
        ("family", "family_report", "family --n 1 --k 1 --r1 2"),
        ("limits", "rho1_limit", "limit --n 1"),
    ],
)
def test_an_internal_defect_is_not_a_usage_error(monkeypatch, capsys, module, name, argv):
    # a plain ValueError from a layer is a defect: it leaves main as a traceback, never exit 2
    monkeypatch.setattr(importlib.import_module(f"pelab.{module}"), name, lambda *args: np.zeros(3) + np.zeros(4))
    with pytest.raises(ValueError, match="could not be broadcast together") as exc:
        main(argv.split())
    assert type(exc.value) is ValueError
    assert capsys.readouterr().err == ""


def test_one_exception_class_per_exit_code():
    # exit 1 is pelab.VerificationFailure and exit 2 pelab.UsageError, the one
    # ValueError subclass in pelab: no module grows an exit-2 class of its own
    modules = [pelab, *(importlib.import_module(f"pelab.{info.name}") for info in pkgutil.iter_modules(pelab.__path__))]
    value_errors = {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, ValueError) and obj.__module__.split(".")[0] == "pelab"
    }
    assert value_errors == {pelab.UsageError}


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--n", "1", "--k", "1", "--r1", "1", "--points", "6", "--seed", "3")
    assert code == 0
    assert "PASS" in out


def test_verify_fail_wrong_lambda(capsys):
    code, out, _ = run(capsys, "verify", "--n", "1", "--k", "1", "--r1", "1", "--points", "4", "--Lambda-check", "-2.5")
    assert code == 1
    assert "FAIL" in out


def test_verify_zero_points_exits_2(capsys):
    code, _, _ = run(capsys, "verify", "--n", "1", "--k", "1", "--r1", "1", "--points", "0")
    assert code == 2


def test_verify_rescaled_chart(capsys):
    code, out, _ = run(capsys, "verify", "--chart", "rescaled", "--rho1", "derived", "--points", "5")
    assert code == 0
    assert "PASS" in out
    code, out, _ = run(capsys, "verify", "--chart", "rescaled", "--rho1", "paper", "--points", "4")
    assert code == 0


@pytest.mark.parametrize("argv", [("--rho1", "-1"), ("--rho1=-1/2",)])
def test_verify_rejects_negative_rho1(monkeypatch, capsys, argv):
    _forbid_sampling(monkeypatch, "a negative --rho1")
    code, out, err = run(capsys, "verify", "--chart", "rescaled", *argv, "--points", "5")
    assert code == 2 and out == ""
    assert err.startswith("error: --rho1 must be >= 0")


def test_verify_deterministic(capsys):
    args = ("verify", "--n", "1", "--k", "1", "--r1", "1", "--points", "5", "--seed", "11", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_verify_csv_columns(capsys):
    code, out, _ = run(capsys, "verify", "--n", "1", "--k", "1", "--r1", "1", "--points", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["r", "psi", "u", "v", "einstein_residual", "scalar", "bianchi_max", "symmetry_max"]
    assert len(rows) == 4


def test_audit_informs_never_fails(capsys):
    code, out, _ = run(capsys, "audit")
    assert code == 0
    assert out.count("derived confirmed; printed form fails") == 9
    code, out, _ = run(capsys, "audit", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    quantities = {row["quantity"] for row in rows}
    assert any("beta_sq" in q for q in quantities)
    assert any("smooth-cone c" in q for q in quantities)
    assert any("conic base" in q for q in quantities)
    assert any("rho1^2" in q for q in quantities)


def test_sweep_alpha_monotone(capsys):
    code, out, _ = run(capsys, "sweep", "--param", "r1", "--start", "1.01", "--stop", "10", "--count", "20", "--n", "1", "--k", "1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["r1", "c", "alpha", "beta_sq_derived", "berger_coeff", "z_scale"]
    alphas = [F(row[2]) for row in rows[1:]]
    assert all(b > a for a, b in zip(alphas, alphas[1:]))


def test_sweep_k_catalogue(capsys):
    # alpha continuation at r1 = 1 equals (n+1)/k
    code, out, _ = run(capsys, "sweep", "--param", "k", "--start", "1", "--stop", "5", "--count", "5", "--n", "1", "--r1", "1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    for k, row in zip(range(1, 6), rows):
        assert F(row[2]) == F(2, k)
        assert F(row[4]) == F(1, k)


def test_sweep_minimal_two_rows(capsys):
    code, out, _ = run(capsys, "sweep", "--param", "r1", "--start", "2", "--stop", "3", "--count", "2", "--n", "1", "--k", "1")
    assert code == 0
    assert len(list(csv.reader(io.StringIO(out)))) == 3


def test_sweep_malformed_exits_2(capsys):
    base = ("sweep", "--param", "r1", "--n", "1", "--k", "1")
    assert run(capsys, *base, "--start", "3", "--stop", "2", "--count", "5")[0] == 2
    assert run(capsys, *base, "--start", "2", "--stop", "3", "--count", "1")[0] == 2
    code, _, _ = run(capsys, "sweep", "--param", "c", "--start", "0", "--stop", "1", "--count", "3", "--spacing", "log", "--n", "1", "--lambda", "2", "--Lambda", "-3", "--r1", "2")
    assert code == 2


def test_log_sweep_up_to_the_float_maximum(capsys):
    # the last exponent rounds above log(stop), where math.exp overflows
    code, out, _ = run(
        capsys, "sweep", "--param", "c", "--spacing", "log", "--start", "1e-300", "--stop", "1.7976931348623157e308",
        "--count", "7", "--lambda", "2", "--Lambda", "-3", "--r1", "2",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 7
    assert math.isfinite(float(F(rows[-1][1])))


def test_sweep_verify_column(capsys):
    code, out, _ = run(
        capsys, "sweep", "--param", "r1", "--start", "1.5", "--stop", "2.5", "--count", "2",
        "--n", "1", "--k", "1", "--verify", "--points", "2",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][-1] == "max_einstein_residual"
    assert all(float(row[-1]) < 1e-6 for row in rows[1:])


def test_sweep_deterministic(capsys):
    args = ("sweep", "--param", "t", "--start", "1/10", "--stop", "2", "--count", "6", "--n", "1", "--k", "1")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_limit_csv_and_summary(tmp_path, capsys):
    summary_path = tmp_path / "summary.json"
    code, out, _ = run(
        capsys, "limit", "--n", "1", "--t-list", "0.1,0.01", "--rho-grid", "1:2:5",
        "--summary-output", str(summary_path),
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "rho", "dev_drho2", "dev_theta2", "dev_base"]
    assert len(rows) == 11
    by_t = {}
    for t, rho, d1, d2, d3 in rows[1:]:
        by_t.setdefault(t, []).append(float(d1))
        assert float(d3) == 0.0
    assert max(by_t["1/10"]) > max(by_t["1/100"])
    summary = json.loads(summary_path.read_text())
    assert "rho1_derived" in summary and "rho1_paper" in summary
    assert "fitted_order_per_coefficient" in summary


def test_limit_json_format(capsys):
    code, out, _ = run(capsys, "limit", "--n", "1", "--t-list", "0.1,0.01", "--rho-grid", "1,1.5,2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["rho1_derived"] == pytest.approx((2 / 3) ** 0.5)
    assert len(payload["rows"]) == 6


def test_limit_grid_outside_domain_exits_2(capsys):
    code, _, err = run(capsys, "limit", "--n", "1", "--t-list", "0.1", "--rho-grid", "0.5,1")
    assert code == 2
    assert "inner radius" in err


def test_limit_small_t_fits_first_order(capsys):
    # each deviation is exact before its one rounding, so t far below 1e-16 still fits order 1
    code, out, _ = run(capsys, "limit", "--n", "1", "--t-list", "1e-6,1e-8,1e-20", "--format", "json")
    assert code == 0
    orders = json.loads(out)["summary"]["fitted_order_per_coefficient"]
    assert orders["dev_drho2"] == pytest.approx(1, abs=1e-3)
    assert orders["dev_theta2"] == pytest.approx(1, abs=1e-3)


@pytest.mark.parametrize("t_list", ["0.1,0.09999999999999999999999", "1e-300,9.999999999999999e-301"])
def test_limit_ts_of_one_float_log_fit_no_order(capsys, t_list):
    # the ts decrease exactly, but their float logs are equal (the second pair's floats differ)
    code, out, err = run(capsys, "limit", "--n", "1", "--t-list", t_list, "--rho-grid", "1", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["summary"]["fitted_order_per_coefficient"] == {"dev_drho2": None, "dev_theta2": None, "dev_base": None}


@pytest.mark.parametrize("t_list", ["0.1,0.1", ",,"])
def test_limit_repeated_or_empty_t_exits_2(capsys, t_list):
    code, out, err = run(capsys, "limit", "--n", "1", "--t-list", t_list)
    assert code == 2 and out == ""
    assert err.startswith("error: t_values must")


def test_audit_mismatch_maps_to_exit_3(monkeypatch, capsys):
    import pelab.cli as cli_mod
    from pelab.family import AuditMismatch

    def boom(params):
        raise AuditMismatch("forced for the exit-code contract")

    monkeypatch.setattr(cli_mod.fam, "family_report", boom)
    code, _, err = run(capsys, "family", "--n", "1", "--k", "1", "--r1", "1")
    assert code == 3
    assert "audit mismatch" in err


def test_sweep_r1_flag_conflicts_with_swept_param(capsys):
    code, _, _ = run(capsys, "sweep", "--param", "r1", "--start", "2", "--stop", "3", "--count", "2", "--n", "1", "--k", "1", "--r1", "5")
    assert code == 2


def test_output_files_written(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run(
        capsys, "sweep", "--param", "r1", "--start", "2", "--stop", "3", "--count", "2",
        "--n", "1", "--k", "1", "--output", str(out_path),
    )
    assert code == 0 and out == ""
    assert out_path.read_text().startswith("r1,c,alpha")


@pytest.mark.parametrize(
    "argv",
    [
        ("family", "--n", "1", "--k", "1", "--r1", "1", "--output"),
        ("limit", "--n", "1", "--t-list", "0.1", "--rho-grid", "1,2", "--summary-output"),
        ("limit", "--n", "1", "--t-list", "0.1", "--rho-grid", "1,2", "--output", "table.csv", "--summary-output"),
    ],
    ids=["output", "summary-output", "summary-output-with-output"],
)
def test_unwritable_output_path_exits_2(monkeypatch, tmp_path, capsys, argv):
    monkeypatch.chdir(tmp_path)  # a relative --output lands in tmp_path
    path = tmp_path / "missing" / "x"
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# One case per command and format, and a failing verify: what --output gets
# is what stdout gets, under the same exit code.
OUTPUT_CASES = [
    "family --n 1 --k 1 --r1 5/2",
    "family --n 1 --k 1 --r1 5/2 --format json",
    "audit",
    "audit --format json",
    "sweep --param r1 --start 2 --stop 3 --count 3 --n 1 --k 1",
    "sweep --param r1 --start 2 --stop 3 --count 3 --n 1 --k 1 --format json",
    "limit --n 1 --t-list 0.1,0.01 --rho-grid 1,2",
    "limit --n 1 --t-list 0.1,0.01 --rho-grid 1,2 --format json",
    "verify --n 1 --k 1 --r1 2 --points 5",
    "verify --n 1 --k 1 --r1 2 --points 5 --format json",
    "verify --n 1 --k 1 --r1 2 --points 5 --format csv",
    "verify --n 1 --k 1 --r1 2 --points 5 --tol 1e-30",
]


@pytest.mark.parametrize("command", OUTPUT_CASES)
def test_output_file_gets_the_bytes_of_stdout(tmp_path, capsys, command):
    path = tmp_path / "out"
    code, out, err = run(capsys, *command.split())
    assert out and err == "" and code == (1 if "--tol" in command else 0)
    assert run(capsys, *command.split(), "--output", str(path)) == (code, "", "")
    assert path.read_bytes() == out.encode()


# A failed stdout write points fd 1 at os.devnull, so each command runs in
# an interpreter of its own, whose exit flushes the broken stream.
@pytest.mark.parametrize(
    "command",
    [
        "family --n 1 --k 1 --r1 1",
        "sweep --param r1 --start 2 --stop 3 --count 2 --n 1 --k 1",
        "verify --n 1 --k 1 --r1 2 --points 5 --format csv",
    ],
)
def test_a_closed_stdout_pipe_is_a_usage_error(command):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the first write: every write raises EPIPE
    try:
        done = subprocess.run([sys.executable, "-m", "pelab", *command.split()], env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (2, "error: cannot write standard output: Broken pipe\n")


def test_a_full_disk_on_stdout_is_a_usage_error():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "pelab", "audit"], env=env, stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (2, "error: cannot write standard output: No space left on device\n")


def _forbid_sampling(monkeypatch, why):
    import pelab.cmd_verify as verify_mod

    def no_sampling(*args):
        raise AssertionError(f"points sampled despite {why}")

    monkeypatch.setattr(verify_mod, "_sample_points", no_sampling)


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_verify_rejects_bad_tol_before_sampling(monkeypatch, capsys, tol):
    _forbid_sampling(monkeypatch, "a bad --tol")
    code, out, err = run(capsys, "verify", "--n", "1", "--k", "1", "--r1", "1", "--points", "5", "--tol", tol)
    assert code == 2 and out == ""
    assert err.startswith("error: --tol must be a finite number > 0")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_verify_rejects_non_finite_lambda_check(monkeypatch, capsys, value):
    _forbid_sampling(monkeypatch, "a non-finite --Lambda-check")
    code, out, err = run(capsys, "verify", "--n", "1", "--k", "1", "--r1", "1", "--points", "5", f"--Lambda-check={value}")
    assert code == 2 and out == ""
    assert err.startswith("error: --Lambda-check must be a finite number")


@pytest.mark.parametrize("value", ["-inf", "-nan"])
def test_verify_non_finite_lambda_check_after_a_space(monkeypatch, capsys, value):
    _forbid_sampling(monkeypatch, "a non-finite --Lambda-check")
    code, out, err = run(capsys, "verify", "--n", "1", "--k", "1", "--r1", "1", "--points", "5", "--Lambda-check", value)
    assert code == 2 and out == ""
    assert err.startswith("error: --Lambda-check must be a finite number")


@pytest.mark.parametrize("flag, rational, decimal", [("--tol", "1/1000000", "1e-6"), ("--Lambda-check", "-3/2", "-1.5"), ("--Lambda-check", "-3/1", "-3")])
def test_verify_float_flags_accept_rationals(capsys, flag, rational, decimal):
    argv = ("verify", "--n", "1", "--k", "1", "--r1", "1", "--points", "3")
    code, out, err = run(capsys, *argv, flag, rational)
    assert code != 2, err
    assert (code, out, err) == run(capsys, *argv, flag, decimal)


def _fixed_scan(monkeypatch, columns):
    """Make geom.point_scalars return columns as the SCALAR_COLUMNS; the list returned receives each sampled point array."""
    import pelab.geom as geom_mod

    sampled = []

    def scan(chart, points, lam):
        sampled.append(points)
        return np.array(columns)

    monkeypatch.setattr(geom_mod, "point_scalars", scan)
    return sampled


def test_verify_judges_the_largest_residual_not_the_largest_scalar(monkeypatch, capsys):
    # the failing point (row 1) has the smallest scalar curvature of the three
    sampled = _fixed_scan(monkeypatch, [[1e-9, 5.0, 0.0, 0.0], [2e-6, 1.0, 0.0, 0.0], [1e-9, 3.0, 0.0, 0.0]])
    code, out, _ = run(capsys, "verify", "--n", "1", "--k", "1", "--r1", "1", "--points", "3")
    assert code == 1
    assert "max einstein residual: 2e-06 (tol 1e-06)" in out
    assert out.endswith(f"FAIL at point {tuple(sampled[0][1].tolist())}\n")


def test_verify_default_tol_fails_a_residual_of_1_5e_6(monkeypatch, capsys):
    _fixed_scan(monkeypatch, [[1.5e-6, 1.0, 0.0, 0.0]])
    code, out, _ = run(capsys, "verify", "--n", "1", "--k", "1", "--r1", "1", "--points", "1")
    assert code == 1
    assert "FAIL at point" in out


@pytest.mark.parametrize("value", ["abc", "1/0"])
def test_verify_tol_rejects_non_numbers(capsys, value):
    code, out, err = run(capsys, "verify", "--n", "1", "--k", "1", "--r1", "1", "--tol", value)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument --tol: invalid float value: '{value}'\n")


@pytest.mark.parametrize("n", ["2", "3"])
def test_rescaled_chart_rejects_n_other_than_1(monkeypatch, capsys, n):
    _forbid_sampling(monkeypatch, f"--n {n} on the rescaled chart")
    code, out, err = run(capsys, "verify", "--chart", "rescaled", "--n", n, "--rho1", "derived", "--points", "3")
    assert (code, out, err) == (2, "", "error: the chart verification covers n = 1\n")


@pytest.mark.parametrize(
    "chart, argv, given",
    [
        ("rescaled", ("--k", "1", "--r1", "5", "--lambda", "7"), "--k, --lambda, --r1"),
        ("rescaled", ("--c", "1/2"), "--c"),
        ("rescaled", ("--Lambda", "-3"), "--Lambda"),
        ("page-pope", ("--k", "1", "--r1", "1", "--rho1", "derived"), "--rho1"),
        ("page-pope", ("--k", "1", "--r1", "1", "--profile-lambda", "2"), "--profile-lambda"),
    ],
)
def test_verify_rejects_the_other_charts_flags(monkeypatch, capsys, chart, argv, given):
    _forbid_sampling(monkeypatch, f"{given} on the {chart} chart")
    code, out, err = run(capsys, "verify", "--chart", chart, *argv, "--points", "2")
    assert (code, out, err) == (2, "", f"error: --chart {chart} does not take {given}\n")


@pytest.mark.parametrize(
    "command, flag, value, reason",
    [
        ("family", "--lambda", "x", "Invalid literal for Fraction: 'x'"),
        ("family", "--lambda", "1/0", "Fraction(1, 0)"),
        ("family", "--c", "abc", "Invalid literal for Fraction: 'abc'"),
        ("family", "--Lambda", "-3/0", "Fraction(-3, 0)"),
        ("family", "--r1", "one", "Invalid literal for Fraction: 'one'"),
        ("sweep", "--start", "x", "Invalid literal for Fraction: 'x'"),
        ("sweep", "--stop", "1/0", "Fraction(1, 0)"),
        ("verify", "--profile-lambda", "x", "Invalid literal for Fraction: 'x'"),
    ],
)
def test_rational_flag_errors_name_the_flag(capsys, command, flag, value, reason):
    valid = {
        "family": {"--n": "1", "--lambda": "2", "--c": "1", "--Lambda": "-3", "--r1": "1"},
        "sweep": {"--param": "c", "--start": "1", "--stop": "2", "--count": "3"},
        "verify": {"--chart": "rescaled"},
    }[command]
    argv = [token for name, text in {**valid, flag: value}.items() for token in (name, text)]
    code, out, err = run(capsys, command, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {flag}: not a rational number: {value!r} ({reason})\n"), err


@pytest.mark.parametrize(
    "argv",
    [
        ("family", "--n", "1", "--lambda", "2", "--c", "1/3", "--Lambda", "-3/2", "--r1", "2"),
        ("family", "--n", "1", "--lambda", "2", "--c", "1/3", "--Lambda", "-3e0", "--r1", "2"),
        ("sweep", "--n", "1", "--k", "1", "--param", "r1", "--start", "-1/2", "--stop", "2", "--count", "3"),
        ("verify", "--n", "1", "--k", "1", "--r1", "1", "--points", "3", "--Lambda-check", "-1e-3"),
    ],
)
def test_negative_value_after_a_space_parses_as_with_equals(capsys, argv):
    i = next(i for i, token in enumerate(argv) if token[0] == "-" and token[1:2] != "-")
    joined = (*argv[: i - 1], f"{argv[i - 1]}={argv[i]}", *argv[i + 1 :])
    spaced = run(capsys, *argv)
    assert "expected one argument" not in spaced[2]
    assert spaced == run(capsys, *joined)


def test_verify_lambda_check_of_any_finite_sign(capsys):
    code, out, _ = run(capsys, "verify", "--n", "1", "--k", "1", "--r1", "1", "--points", "5", "--Lambda-check", "-3")
    assert code == 0 and out.endswith("PASS\n")
    code, out, _ = run(capsys, "verify", "--chart", "rescaled", "--rho1", "0", "--profile-lambda", "4", "--points", "5", "--Lambda-check", "0")
    assert code == 0 and out.endswith("PASS\n")


def test_verify_rejects_negative_seed(monkeypatch, capsys):
    _forbid_sampling(monkeypatch, "a negative --seed")
    code, out, err = run(capsys, "verify", "--n", "1", "--k", "1", "--r1", "1", "--points", "5", "--seed", "-1")
    assert (code, out, err) == (2, "", "error: --seed must be >= 0\n")


def test_sweep_verify_rejects_negative_seed(monkeypatch, capsys):
    import pelab.family as fam_mod

    def no_rows(params):
        raise AssertionError("a sweep row was computed despite a negative --seed")

    monkeypatch.setattr(fam_mod, "solve_profile", no_rows)
    argv = ("sweep", "--param", "r1", "--start", "2", "--stop", "3", "--count", "3", "--n", "1", "--k", "1", "--verify", "--seed", "-1")
    assert run(capsys, *argv) == (2, "", "error: --seed must be >= 0\n")


def test_sweep_without_verify_ignores_the_seed(capsys):
    argv = ("sweep", "--param", "r1", "--start", "2", "--stop", "3", "--count", "3", "--n", "1", "--k", "1")
    assert run(capsys, *argv, "--seed", "-1") == run(capsys, *argv)


# -- sampling window, failure exit codes, memory --------------------------------


# (r, psi, u, v) of the first points of `verify --r1 1`, as the seed-by-seed
# scalar draws produced them; the (N, 4) array draw must reproduce every bit.
FIRST_POINTS = {
    0: [
        ("6.7689590171609435", "1.7181412446170277", "0.18119584058847893", "0.018884431200124122"),
        ("8.338105128882425", "5.69373687446983", "-0.09005568776400255", "-0.6951726055252524"),
        ("5.938262424042264", "5.831726071913332", "0.8128011730729785", "0.013986847022514475"),
    ],
    11: [
        ("2.244274804645877", "3.1371275432397496", "0.6866974042513314", "0.12514129881619104"),
        ("2.416542152739358", "5.789300759130691", "0.16373878563069882", "0.1738685617502011"),
        ("9.540123234296798", "3.895221493754647", "-0.5453038272887", "-0.03909176595430669"),
    ],
}


@pytest.mark.parametrize("seed", sorted(FIRST_POINTS))
def test_verify_points_golden(capsys, seed):
    code, out, _ = run(capsys, "verify", "--n", "1", "--k", "1", "--r1", "1", "--points", "3", "--seed", str(seed), "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [tuple(row[:4]) for row in rows] == FIRST_POINTS[seed]


@pytest.mark.parametrize("r1", ["9.95", "10", "25"])
def test_verify_radial_window_follows_r1(capsys, r1):
    code, out, err = run(capsys, "verify", "--n", "1", "--k", "2", "--r1", r1, "--points", "40", "--seed", "9", "--format", "csv")
    assert code == 0, err
    rows = [[float(x) for x in row] for row in list(csv.reader(io.StringIO(out)))[1:]]
    radii = [row[0] for row in rows]
    assert float(r1) + 0.1 <= min(radii) and max(radii) < max(10.0, float(r1) + 1.0)
    assert max(row[4] for row in rows) < 1e-12


@pytest.mark.parametrize("rho1", ["derived", "paper", "3"])
def test_verify_rescaled_window_follows_rho1(capsys, rho1):
    from pelab.limits import RescaledProfile, rho1_limit

    rho1_sq = {"derived": rho1_limit(1).derived_sq, "paper": rho1_limit(1).paper_sq}.get(rho1, F(9))
    inner = RescaledProfile(1, 2, rho1_sq).rho1
    code, out, err = run(capsys, "verify", "--chart", "rescaled", "--rho1", rho1, "--points", "40", "--seed", "9", "--format", "csv")
    assert code == 0, err
    radii = [float(row[0]) for row in list(csv.reader(io.StringIO(out)))[1:]]
    assert 1.1 * inner <= min(radii) and max(radii) <= 5.0 * inner


def test_sweep_verify_window_ending_at_10(capsys):
    code, out, err = run(
        capsys, "sweep", "--param", "r1", "--start", "9", "--stop", "10", "--count", "5",
        "--n", "1", "--k", "3", "--verify", "--seed", "2",
    )
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert rows[-1][0] == "10"
    assert all(float(row[-1]) < 1e-12 for row in rows)


def test_sweep_verify_needs_points(capsys):
    code, _, err = run(capsys, "sweep", "--param", "r1", "--start", "2", "--stop", "3", "--count", "2", "--n", "1", "--k", "1", "--verify", "--points", "0")
    assert code == 2
    assert "--points" in err


def _broken_chart(monkeypatch, is_bad, corrupt):
    """Make pelab.geom build charts (a row's, a block's) whose metric is corrupted where is_bad(r) holds."""
    import pelab.geom as geom_mod
    from pelab.jets import Jet2

    real = geom_mod._fibration_chart

    def chart_factory(*args, **kwargs):
        chart = real(*args, **kwargs)

        def metric(x):
            rows = chart.metric(x)
            corrupt(rows, x, Jet2.constant(is_bad(x[0].value).astype(float), x[0].dim))
            return rows

        return geom_mod.ChartMetric(chart.coords, metric, chart.in_domain, chart.reads, chart.label, chart.data)

    monkeypatch.setattr(geom_mod, "_fibration_chart", chart_factory)


def _verify_points(seed, count):
    from pelab.cmd_verify import _sample_points

    return _sample_points(seed, count, 1.1, 10.0)


def _zero_drr(rows, x, mask):
    rows[0][0] = rows[0][0] * (1 - mask)


def _asymmetric(rows, x, mask):
    rows[0][1] = rows[0][1] + mask * x[2] * x[3]


def test_singular_point_in_a_later_block_exits_1(monkeypatch, capsys):
    points = _verify_points(4, 300)
    _broken_chart(monkeypatch, lambda r: np.isin(r, points[[200, 250], 0]), _zero_drr)
    code, out, err = run(capsys, "verify", "--n", "1", "--k", "1", "--r1", "1", "--points", "300", "--seed", "4")
    assert code == 1 and out == ""
    assert "verification failed: metric condition number" in err
    assert str(tuple(points[200].tolist())) in err
    assert str(tuple(points[250].tolist())) not in err


def test_curvature_check_failure_exits_1(monkeypatch, capsys):
    points = _verify_points(7, 150)
    _broken_chart(monkeypatch, lambda r: r == points[140, 0], _asymmetric)
    code, _, err = run(capsys, "verify", "--n", "1", "--k", "1", "--r1", "1", "--points", "150", "--seed", "7")
    assert code == 1
    assert "verification failed: Riemann symmetry violation" in err
    assert str(tuple(points[140].tolist())) in err


@pytest.mark.parametrize("corrupt, message", [(_zero_drr, "metric condition number"), (_asymmetric, "Riemann symmetry violation")])
def test_sweep_verify_failure_exits_1(monkeypatch, capsys, corrupt, message):
    _broken_chart(monkeypatch, lambda r: r > 0, corrupt)
    code, out, err = run(capsys, "sweep", "--param", "r1", "--start", "1", "--stop", "2", "--count", "2", "--n", "1", "--k", "1", "--verify")
    assert code == 1 and out == ""
    assert f"verification failed: {message}" in err
    # row 0 draws its points from seed 0 * 100003 + 0; the first one fails
    assert str(tuple(_verify_points(0, 1)[0].tolist())) in err


def test_sweep_verify_reports_an_earlier_rows_failure_before_a_later_rows_domain_error(capsys):
    # row 1 (r1 = 1e10) has a singular metric; row 2 (r1 = 1e17) alone would exit 2
    # with "beyond the float sampling window"
    argv = "sweep --param r1 --start 1000 --stop 1e17 --count 3 --spacing log --k 1 --n 1 --verify"
    assert run(capsys, *argv.split()) == (
        1,
        "",
        "verification failed: metric condition number 1.35e+30 at "
        "(10000000000.560644, 5.926893162130123, 0.32408272701336605, -0.1083497685945077)\n",
    )


def test_sweep_verify_reports_an_earlier_rows_singular_metric_before_a_later_rows_float_fault(capsys):
    # one block holds rows 1 and 2: row 1 (c = 1e150) has a finite singular
    # metric, row 2 (c = 1e300) overflows in the jets, which the block meets first
    argv = "sweep --param c --spacing log --start 1 --stop 1e300 --count 3 --lambda 2 --Lambda -3 --r1 2 --verify"
    assert run(capsys, *argv.split()) == (
        1,
        "",
        "verification failed: metric condition number 1.54e+303 at "
        "(6.143390835132028, 5.926893162130123, 0.32408272701336605, -0.1083497685945077)\n",
    )


def test_sweep_verify_names_the_first_failing_row_before_a_later_rows_singular_metric(monkeypatch, capsys):
    # one block holds both rows; the singular metric of row 1 must not hide the
    # failed symmetry check of row 0, which a row-by-row evaluation meets first
    from pelab.cmd_verify import _sample_points
    from pelab.jets import Jet2

    row0, row1 = _sample_points(0, 5, 2.1, 10.0), _sample_points(1, 5, 3.1, 10.0)

    def corrupt(rows, x, _):
        r = x[0].value
        _zero_drr(rows, x, Jet2.constant(np.isin(r, row1[[0], 0]).astype(float), x[0].dim))
        _asymmetric(rows, x, Jet2.constant(np.isin(r, row0[[3], 0]).astype(float), x[0].dim))

    _broken_chart(monkeypatch, lambda r: r > 0, corrupt)
    argv = "sweep --param r1 --start 2 --stop 3 --count 2 --n 1 --k 1 --verify"
    assert run(capsys, *argv.split()) == (
        1,
        "",
        "verification failed: Riemann symmetry violation 2.348e-02 at "
        "(8.873493785041799, 0.25766583576192076, 0.3461936129035612, 0.6864188910519828)\n",
    )


def test_sweep_verify_reports_an_earlier_rows_failure_before_a_later_rows_audit_mismatch(monkeypatch, capsys):
    # rows 0 and 1 wait in one block when row 2 raises; row 0's failed check is reported, not the mismatch
    import pelab.cmd_sweep as sweep_mod
    from pelab.family import AuditMismatch

    real = sweep_mod._sweep_row

    def sweep_row(args, value):
        if value == 3:
            raise AuditMismatch("row 2")
        return real(args, value)

    _broken_chart(monkeypatch, lambda r: np.isin(r, _verify_points(0, 5)[:, 0]), _asymmetric)
    monkeypatch.setattr(sweep_mod, "_sweep_row", sweep_row)
    argv = "sweep --param r1 --start 1 --stop 3 --count 3 --n 1 --k 1 --verify"
    assert run(capsys, *argv.split()) == (
        1,
        "",
        "verification failed: Riemann symmetry violation 2.572e-04 at "
        "(6.7689590171609435, 1.7181412446170277, 0.18119584058847893, 0.018884431200124122)\n",
    )


def _overflow(rows, x, mask):
    rows[0][0] = rows[0][0] * (mask * 1e300 + 1) * (mask * 1e300 + 1)


SWEEP_2_TO_9 = "sweep --param r1 --start 2 --stop 9 --n 1 --k 1 --verify".split()


def _sweep_row_points(row, points, count):
    """The seeded points of row `row` of SWEEP_2_TO_9 with --count count and --points points."""
    from pelab.cmd_verify import _radial_window, _sample_points

    return _sample_points(row, points, *_radial_window(float(2 + F(7 * row, count - 1))))


# (points per row, rows, failing (row, point, corruption) sites, the row at
# which the row stream raises and what it raises, the exit code): groups of
# several rows with a partial last group (5 and 21 points), a last group of
# one row (5 points, 13 rows), one-row groups (33 and 65 points) and stream
# errors with rows pending
RULE_CASES = [
    (5, 30, [(14, 3, _asymmetric), (15, 0, _zero_drr)], None, 1),
    (5, 30, [(12, 4, _asymmetric), (13, 1, _zero_drr)], None, 1),
    (5, 30, [(19, 2, _zero_drr), (20, 4, _overflow)], None, 1),
    (5, 30, [(13, 0, _overflow)], None, 2),
    (5, 30, [(26, 1, _asymmetric), (29, 0, _overflow)], None, 1),
    (5, 13, [(12, 2, _zero_drr)], None, 1),
    (5, 30, [(12, 1, _asymmetric)], (13, "audit"), 1),
    (5, 30, [(12, 4, _asymmetric), (15, 0, _asymmetric)], (17, "window"), 1),
    (5, 30, [(16, 0, _zero_drr)], (17, "window"), 1),
    (5, 30, [(18, 0, _zero_drr)], (17, "audit"), 3),
    (5, 30, [], (14, "audit"), 3),
    (5, 30, [], (17, "window"), 2),
    (21, 8, [(6, 20, _asymmetric), (7, 0, _overflow)], None, 1),
    (21, 8, [(3, 7, _overflow), (4, 0, _zero_drr)], (5, "window"), 2),
    (33, 6, [(2, 32, _asymmetric), (3, 0, _overflow)], None, 1),
    (33, 6, [(3, 5, _zero_drr)], (4, "audit"), 1),
    (65, 4, [(1, 64, _zero_drr), (2, 0, _overflow)], None, 1),
    (65, 4, [(1, 10, _asymmetric), (1, 64, _zero_drr)], (2, "window"), 1),
    (5, 30, [], None, 0),
]


@pytest.mark.parametrize("points, count, sites, stream, code", RULE_CASES)
def test_sweep_verify_reports_what_a_row_by_row_evaluation_reports(monkeypatch, capsys, points, count, sites, stream, code):
    # the reference evaluates each row alone, in order, as it is drawn: the
    # first exception, a row's failure or the stream's own error, is reported
    import pelab.cmd_sweep as sweep_mod
    from pelab import geom
    from pelab.family import AuditMismatch
    from pelab.jets import Jet2

    radii = {corrupt: [] for _, _, corrupt in sites}
    for row, point, corrupt in sites:
        radii[corrupt].append(_sweep_row_points(row, points, count)[point, 0])

    def corrupt_all(rows, x, _):
        for corrupt, bad in radii.items():
            corrupt(rows, x, Jet2.constant(np.isin(x[0].value, bad).astype(float), x[0].dim))

    _broken_chart(monkeypatch, lambda r: r > 0, corrupt_all)
    real = sweep_mod._sweep_row

    def outcome(row_maxima):
        drawn = []

        def sweep_row(args, value):
            drawn.append(value)
            if stream is not None and len(drawn) - 1 == stream[0]:
                if stream[1] == "audit":
                    raise AuditMismatch(f"row {stream[0]}")
                return real(args, F(10**17))  # its window rounds r1 + 0.1 back to r1
            return real(args, value)

        with monkeypatch.context() as patch:
            patch.setattr(sweep_mod, "_sweep_row", sweep_row)
            patch.setattr(geom, "row_maxima", row_maxima)
            return run(capsys, *SWEEP_2_TO_9, "--count", str(count), "--points", str(points))

    def one_by_one(rows, count):
        return [float(geom.point_scalars(*row)[:, 0].max()) for row in rows]

    reference = outcome(one_by_one)
    assert reference[0] == code
    if code == 1:  # the first site in row order fails first
        row, point, _ = sites[0]
        assert str(tuple(_sweep_row_points(row, points, count)[point].tolist())) in reference[2]
    assert outcome(geom.row_maxima) == reference


def _jet_call_sizes(monkeypatch, argv, code=0):
    """The number of points of every metric_derivatives_jet call that main(argv), exiting with code, makes."""
    import pelab.geom as geom_mod

    real = geom_mod.metric_derivatives_jet
    sizes = []

    def counted(chart, points):
        sizes.append(len(points))
        return real(chart, points)

    with monkeypatch.context() as patch, contextlib.redirect_stdout(io.StringIO()):
        patch.setattr(geom_mod, "metric_derivatives_jet", counted)
        assert main(argv) == code
    return sizes


def test_sweep_verify_blocks_hold_whole_rows_and_stay_bounded(monkeypatch):
    from pelab.geom import BLOCK_POINTS

    sweep = "sweep --param r1 --start 2 --stop 9 --n 1 --k 1 --verify".split()
    # 1000 rows of 5 points: as many whole rows to a block as fit, not one engine pass per row
    sizes = _jet_call_sizes(monkeypatch, [*sweep, "--count", "1000"])
    assert len(sizes) == math.ceil(1000 / (BLOCK_POINTS // 5))
    assert all(size <= BLOCK_POINTS and size % 5 == 0 for size in sizes)
    # a row longer than a block is evaluated alone, in blocks of its own points
    sizes = _jet_call_sizes(monkeypatch, [*sweep, "--count", "3", "--points", "130"])
    whole, rest = divmod(130, BLOCK_POINTS)
    assert sizes == ([BLOCK_POINTS] * whole + [rest]) * 3
    # at the block boundary: 64 // points whole rows to a pass, at least one;
    # seven 32-point rows leave a last group of one row
    for points, expected in ((32, [64, 64, 64, 32]), (33, [33] * 7), (64, [64] * 7), (65, [64, 1] * 7)):
        assert _jet_call_sizes(monkeypatch, [*sweep, "--count", "7", "--points", str(points)]) == expected, points


@pytest.mark.parametrize(
    "points, count, bad_row, audit_row, code, sizes",
    [
        (40, 4, 2, None, 1, [40, 40, 40]),  # a failing one-row group has run alone
        (5, 13, 12, None, 1, [60, 5]),  # so has a failing last group of one row
        (5, 13, 1, None, 1, [60, 5, 5]),  # a failing block, then its rows up to the first failing one
        (5, 30, None, 14, 3, [60, 5, 5]),  # the two rows pending at the stream's error, one at a time
    ],
)
def test_sweep_verify_evaluates_no_failing_row_twice(monkeypatch, points, count, bad_row, audit_row, code, sizes):
    import pelab.cmd_sweep as sweep_mod
    from pelab.family import AuditMismatch

    if bad_row is not None:
        bad = _sweep_row_points(bad_row, points, count)[0, 0]
        _broken_chart(monkeypatch, lambda r: r == bad, _zero_drr)
    real, drawn = sweep_mod._sweep_row, []

    def sweep_row(args, value):
        drawn.append(value)
        if len(drawn) - 1 == audit_row:
            raise AuditMismatch(f"row {audit_row}")
        return real(args, value)

    monkeypatch.setattr(sweep_mod, "_sweep_row", sweep_row)
    assert _jet_call_sizes(monkeypatch, [*SWEEP_2_TO_9, "--count", str(count), "--points", str(points)], code) == sizes


def test_verify_memory_is_flat_in_points():
    def peak(points):
        argv = ["verify", "--n", "1", "--k", "1", "--r1", "1", "--points", str(points), "--format", "json"]
        with contextlib.redirect_stdout(io.StringIO()):
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    peak(20)  # one-time allocations (imports, caches) stay out of the comparison
    small = peak(500)
    assert peak(4000) <= 1.5 * small


def test_verify_csv_written_in_pieces_is_the_whole_table(tmp_path, capsys):
    # 2000 rows span several of the writer's chunks; the bytes are those of one csv.writer pass
    from pelab import geom
    from pelab.cli import _params_from_args, build_parser
    from pelab.cmd_verify import _page_pope_batch

    argv = ["verify", "--n", "1", "--k", "2", "--r1", "3/2", "--points", "2000", "--seed", "8", "--format", "csv"]
    chart, points, lam = _page_pope_batch(_params_from_args(build_parser().parse_args(argv)), 8, 2000, None)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([*chart.coords, *geom.SCALAR_COLUMNS])
    writer.writerows([repr(v) for v in row] for row in np.hstack([points, geom.point_scalars(chart, points, lam)]).tolist())
    assert len(buf.getvalue()) > 3 * 2**16
    assert run(capsys, *argv, "--output", str(tmp_path / "v.csv")) == (0, "", "")
    assert (tmp_path / "v.csv").read_bytes() == buf.getvalue().encode()
    assert run(capsys, *argv) == (0, buf.getvalue(), "")


# A process started from this small launcher inherits no high-water mark of
# the test runner's memory: ru_maxrss is then the command's own peak (in KB).
RSS_LAUNCHER = """
import subprocess, sys
inner = "import resource, sys; from pelab.cli import main; code = main(sys.argv[1:]); print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
done = subprocess.run([sys.executable, "-c", inner, *sys.argv[1:]], stdout=subprocess.PIPE, text=True)
print(done.stdout.splitlines()[-1] if done.stdout else f"exit {done.returncode}")
"""


def test_verify_csv_peak_rss_stays_near_text():
    # the CSV rows are formatted and written in chunks after the engine has
    # finished, so 100000 points cost about what the text summary costs
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    argv = ["verify", "--n", "1", "--k", "1", "--r1", "2", "--points", "100000", "--output", os.devnull]
    procs = {
        fmt: subprocess.Popen([sys.executable, "-c", RSS_LAUNCHER, *argv, "--format", fmt], env=env, stdout=subprocess.PIPE, text=True)
        for fmt in ("text", "csv")
    }
    peak_kb = {}
    for fmt, proc in procs.items():
        out, _ = proc.communicate(timeout=300)
        code, peak = out.split()
        assert code == "0", (fmt, out)
        peak_kb[fmt] = int(peak)
    assert peak_kb["csv"] <= peak_kb["text"] + 5 * 1024, peak_kb
