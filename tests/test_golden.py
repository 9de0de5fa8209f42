"""Golden certificates: every max and min scan for 3 <= n <= 8, and a set of
supersaturation reports up to order 9, byte for byte.

The files under golden/ hold the certificate JSON of each exhaustive scan,
one file per (mode, n, r) or per supersat (n, r, k, epsilon), with a
trailing newline.  Any change to the scans' arithmetic, filtering, dedup or
serialization shows up here.  The CLI's json output is checked against the
same files for every case up to order 7 and one order-8 supersat report.
"""

from pathlib import Path

import pytest

from algconn.cli import main
from algconn.scan import verify_max_theorem, verify_min_theorem, verify_supersaturation

GOLDEN = Path(__file__).parent / "golden"

CASES = [("max", n, r) for n in range(3, 9) for r in range(2, n)] + [
    ("min", n, r) for n in range(3, 9) for r in range(2, n + 1)
]
#: (n, r, k, epsilon, guard); (6, 2, 4) has k*r > n, so every qualifying graph violates.
SUPERSAT_CASES = [
    (6, 2, 2, 0.1, 7),
    (6, 2, 4, 0.1, 7),
    (7, 3, 1, 0.05, 7),
    (8, 2, 2, 0.05, 8),
    (9, 2, 2, 0.3, 9),
]


def test_every_case_has_a_golden_file():
    assert len(CASES) == 48
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(
        [f"{mode}_{n}_{r}.json" for mode, n, r in CASES]
        + [f"supersat_{n}_{r}_{k}_{eps}.json" for n, r, k, eps, _ in SUPERSAT_CASES]
    )


@pytest.mark.parametrize("mode,n,r", CASES)
def test_certificate_matches_golden_bytes(mode, n, r):
    verify = verify_max_theorem if mode == "max" else verify_min_theorem
    expected = (GOLDEN / f"{mode}_{n}_{r}.json").read_bytes()
    assert (verify(n, r, guard=8).to_json() + "\n").encode() == expected


@pytest.mark.parametrize("n,r,k,epsilon,guard", SUPERSAT_CASES)
def test_supersaturation_matches_golden_bytes(n, r, k, epsilon, guard):
    expected = (GOLDEN / f"supersat_{n}_{r}_{k}_{epsilon}.json").read_bytes()
    report = verify_supersaturation(n, r, k, epsilon, guard=guard)
    assert (report.to_json() + "\n").encode() == expected


@pytest.mark.parametrize("mode,n,r", [case for case in CASES if case[1] <= 7])
def test_cli_prints_golden_certificate_bytes(capsys, mode, n, r):
    assert main(["--format", "json", "scan", mode, str(n), str(r)]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{mode}_{n}_{r}.json").read_bytes()


def test_cli_prints_golden_supersaturation_bytes(capsys):
    argv = ["--guard", "8", "--format", "json", "scan", "supersat", "8", "2", "2", "0.05"]
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "supersat_8_2_2_0.05.json").read_bytes()
