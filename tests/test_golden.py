"""Golden certificates: every max and min scan for 3 <= n <= 7, byte for byte.

The files under golden/ hold the certificate JSON of each exhaustive scan,
one file per (mode, n, r), with a trailing newline.  Any change to the
scans' arithmetic, filtering, dedup or serialization shows up here.
"""

from pathlib import Path

import pytest

from algconn.scan import verify_max_theorem, verify_min_theorem

GOLDEN = Path(__file__).parent / "golden"

CASES = [("max", n, r) for n in range(3, 8) for r in range(2, n)] + [
    ("min", n, r) for n in range(3, 8) for r in range(2, n + 1)
]


def test_every_case_has_a_golden_file():
    assert len(CASES) == 35
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(
        f"{mode}_{n}_{r}.json" for mode, n, r in CASES
    )


@pytest.mark.parametrize("mode,n,r", CASES)
def test_certificate_matches_golden_bytes(mode, n, r):
    verify = verify_max_theorem if mode == "max" else verify_min_theorem
    expected = (GOLDEN / f"{mode}_{n}_{r}.json").read_bytes()
    assert (verify(n, r).to_json() + "\n").encode() == expected
