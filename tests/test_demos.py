"""The demos' output, byte for byte: each runs as a `-W error` process,
through `test_startup.importtime_process`, and its stdout must hash to
the value recorded here.

A change that alters a demo's output on purpose records the new hash."""

import hashlib
from pathlib import Path

import pytest

from test_startup import importtime_process

ROOT = Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "01_partitions_and_staircases.py": "1a5665c72b858215ca7b5f4a49bdb61f1e501de2c168b220ea51e6f36ae147b6",
    "02_betti_numbers.py": "08736bbc90eaf84d53e2a536056d9cd615118e4fff9d8bcc9306b787902b7abd",
    "03_incidence_and_strata.py": "d4678850119544a358135af5dd5701d3c72bf4478914a03d1af969c72b8c08d6",
    "04_nakajima_recurrence.py": "6b76ed21a1fda1ffacdd50f676cbd026d54285edc32aff5d274feea1bf2c499a",
    "05_goettsche_fock.py": "9852585aadca5cf981ba9453076aa1b1dd97a197b3a85b9b064efb1457acd1cf",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_output_is_byte_identical(demo):
    code, out, rest, _ = importtime_process(str(ROOT / "demos" / demo))
    assert (code, rest) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[demo]
