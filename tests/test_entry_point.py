"""The installed entry point, ``python -m lbpstego``, run in a child process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from lbpstego.cli import EXIT_FORMAT, EXIT_OK

SRC = Path(__file__).resolve().parents[1] / "src"


def lbpstego(*argv, memory_cap=None, **kwargs) -> subprocess.CompletedProcess:
    """Run ``python -m lbpstego argv`` in a child; with ``memory_cap`` the
    child first caps its own address space at that many bytes and then runs
    the same ``__main__`` module through ``runpy``, as ``-m`` does."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = ["-m", "lbpstego"]
    if memory_cap is not None:
        start = ["-c", (
            "import resource, runpy; "
            f"resource.setrlimit(resource.RLIMIT_AS, ({memory_cap}, {memory_cap})); "
            "runpy.run_module('lbpstego', run_name='__main__', alter_sys=True)"
        )]
    return subprocess.run(
        [sys.executable, *start, *map(str, argv)], env=env, capture_output=True, text=True, **kwargs
    )


def test_corpus_embed_extract_round_trip(tmp_path):
    corpus = tmp_path / "corpus"
    done = lbpstego("corpus", "--out-dir", corpus, "--count", "1", "--size", "64")
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    cover, payload = corpus / "covers" / "cover00.pgm", corpus / "payload.pgm"
    stego, back = tmp_path / "stego.pgm", tmp_path / "back.pgm"
    done = lbpstego("embed", "--cover", cover, "--payload", payload, "--out", stego, "--mu", "4")
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    done = lbpstego("extract", "--stego", stego, "--out", back, "--mu", "4")
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    assert back.read_bytes() == payload.read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_endless_device_is_refused_after_its_header_scan():
    """/dev/zero has no end: only the header's first bytes are read, and the
    bad magic is refused. The 1 GiB address-space cap keeps a reader that
    reads on from taking the host's memory."""
    done = lbpstego("capacity", "--cover", "/dev/zero", memory_cap=1 << 30, timeout=60)
    assert (done.returncode, done.stderr[:37]) == (EXIT_FORMAT, "error: not a binary PGM stream (magic")
