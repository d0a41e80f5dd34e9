"""The installed entry point, ``python -m lbpstego``, run in a child process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from lbpstego.cli import EXIT_FORMAT, EXIT_IO, EXIT_OK, main

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


def _close_stderr(fd2):
    """A ``preexec_fn`` that closes fd 2, then with ``fd2="read-only"`` opens the
    null device read-only in its place, as a launcher that opens a file on the
    freed fd 2 leaves it (``2>&-`` through a shell-script shim)."""

    def close():
        os.close(2)
        if fd2 == "read-only":
            os.open(os.devnull, os.O_RDONLY)

    return close


@pytest.mark.parametrize("fd2", ["closed", "read-only"])
@pytest.mark.parametrize("command, code", [("rs", EXIT_IO), ("pdh", EXIT_FORMAT)])
def test_a_closed_stderr_keeps_the_exit_code(tmp_path, command, code, fd2):
    """With stderr closed (``2>&-``) the error line is lost, but the command
    still exits with its documented code and prints nothing else."""
    image = tmp_path / "image.pgm"
    if code == EXIT_FORMAT:
        image.write_bytes(b"P2\n1 1\n255\n0\n")
    done = lbpstego(command, "--image", image, preexec_fn=_close_stderr(fd2), timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (code, "", "")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["corpus", "--out-dir", str(out), "--count", "2", "--size", "32"]) == EXIT_OK
    return out


@pytest.mark.parametrize("stdout", ["buffered", "unbuffered", "closed-at-start"])
@pytest.mark.parametrize("command", ["compare", "metrics", "rs", "pdh"])
def test_a_closed_stdout_ends_a_command_quietly(tmp_path, corpus, command, stdout):
    """A reader that is gone before the command prints, as after ``| head -c 1``,
    is no fault: the CSV is written whole and the command exits 0 with nothing
    on stderr, whether its prints meet the closed pipe at once or at the last
    flush. So is a stdout closed before the interpreter starts (``>&-``)."""
    covers = corpus / "covers"
    argv = {
        "compare": ["compare", "--cover-dir", covers, "--payload", corpus / "payload.pgm"],
        "metrics": ["metrics", "--a", covers / "cover00.pgm", "--b", covers / "cover01.pgm"],
        "rs": ["rs", "--image", covers / "cover00.pgm"],
        "pdh": ["pdh", "--image", covers / "cover00.pgm"],
    }[command]
    assert main([*map(str, argv), "--csv", str(tmp_path / "normal.csv")]) == EXIT_OK
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    r, w = os.pipe()
    os.close(r)
    try:
        done = subprocess.run(
            [sys.executable, *(["-u"] if stdout == "unbuffered" else []), "-m", "lbpstego", *map(str, argv),
             "--csv", str(tmp_path / "closed.csv")],
            env={**env, "PYTHONPATH": str(SRC)}, stdout=w, stderr=subprocess.PIPE, text=True, timeout=120,
            preexec_fn=(lambda: os.close(1)) if stdout == "closed-at-start" else None,
        )
    finally:
        os.close(w)
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    assert (tmp_path / "closed.csv").read_bytes() == (tmp_path / "normal.csv").read_bytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("kind", ["fifo", "directory"])
def test_compare_refuses_a_cover_that_is_not_a_regular_file(tmp_path, corpus, kind):
    """A FIFO among the covers is refused on the header pass, not opened: with
    no writer the open would block for good. A directory gets the same refusal."""
    covers = tmp_path / "covers"
    covers.mkdir()
    (covers / "a.pgm").write_bytes((corpus / "covers" / "cover00.pgm").read_bytes())
    odd = covers / "b.pgm"
    if kind == "fifo":
        os.mkfifo(odd)
    else:
        odd.mkdir()
    out = tmp_path / "sweep.csv"
    done = lbpstego(
        "compare", "--cover-dir", covers, "--payload", corpus / "payload.pgm", "--csv", out, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (EXIT_IO, "", f"error: {odd}: not a regular file\n")
    assert not out.exists()
