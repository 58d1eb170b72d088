"""tools/verify_digest.py: the checked-in digest and the exit code it
gives, on stubbed runs of `verify all` (the real run takes seconds)."""

import hashlib
import importlib.util
import os
import pathlib
import re
import subprocess

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / \
    "verify_digest.py"
_spec = importlib.util.spec_from_file_location("verify_digest", _PATH)
verify_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(verify_digest)


def test_checked_in_digest_is_one_sha256():
    text = verify_digest.EXPECTED.read_text()
    assert re.fullmatch(r"[0-9a-f]{64}\n", text)


@pytest.mark.parametrize("stdout, returncode, code", [
    (b"the recorded stdout\n", 0, 0),
    (b"the recorded stdout, changed\n", 0, 1),
    (b"the recorded stdout\n", 1, 1),
])
def test_exit_code(monkeypatch, tmp_path, capsys, stdout, returncode, code):
    expected = tmp_path / "digest.sha256"
    expected.write_text(hashlib.sha256(b"the recorded stdout\n").hexdigest()
                        + "\n")
    seen = []

    def run(argv, **kwargs):
        seen.append((argv, kwargs["env"]["PYTHONPATH"]))
        return subprocess.CompletedProcess(argv, returncode, stdout=stdout)

    monkeypatch.setattr(verify_digest, "EXPECTED", expected)
    monkeypatch.setattr(verify_digest.subprocess, "run", run)
    assert verify_digest.main() == code
    printed = capsys.readouterr().out
    assert printed == hashlib.sha256(stdout).hexdigest() + "\n"
    (argv, path), = seen
    assert argv[1:] == ["-m", "crystal_lr.cli", "verify", "all", "--seed",
                        "0"]
    assert path.split(os.pathsep)[0] == str(verify_digest.ROOT / "src")
