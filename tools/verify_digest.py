"""The sha256 of `crystal-lr verify all --seed 0` stdout, against the
checked-in value.

    python3 tools/verify_digest.py

Run from anywhere in a checkout.  It runs `python -m crystal_lr.cli verify
all --seed 0` with the checkout's src/ first on PYTHONPATH, prints the
sha256 of its stdout, and exits 1 when that differs from the digest in
tools/verify_all_seed0.sha256 or when the run does not exit 0.  A change
that means to alter that stdout updates the file with the golden diff that
shows the altered lines.  Takes no options; stdlib only.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().with_name("verify_all_seed0.sha256")


def main():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    proc = subprocess.run(
        [sys.executable, "-m", "crystal_lr.cli", "verify", "all", "--seed",
         "0"], env=env, stdout=subprocess.PIPE)
    digest = hashlib.sha256(proc.stdout).hexdigest()
    expected = EXPECTED.read_text().split()[0]
    print(digest)
    if proc.returncode != 0:
        print("verify all exited %d" % proc.returncode, file=sys.stderr)
        return 1
    if digest != expected:
        print("differs from %s: %s" % (EXPECTED.name, expected),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
