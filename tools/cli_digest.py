"""One digest line per CLI command, to compare the output bytes of two checkouts.

Runs `wpkernel.cli.main` in process, each command in a fresh temporary
directory, on the commands of the README's CLI block and on the family x mode
matrix of `kernel`, `ward` and `expand`.  A line holds the sha256 of the
command's output (its stdout, its stderr and every file it wrote, with
`validate`'s per-criterion `elapsed_s` dropped), its exit code and the command.
With the wpkernel of a checkout on the path:

    PYTHONPATH=<checkout>/src python tools/cli_digest.py > digest.txt

two checkouts whose CLI output is byte-identical print the same lines, so
`diff` of their digests names each command whose output moved.  Standard
library only, beside wpkernel itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import tempfile
from pathlib import Path

from wpkernel.cli import main

# the `classify` input: a grid about the unit disc and the saddle at 1, -0.0 and 1e300
POINTS = "\n".join(["re,im", "# cli_digest points"]
                   + [f"{x / 4},{y / 4}" for x in range(-10, 11) for y in range(-10, 11)]
                   + ["1,0", "-0.0,0.5", "1e300,0", ""])


def readme_commands() -> list:
    """The commands of the README's CLI block, without the program name."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.strip()]


FAMILIES = ["--potential ginibre", "--potential elliptic --a 1 --b 3",
            "--potential radial --profile quartic"]

MATRIX = [command.split() for command in (
    [f"kernel {family} --n 40 --z 1.4,0.2 --w 1.3,0 --mode {mode}"
     for family in FAMILIES for mode in ("asymptotic", "tail", "oracle", "all")]
    + [f"ward {family} --n 40 --z 1.5,0 0.5,0 0.3,0.2" for family in FAMILIES]
    + [f"expand --nlist 100 400 1600 --z 1.5,0.3 --w 1.2,-0.1 --k {k}" for k in range(7)]
)]


def _file_bytes(path: Path) -> bytes:
    """The file's bytes; a `validate` report without its per-criterion `elapsed_s`."""
    data = path.read_bytes()
    if path.suffix == ".json" and b'"elapsed_s"' in data:
        report = json.loads(data)
        for criterion in report["criteria"]:
            del criterion["elapsed_s"]
        data = json.dumps(report, indent=2, sort_keys=True).encode()
    return data


def digest(argv: list) -> str:
    """`<sha256> <exit code> <command>` for one command run in a fresh directory."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "pts.csv").write_text(POINTS)
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
        finally:
            os.chdir(cwd)
        sha = hashlib.sha256()
        for part in (out.getvalue(), err.getvalue()):
            sha.update(f"{len(part)}\n{part}".encode())
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file() and path.name != "pts.csv":
                data = _file_bytes(path)
                sha.update(f"{path.relative_to(tmp).as_posix()}\n{len(data)}\n".encode() + data)
    return f"{sha.hexdigest()} {code} {' '.join(argv)}"


if __name__ == "__main__":
    for argv in readme_commands() + MATRIX:
        print(digest(argv), flush=True)
