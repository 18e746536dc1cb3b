"""Run the command line of two q8sculpt source trees on every row of the case
table (``tests/cli_cases.py``) and list each row whose exit code, stdout,
stderr or written files differ, or whose run from NEW breaks the row.

    python tests/same_outputs.py OLD NEW
    python tests/same_outputs.py --console-script OLD NEW

OLD and NEW are source-tree roots, each holding ``src/q8sculpt``: say a
``git archive`` of the parent commit and the working tree.  The inputs are
written once, with OLD's package.  Each row then runs as
``python -m q8sculpt ...`` with ``PYTHONPATH=<tree>/src``, once per tree, in
a fresh directory that reaches the inputs by the same relative path.  With
``--console-script``, NEW's rows run through the ``q8sculpt`` executable on
``PATH`` instead, without ``PYTHONPATH``, so that the installed console
script is compared with ``python -m q8sculpt``.  One line is printed per row
that differs or breaks its contract (``cli_cases.breaches``), naming what,
then the counts; the exit status is 1 when any line is printed.  Two rows
run at a time.
"""

from __future__ import annotations

import argparse
import os
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import cli_cases

WORKERS = 2
TIMEOUT_S = 300
# one BLAS thread in every case, so that both trees sum in the same order
SINGLE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def run_case(command: list[str], env: dict[str, str], cwd: Path, args: tuple[str, ...]) -> tuple:
    """Exit code (or "timeout"), stdout, stderr and the written files of one row."""
    cwd.mkdir(parents=True)
    try:
        done = subprocess.run([*command, *args], cwd=cwd, env=env, capture_output=True, timeout=TIMEOUT_S)
        code, out, err = done.returncode, done.stdout, done.stderr
    except subprocess.TimeoutExpired as exc:
        code, out, err = "timeout", exc.stdout or b"", exc.stderr or b""
    return code, out, err, cli_cases.written(cwd)


def differences(old: tuple, new: tuple) -> list[str]:
    (old_code, old_out, old_err, old_files), (new_code, new_out, new_err, new_files) = old, new
    found = [f"exit {old_code} -> {new_code}"] if old_code != new_code else []
    found += [name for name, a, b in (("stdout", old_out, new_out), ("stderr", old_err, new_err)) if a != b]
    for name in sorted(old_files.keys() | new_files.keys()):
        if name not in new_files:
            found.append(f"{name} only in OLD")
        elif name not in old_files:
            found.append(f"{name} only in NEW")
        elif old_files[name] != new_files[name]:
            found.append(name)
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="source-tree root of the reference")
    parser.add_argument("new", type=Path, help="source-tree root of the change")
    parser.add_argument(
        "--console-script", action="store_true", help="run NEW's rows through the q8sculpt executable on PATH"
    )
    args = parser.parse_args(argv)
    old_src = str(args.old.resolve() / "src")
    module = [sys.executable, "-m", "q8sculpt"]
    sides = {"old": (module, dict(os.environ, PYTHONPATH=old_src, **SINGLE_THREAD))}
    if args.console_script:
        env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
        sides["new"] = (["q8sculpt"], dict(env, **SINGLE_THREAD))
    else:
        sides["new"] = (module, dict(os.environ, PYTHONPATH=str(args.new.resolve() / "src"), **SINGLE_THREAD))
    sys.path.insert(0, old_src)
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        rows = cli_cases.write(Path(tmp) / "inputs")

        def compare(k: int) -> tuple[list[str], list[str]]:
            old, new = (run_case(*sides[side], Path(tmp) / side / f"{k:03d}", rows[k].argv) for side in sides)
            return differences(old, new), cli_cases.breaches(rows[k], new[0], new[2].decode(errors="replace"), new[3])

        with ThreadPoolExecutor(WORKERS) as pool:
            results = list(pool.map(compare, range(len(rows))))
    for row, found in zip(rows, results):
        for kind, what in zip(("differs", "breaks its row"), found):
            if what:
                print(f"q8sculpt {shlex.join(row.argv)}: {kind}: {'; '.join(what)}")
    differ, broken = (sum(1 for found in results if found[i]) for i in (0, 1))
    print(f"{len(rows)} rows: {differ} with a difference, {broken} breaking their row")
    return 1 if differ or broken else 0


if __name__ == "__main__":
    raise SystemExit(main())
