"""The command line's bytes on the shipped corpus, pinned by digest.

The same commands as the CI byte-determinism step: every shipped corpus
document through each output variant of its command, and the corpus run
itself; the GENERATE commands and the corpus run once more with the shipped
table given as ``--slot-table``.  They run in-process through
:func:`wortfolge.cli.main`, and the sha256 of each ``[exit code, stdout,
stderr]`` must equal the digest recorded in ``cli_bytes.json``.

``PYTHONPATH=src:. python -m tests.test_cli_bytes`` runs the same commands
as fresh processes under ``PYTHONHASHSEED`` 0 and 1, which CI does on every
Python it tests, and asserts the same digests.  Only an intended change of
output may re-record them: ``--record`` rewrites the file from in-process
runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

from wortfolge.cli import LEXICON_ENV, main

DIGESTS = Path(__file__).resolve().parent / "cli_bytes.json"
SRC = DIGESTS.parents[1] / "src"
DATA = resources.files("wortfolge.data")

#: Per mode: the command's file flag and the flag sets each document runs with.
COMMANDS = {
    "GENERATE": ("--clause", [[], ["--pretty"], ["--all-variants"], ["--all-variants", "--pretty"]]),
    "ANALYZE": ("--observed", [[], ["--pretty"]]),
    "DISAMBIGUATE": ("--candidates", [[], ["--pretty"]]),
}


def _commands(tmp: Path) -> dict[str, list[str]]:
    """Each command by its label: its arguments with the document path shown as the case id."""
    corpus_file = str(DATA.joinpath("corpus.json"))
    table_file = ["--slot-table", str(DATA.joinpath("slot_table.tsv"))]
    commands = {}
    for case in json.loads(Path(corpus_file).read_text(encoding="utf-8"))["cases"]:
        doc = case["doc"]
        path = tmp / f"{case['case_id']}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        flag, variants = COMMANDS[doc["mode"]]
        for extra in variants:
            commands[" ".join([doc["mode"].lower(), flag, case["case_id"], *extra])] = [
                doc["mode"].lower(), flag, str(path), *extra
            ]
    commands["corpus run"] = ["corpus", "run", corpus_file]
    for label, args in list(commands.items()):
        if args[0] in ("generate", "corpus"):
            commands[f"--slot-table {label}"] = table_file + args
    return commands


def _digest(args: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode("utf-8")).hexdigest()


def _digests(tmp: Path) -> dict[str, str]:
    return {label: _digest(args) for label, args in _commands(tmp).items()}


def test_cli_bytes_on_the_shipped_corpus_are_unchanged(tmp_path, monkeypatch):
    monkeypatch.delenv(LEXICON_ENV, raising=False)
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = _digests(tmp_path)
    assert len(actual) == 75 + 33
    assert actual.keys() == recorded.keys()
    assert [label for label in actual if actual[label] != recorded[label]] == []


def _check_fresh_processes():
    """Each command as a fresh process under two hash seeds must match its
    recorded digest, and each ``--slot-table`` command that without the flag."""
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    env = {key: value for key, value in os.environ.items() if key != LEXICON_ENV}
    env.update(PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")

    def digest(args, seed):
        p = subprocess.run([sys.executable, "-m", "wortfolge.cli", *args],
                           env=dict(env, PYTHONHASHSEED=seed), capture_output=True)
        seen = [p.returncode, p.stdout.decode("utf-8"), p.stderr.decode("utf-8")]
        return hashlib.sha256(json.dumps(seen).encode("utf-8")).hexdigest()

    with tempfile.TemporaryDirectory() as tmp:
        commands = _commands(Path(tmp))
        assert commands.keys() == recorded.keys(), sorted(commands.keys() ^ recorded.keys())
        for label, args in commands.items():
            for seed in ("0", "1"):
                assert digest(args, seed) == recorded[label], (label, seed)
    tabled = [label for label in recorded if label.startswith("--slot-table ")]
    for label in tabled:
        assert recorded[label] == recorded[label.removeprefix("--slot-table ")], label
    print(f"{len(recorded)} commands match their recorded digests under PYTHONHASHSEED=0 and 1; "
          f"{len(tabled)} of them give --slot-table and match the command without it")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        os.environ.pop(LEXICON_ENV, None)
        with tempfile.TemporaryDirectory() as tmp:
            DIGESTS.write_text(json.dumps(_digests(Path(tmp)), indent=1) + "\n", encoding="utf-8")
    else:
        _check_fresh_processes()
