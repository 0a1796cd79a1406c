"""The command line's bytes on the shipped corpus, pinned by digest.

The same commands as the CI byte-determinism step: every shipped corpus
document through each output variant of its command, and the corpus run
itself; the GENERATE commands and the corpus run once more with the shipped
table given as ``--slot-table``.  They run in-process through
:func:`wortfolge.cli.main`, and the sha256 of each ``[exit code, stdout,
stderr]`` must equal the digest recorded in ``cli_bytes.json``.

Only an intended change of output may re-record the digests:
``PYTHONPATH=src python -m tests.test_cli_bytes`` rewrites the file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from importlib import resources
from pathlib import Path

from wortfolge.cli import LEXICON_ENV, main

DIGESTS = Path(__file__).resolve().parent / "cli_bytes.json"
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


if __name__ == "__main__":
    os.environ.pop(LEXICON_ENV, None)
    with tempfile.TemporaryDirectory() as tmp:
        DIGESTS.write_text(json.dumps(_digests(Path(tmp)), indent=1) + "\n", encoding="utf-8")
