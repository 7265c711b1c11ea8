"""The byte-identity check of ``digest_artifacts.py``.

The comparison of two listings is tested on a hand-made tree, with the
commands that fill it stubbed out: they take about 35 s. The last test
regenerates the cheap subset of the committed listing ``tests/digest.txt``
and compares it line by line.
"""

import os
import subprocess
import sys

import digest_artifacts
from csmoe import cli


def _tree(root, files):
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def test_check_passes_on_the_listing_it_printed(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(digest_artifacts, "write_artifacts", lambda work: None)
    work = tmp_path / "work"
    _tree(work, {"a.json": b"{}", "run/b.bin": b"\x00" * 8})
    assert digest_artifacts.main([str(work)]) == 0
    saved = tmp_path / "listing.txt"
    saved.write_text(capsys.readouterr().out)
    assert len(saved.read_text().splitlines()) == 2
    assert digest_artifacts.main([str(work), "--check", str(saved)]) == 0
    assert "2 files match" in capsys.readouterr().out


def test_check_names_each_differing_missing_and_extra_path(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(digest_artifacts, "write_artifacts", lambda work: None)
    work = tmp_path / "work"
    _tree(work, {"same": b"1", "changed": b"2", "gone": b"3"})
    saved = tmp_path / "listing.txt"
    saved.write_text("".join(f"{d}  {p}\n" for p, d in digest_artifacts.listing(work).items()))
    _tree(work, {"changed": b"2 ", "new/file": b"4"})
    (work / "gone").unlink()
    assert digest_artifacts.main([str(work), "--check", str(saved)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs  changed", "missing  gone", "extra    new/file"]


def test_committed_digest_subset_regenerates_byte_for_byte(tmp_path, monkeypatch):
    # grad-check seed 0 and the default config's full run, about 2.5 s
    children = []

    def run(work, *args):
        if args[0] == "grad-check":  # a child process, overlapping the commands after it
            children.append(subprocess.Popen(
                [sys.executable, "-m", "csmoe.cli", *args], cwd=work, stdout=subprocess.DEVNULL,
                env={**os.environ, "PYTHONPATH": str(digest_artifacts.SRC)}))
        else:
            assert cli.main(list(args)) == 0, args

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(digest_artifacts, "run", run)
    try:
        digest_artifacts.write_subset(tmp_path)
    finally:
        assert [child.wait() for child in children] == [0]
    header, committed = digest_artifacts.read_listing(digest_artifacts.DIGEST)
    want = {p: d for p, d in committed.items() if p.startswith(digest_artifacts.SUBSET)}
    lines = digest_artifacts.differences(digest_artifacts.listing(tmp_path), want)
    here = digest_artifacts.fingerprint()
    assert not lines, "\n".join([
        *lines, f"{len(lines)} of {len(want)} subset files disagree with {digest_artifacts.DIGEST}",
        "same numpy and BLAS as the listing: the change moved these bytes" if header == here else
        f"the listing was written under {header} but this run uses {here}: a different BLAS "
        "may move the last bits, so regenerate the listing here before judging the change"])
