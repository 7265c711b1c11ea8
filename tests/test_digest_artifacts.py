"""The byte-identity check of ``digest_artifacts.py``, on a hand-made tree.

The commands that fill the tree are stubbed out: they take about 30 s,
and what is tested here is the comparison of two listings.
"""

import digest_artifacts


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
