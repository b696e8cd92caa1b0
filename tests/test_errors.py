"""The one writer of outputs, ``errors.write_text``."""

import os
import stat
import threading

import pytest

from crosslex.errors import (
    DimensionError,
    FormatError,
    InsufficientDataError,
    in_file,
    write_text,
)


def _leftovers(directory):
    return sorted(p.name for p in directory.iterdir() if ".tmp." in p.name)


def test_symlink_target_is_replaced_and_link_kept(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    write_text(link, ["new", "\n"])
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == "new\n"
    assert _leftovers(tmp_path) == []


def test_fifo_is_written_in_place(tmp_path):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    write_text(fifo, (f"line {i}\n" for i in range(3)))
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == [b"line 0\nline 1\nline 2\n"]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


def test_failed_write_keeps_old_file_and_removes_temporary(tmp_path):
    out = tmp_path / "out.txt"
    out.write_text("old\n")
    os.chmod(out, 0o640)

    def chunks():
        yield "partial\n"
        raise RuntimeError("producer failed")

    with pytest.raises(RuntimeError, match="producer failed"):
        write_text(out, chunks())
    assert out.read_text() == "old\n"
    assert stat.S_IMODE(os.stat(out).st_mode) == 0o640
    assert _leftovers(tmp_path) == []


def test_rewrite_keeps_permission_bits(tmp_path):
    out = tmp_path / "out.txt"
    out.write_text("old\n")
    os.chmod(out, 0o600)
    write_text(out, ["new\n"])
    assert out.read_text() == "new\n"
    assert stat.S_IMODE(os.stat(out).st_mode) == 0o600


def test_none_writes_stdout_and_no_directory_is_made(tmp_path, capsys):
    write_text(None, ["a\n", "b\n"])
    assert capsys.readouterr().out == "a\nb\n"
    with pytest.raises(FileNotFoundError):
        write_text(tmp_path / "missing" / "out.txt", ["a\n"])
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("error,named", [
    (FormatError("bad row", 3), True),
    (InsufficientDataError("empty corpus"), True),
    (DimensionError("the es map takes 5 dimensions"), False),
])
def test_in_file_names_errors_about_the_files_content(error, named):
    with pytest.raises(type(error)) as caught:
        with in_file("data.tsv"):
            raise error
    assert str(caught.value).startswith("data.tsv: ") == named
