"""Output files are replaced whole or not at all."""

import pytest

from pqgen import corpus as C
from pqgen.fileio import atomic_write


class Interrupted(Exception):
    pass


@pytest.mark.parametrize("binary", [False, True])
def test_failed_write_keeps_the_previous_file_and_leaves_no_temp(tmp_path, binary):
    path = tmp_path / "out.bin"
    path.write_bytes(b"previous\n")
    with pytest.raises(Interrupted):
        with atomic_write(path, binary=binary) as fh:
            fh.write(b"partial" if binary else "partial")
            fh.flush()
            raise Interrupted
    assert path.read_bytes() == b"previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_finished_write_replaces_the_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("previous\n")
    with atomic_write(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_corpus_save_interrupted_mid_write_keeps_the_old_corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    records = C.synth_corpus(seed=0, n_products=4)
    C.save_jsonl(records, path)
    before = path.read_bytes()

    def failing():
        yield from C.synth_corpus(seed=1, n_products=2)
        raise Interrupted

    with pytest.raises(Interrupted):
        C.save_jsonl(failing(), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]
