"""The atomic writer, and the four savers that replace their files through it."""

import pytest

from sdag.curation import read_records, write_records
from sdag.fileio import atomic_writer
from sdag.orchestrator import ExecutionTrace
from sdag.profiling import ModelProfile, ProfileStore, load_profiles, save_profiles
from sdag.router.checkpoint import load_checkpoint, save_checkpoint
from sdag.router.model import RouterDims, init_params
from sdag.subjects import QuestionRecord, Subject


def test_clean_write_replaces_the_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n", encoding="utf-8")
    with atomic_writer(path) as f:
        f.write("new é\n")
    assert path.read_bytes() == "new é\n".encode("utf-8")
    assert list(tmp_path.iterdir()) == [path]


def test_write_that_raises_midway_keeps_previous_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(RuntimeError, match="midway"):
        with atomic_writer(path) as f:
            f.write("half of the new ")
            f.flush()
            raise RuntimeError("midway")
    assert path.read_bytes() == b"old\n"
    assert list(tmp_path.iterdir()) == [path]


def _records():
    return [QuestionRecord(id="q1", question="Why does ice float? — é", options=["a", "b"],
                           gold="A")]


def _profiles():
    return ProfileStore(profiles={"m": ModelProfile.from_raw("m", {Subject.MATH: 0.5})})


def _trace():
    return ExecutionTrace(mode="sdag", records=[], final_answer="A", final_subject="Math",
                          llm_calls=0, wall_time=0.0, simulated=True)


# Each saver, and a reader of what it wrote where there is one.
SAVERS = {
    "records": (lambda p: write_records(_records(), p), read_records),
    "profiles": (lambda p: save_profiles(_profiles(), p), load_profiles),
    "trace": (lambda p: _trace().write(p), None),
    "checkpoint": (lambda p: save_checkpoint(init_params(RouterDims(4, 4, 4, 1)), p),
                   load_checkpoint),
}


@pytest.mark.parametrize("kind", sorted(SAVERS))
def test_saver_replaces_through_a_temporary_file(tmp_path, kind):
    save, load = SAVERS[kind]
    path = tmp_path / "out"
    path.write_text("previous", encoding="utf-8")
    save(path)
    assert list(tmp_path.iterdir()) == [path]
    if load is not None:
        load(path)
    # A target that cannot be replaced fails after the write; no temporary
    # file is left behind.
    blocked = tmp_path / "blocked"
    (blocked / "inside").mkdir(parents=True)
    with pytest.raises(OSError):
        save(blocked)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocked", "out"]
