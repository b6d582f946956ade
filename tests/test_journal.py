"""The shared crash-recovery journal: both journal kinds refuse the same
unsafe reuses, because both are one :class:`repro.api.journal.Journal`.

- an entry copied in from another spec's journal is refused on read;
- a non-empty directory without ``meta.json`` is never adopted;
- a journal holding completed work is only reopened with ``resume``.
"""

import shutil
from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro import api
from repro.api.journal import atomic_write
from repro.api.parallel import ShardOutcome, SweepJournal, TrialShard
from repro.serve import ServeJournal, ServeSpec, TrialOutcome, WindowStats

SHARD = TrialShard(scenario_index=0, policy_index=0, trial_start=0, trial_stop=1)


def _experiment(seed: int) -> api.ExperimentSpec:
    return api.ExperimentSpec.compare(
        "journal-test",
        api.ScenarioSpec(kind="paper", params={"size": 8, "num_jobs": 2}),
        ["fairshare"],
        seed=seed,
        simulator="flow",
    )


@dataclass(frozen=True)
class Kind:
    """How one journal kind is built, opened, written and read."""

    make: Callable[[Any, int], Any]
    open: Callable[[Any, bool], Any]
    write: Callable[[Any], None]
    read: Callable[[Any], dict]


KINDS = {
    "sweep": Kind(
        make=lambda path, seed: SweepJournal(path, _experiment(seed)),
        open=lambda journal, resume: journal.open(resume, trials_per_shard=1),
        write=lambda journal: journal.record(
            ShardOutcome(shard=SHARD, scenario_name="s", policy_label="p", stats=None)
        ),
        read=lambda journal: journal.load_completed([SHARD]),
    ),
    "serve": Kind(
        make=lambda path, seed: ServeJournal(
            path, ServeSpec(experiment=_experiment(seed))
        ),
        open=lambda journal, resume: journal.open(resume),
        write=lambda journal: journal.record_trial(
            TrialOutcome(0, 0, 0, "s", "p", None, [], WindowStats())
        ),
        read=lambda journal: journal.load_trials(),
    ),
}


@pytest.fixture(params=sorted(KINDS))
def kind(request) -> Kind:
    return KINDS[request.param]


def test_roundtrip(kind, tmp_path):
    journal = kind.make(tmp_path / "j", 0)
    kind.open(journal, False)
    assert kind.read(journal) == {}
    kind.write(journal)
    reopened = kind.make(tmp_path / "j", 0)
    kind.open(reopened, True)
    assert len(kind.read(reopened)) == 1
    assert not list((tmp_path / "j").glob("*.tmp"))


def test_foreign_spec_entry_refused(kind, tmp_path):
    ours = kind.make(tmp_path / "ours", 0)
    kind.open(ours, False)
    theirs = kind.make(tmp_path / "theirs", 1)
    kind.open(theirs, False)
    kind.write(theirs)
    # Smuggle the other spec's entry in under our meta.json.
    for entry in (tmp_path / "theirs").glob(type(theirs).entry_glob):
        shutil.copy(entry, tmp_path / "ours" / entry.name)
    with pytest.raises(ValueError, match="different spec"):
        kind.read(ours)
    # The whole foreign journal is refused at open, too.
    with pytest.raises(ValueError, match="different spec"):
        kind.open(kind.make(tmp_path / "theirs", 0), True)


def test_foreign_nonempty_directory_refused(kind, tmp_path):
    path = tmp_path / "precious"
    path.mkdir()
    (path / "data.txt").write_text("not a journal")
    with pytest.raises(ValueError, match="refusing to adopt"):
        kind.open(kind.make(path, 0), True)
    assert (path / "data.txt").read_text() == "not a journal"


def test_dirty_journal_needs_resume(kind, tmp_path):
    journal = kind.make(tmp_path / "j", 0)
    kind.open(journal, False)
    kind.write(journal)
    with pytest.raises(ValueError, match="resume"):
        kind.open(kind.make(tmp_path / "j", 0), False)
    kind.open(kind.make(tmp_path / "j", 0), True)


def test_atomic_write_leaves_no_temp_on_failure(tmp_path, monkeypatch):
    target = tmp_path / "file.bin"
    atomic_write(target, b"old")

    def broken_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("repro.api.journal.os.replace", broken_replace)
    with pytest.raises(OSError, match="disk full"):
        atomic_write(target, b"new")
    assert target.read_bytes() == b"old"
    assert list(tmp_path.iterdir()) == [target]
