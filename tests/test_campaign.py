import io
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqsearch.arith import PrimePair, is_prime
from sqsearch.campaign import SweepSpec, load_checkpoint, main, primes_in_range, sweep
from sqsearch.checkpoint import (
    CheckpointError,
    dec15,
    error_record,
    iter_records,
    record_from_report,
)
from sqsearch.search import search_pair

SCHEMA_KEYS = {"v", "p", "q", "status", "final_bound", "b1", "pair_count",
               "triple_candidates", "triples", "quad_candidates",
               "quadruples"}


def test_primes_in_range_small():
    assert primes_in_range(2, 30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_in_range(3, 10) == [3, 5, 7]
    assert primes_in_range(20, 22) == []
    assert primes_in_range(10, 2) == []


def test_primes_in_range_segmented():
    got = primes_in_range(9990, 10050)
    assert got == [10007, 10009, 10037, 10039]
    assert len(primes_in_range(2, 10 ** 4)) == 1229


@given(st.integers(min_value=0, max_value=3000), st.integers(min_value=0, max_value=60))
@settings(max_examples=200, deadline=None)
def test_primes_in_range_matches_is_prime_across_segments(lo, span):
    hi = lo + span
    assert primes_in_range(lo, hi, segment=7) == [n for n in range(lo, hi + 1) if is_prime(n)]


def test_dec15_formatting():
    from fractions import Fraction
    assert dec15(Fraction(1, 3)).startswith("0.3333333333333")
    assert dec15(Fraction(16, 10) * 10 ** 30) == "1.60000000000000E+30"


def test_record_schema_field_names():
    report = search_pair(PrimePair.of(2, 3))
    rec = record_from_report(report)
    assert set(rec.keys()) == SCHEMA_KEYS
    assert rec["v"] == 1
    assert rec["status"] == "done"
    assert rec["triples"] == [[1, 3, 5], [1, 5, 7], [1, 7, 23], [1, 15, 17], [1, 31, 47]]
    assert rec["quadruples"] == []


def test_sweep_singleton_matches_search_pair(tmp_path):
    ck = tmp_path / "single.jsonl"
    spec = SweepSpec(mode="fixed-p", p_fixed=2, q_min=3, q_max=3,
                     workers=1, checkpoint_path=ck)
    summary = sweep(spec)
    assert summary.pairs_total == 1 and summary.pairs_processed == 1
    rec = load_checkpoint(ck)[(2, 3)]
    direct = record_from_report(search_pair(PrimePair.of(2, 3)))
    assert rec == direct


def test_sweep_q_to_100(tmp_path):
    ck = tmp_path / "sw100.jsonl"
    spec = SweepSpec(mode="fixed-p", p_fixed=2, q_min=3, q_max=100,
                     workers=1, checkpoint_path=ck)
    summary = sweep(spec)
    assert summary.pairs_total == 24
    assert summary.pairs_processed == 24
    assert summary.quadruples_found == 0


def test_sweep_resume_is_idempotent(tmp_path):
    ck = tmp_path / "resume.jsonl"
    spec = SweepSpec(mode="fixed-p", p_fixed=2, q_min=3, q_max=30,
                     workers=1, checkpoint_path=ck)
    first = sweep(spec)
    again = sweep(spec)
    assert again.pairs_processed == 0
    assert again.pairs_skipped == first.pairs_total


def test_sweep_kill_and_resume(tmp_path):
    full = tmp_path / "full.jsonl"
    broken = tmp_path / "broken.jsonl"
    base = dict(mode="fixed-p", p_fixed=2, q_min=3, q_max=60, workers=1)
    sweep(SweepSpec(**base, checkpoint_path=full))
    sweep(SweepSpec(**base, checkpoint_path=broken, max_pairs=5))
    resumed = sweep(SweepSpec(**base, checkpoint_path=broken))
    assert resumed.pairs_skipped == 5
    assert load_checkpoint(full) == load_checkpoint(broken)


WORKER_RANGE = dict(mode="fixed-p", p_fixed=2, q_min=3, q_max=40)  # 11 pairs
ALL_PAIRS_RANGE = dict(mode="all-pairs", q_min=3, q_max=60)  # 16 odd primes, 120 pairs


@pytest.fixture(scope="module")
def serial_records(tmp_path_factory):
    ck = tmp_path_factory.mktemp("serial") / "w1.jsonl"
    sweep(SweepSpec(**WORKER_RANGE, workers=1, checkpoint_path=ck))
    return load_checkpoint(ck)


def test_sweep_worker_count_independence(tmp_path, serial_records):
    for workers in (1, 2, 3, 8):
        many = tmp_path / f"w{workers}.jsonl"
        summary = sweep(SweepSpec(**WORKER_RANGE, workers=workers, checkpoint_path=many))
        assert summary.pairs_processed == 11 and summary.errors == 0
        assert load_checkpoint(many) == serial_records, workers
        assert multiprocessing.active_children() == []
    # Over all pairs, the sorted lines are equal byte for byte.
    lines = {}
    for workers in (1, 2, 3):
        ck = tmp_path / f"a{workers}.jsonl"
        summary = sweep(SweepSpec(**ALL_PAIRS_RANGE, workers=workers, checkpoint_path=ck))
        assert summary.pairs_processed == 120 and summary.errors == 0
        lines[workers] = sorted(ck.read_bytes().splitlines())
        assert lines[workers] == lines[1], workers
        assert multiprocessing.active_children() == []


def test_sweep_max_pairs_then_resume_on_workers(tmp_path, serial_records):
    # A capped forked leg writes exactly the first pairs of the list; a
    # forked resume at another worker count cuts a torn tail and completes
    # the serial set, one line per pair.
    ck = tmp_path / "capped.jsonl"
    capped = sweep(SweepSpec(**WORKER_RANGE, workers=3, checkpoint_path=ck, max_pairs=7))
    assert capped.pairs_total == 7 and capped.pairs_processed == 7
    assert sorted(load_checkpoint(ck)) == sorted(serial_records)[:7]
    with open(ck, "ab") as fh:
        fh.write(b'{"p": 2, "q": 3')
    resumed = sweep(SweepSpec(**WORKER_RANGE, workers=2, checkpoint_path=ck))
    assert resumed.pairs_skipped == 7 and resumed.pairs_processed == 4
    assert load_checkpoint(ck) == serial_records
    assert ck.read_bytes().count(b"\n") == 11 and ck.read_bytes().endswith(b"\n")


def test_sweep_own_process_runs_the_first_stride(tmp_path, monkeypatch, serial_records):
    # Forked workers append to their own copies of `ran`, so it holds only
    # the pairs that this process ran: stride 0 of the pending list, in order.
    import sqsearch.campaign as campaign
    ran, real_run = [], campaign._run_pair

    def logged(task):
        ran.append(task)
        return real_run(task)

    monkeypatch.setattr(campaign, "_run_pair", logged)
    pending = [(2, q) for q in primes_in_range(3, 40)]
    for workers, own in ((1, pending), (2, pending[0::2]), (3, pending[0::3])):
        ran.clear()
        ck = tmp_path / f"own{workers}.jsonl"
        sweep(SweepSpec(**WORKER_RANGE, workers=workers, checkpoint_path=ck))
        assert ran == own, workers
        assert load_checkpoint(ck) == serial_records, workers
        assert multiprocessing.active_children() == []


@pytest.fixture
def started(monkeypatch):
    # Every process a sweep starts, in start order.
    procs = []
    real_start = multiprocessing.process.BaseProcess.start

    def counting_start(self):
        procs.append(self)
        real_start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
    return procs


def test_sweep_starts_no_more_workers_than_pairs(tmp_path, started):
    # Three pairs at workers = 8 make three strides: this process runs the
    # first, and two forked workers the other two.
    spec = SweepSpec(mode="fixed-p", p_fixed=2, q_min=3, q_max=7, workers=8,
                     checkpoint_path=tmp_path / "three.jsonl")
    assert sweep(spec).pairs_processed == 3
    assert len(started) == 2
    assert multiprocessing.active_children() == []


def test_sweep_resume_with_nothing_left_starts_no_worker(tmp_path, started):
    ck = tmp_path / "complete.jsonl"
    sweep(SweepSpec(**WORKER_RANGE, workers=1, checkpoint_path=ck))
    again = sweep(SweepSpec(**WORKER_RANGE, workers=3, checkpoint_path=ck))
    assert len(started) == 0
    assert again.pairs_processed == 0 and again.pairs_skipped == 11
    assert multiprocessing.active_children() == []


def test_serial_and_empty_sweeps_never_import_multiprocessing(tmp_path):
    # A sweep at --workers 1, and a forked-width resume with nothing left,
    # run without the multiprocessing package (about 1 MB of resident size).
    import sqsearch
    ck = tmp_path / "serial.jsonl"
    script = ("import sys; import sqsearch.campaign as c\n"
              "for w in ('1', '3'):\n"
              "    c.main(['sweep', '--q-min', '3', '--q-max', '20', '--workers', w,"
              " '--checkpoint', sys.argv[1]])\n"
              "print('multiprocessing' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(sqsearch.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, str(ck)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "pairs resumed    : 7" in proc.stdout
    assert proc.stdout.rstrip().endswith("False")


def test_sweep_replaces_a_dead_worker_once(tmp_path, monkeypatch, serial_records, started):
    # This process runs stride 0; the one forked worker runs stride 1, q =
    # 5, 11, 17, 23, 31, and dies on 5.  One fresh worker takes 11 .. 31 at
    # once, so two starts in all, where a second round would make three.
    import sqsearch.campaign as campaign
    parent, real_run = os.getpid(), campaign._run_pair

    def dying(task):
        if task[1] == 5 and os.getpid() != parent:
            os._exit(7)
        return real_run(task)

    monkeypatch.setattr(campaign, "_run_pair", dying)
    ck = tmp_path / "replaced.jsonl"
    summary = sweep(SweepSpec(**WORKER_RANGE, workers=2, checkpoint_path=ck))
    assert summary.pairs_processed == 11 and summary.errors == 1
    assert len(started) == 2
    records = load_checkpoint(ck)
    assert len(records) == 11
    lost = records.pop((2, 5))
    assert lost["status"] == "error" and lost["error"] == "worker exited with code 7"
    assert records == {k: v for k, v in serial_records.items() if k != (2, 5)}
    assert multiprocessing.active_children() == []


def test_sweep_parent_failure_leaves_no_worker(tmp_path, monkeypatch):
    # The checkpoint's second write fails while workers still run; the
    # error reaches the caller and every worker is stopped and reaped.
    import sqsearch.checkpoint as checkpoint

    class FailingFile:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, text):
            self.writes += 1
            if self.writes == 2:
                raise OSError("planted: disk full")
            return self.fh.write(text)

        def __getattr__(self, name):
            return getattr(self.fh, name)

    monkeypatch.setattr(checkpoint, "open", lambda *a, **kw: FailingFile(open(*a, **kw)),
                        raising=False)
    spec = SweepSpec(**WORKER_RANGE, workers=2, checkpoint_path=tmp_path / "fail.jsonl")
    with pytest.raises(OSError, match="planted"):
        sweep(spec)
    assert multiprocessing.active_children() == []


# Runs a two-worker sweep in a fresh interpreter whose forked worker ends
# its own process on q = 11, the second pair of worker 1's stride.
KILLED_WORKER_SCRIPT = """
import multiprocessing, os, signal, sys
import sqsearch.campaign as campaign

parent, real_run = os.getpid(), campaign._run_pair

def dying(task):
    if task[1] == 11 and os.getpid() != parent:
        {death}
    return real_run(task)

campaign._run_pair = dying
code = campaign.main(sys.argv[1:])
print("children left:", len(multiprocessing.active_children()))
sys.exit(code)
"""


@pytest.mark.parametrize("death,exitcode", [
    ("os._exit(7)", 7), ("os.kill(os.getpid(), signal.SIGKILL)", -9),
])
def test_sweep_survives_a_killed_worker(tmp_path, serial_records, death, exitcode):
    # A dead worker must never hang the sweep: it costs one error record
    # for the pair it was on, and the sweep finishes every other pair.  The
    # timeout turns a hang into a failure.
    import sqsearch
    ck = tmp_path / "killed.jsonl"
    env = dict(os.environ, PYTHONPATH=str(Path(sqsearch.__file__).resolve().parents[1]))
    argv = ["sweep", "--p", "2", "--q-min", "3", "--q-max", "40", "--workers", "2",
            "--checkpoint", str(ck)]
    proc = subprocess.run(
        [sys.executable, "-c", KILLED_WORKER_SCRIPT.format(death=death), *argv],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert "errors           : 1" in proc.stdout
    assert "pairs processed  : 11" in proc.stdout
    assert "children left: 0" in proc.stdout
    records = load_checkpoint(ck)
    lost = records.pop((2, 11))
    assert lost["status"] == "error"
    assert lost["error"] == f"worker exited with code {exitcode}"
    assert records == {k: v for k, v in serial_records.items() if k != (2, 11)}


def test_sweep_all_pairs_mode(tmp_path):
    spec = SweepSpec(mode="all-pairs", q_min=3, q_max=20, workers=1)
    # primes 3..19: 3,5,7,11,13,17,19 -> 21 pairs
    summary = sweep(spec)
    assert summary.pairs_total == 21


def test_checkpoint_truncated_trailing_line(tmp_path, capsys):
    # The second tail was cut inside a two-byte UTF-8 sequence.
    good = (json.dumps({"v": 1, "p": 2, "q": 3, "status": "done", "triples": []})
            + "\n").encode()
    for tail in (b'{"v": 1, "p": 2, "q": 5, "stat', b'{"p": 2, "q": 5, "st\xc3'):
        ck = tmp_path / "trunc.jsonl"
        ck.write_bytes(good + tail)
        recs = load_checkpoint(ck)
        assert list(recs) == [(2, 3)]
        assert main(["report", "--checkpoint", str(ck)]) == 0
        assert '"pairs": 1' in capsys.readouterr().out
        assert ck.read_bytes() == good + tail  # report never writes
        summary = sweep(SweepSpec(mode="fixed-p", p_fixed=2, q_min=3, q_max=3,
                                  workers=1, checkpoint_path=ck))
        assert summary.pairs_skipped == 1 and summary.pairs_processed == 0
        assert ck.read_bytes() == good  # bad tail physically removed


def _complete_lines(raw: bytes) -> bytes:
    # The forward rule that the backward read replaced: every line that
    # ends in a newline, read from the start of the file.
    return b"".join(line for line in io.BytesIO(raw) if line.endswith(b"\n"))


_LINE = (json.dumps({"v": 1, "p": 2, "q": 3, "status": "done"}) + "\n").encode()


@pytest.mark.parametrize("block", [7, None], ids=["block-7", "block-default"])
@pytest.mark.parametrize("raw", [
    b"",
    b'{"p": 2, "q": 5, "st',
    _LINE,
    _LINE * 3,
    b"\n",
    _LINE + b'{"p": 2, "q": 5, "st\xc3',
    _LINE + b"x" * ((1 << 16) + 5),
    b"x" * ((1 << 16) + 5),
    _LINE * 2 + b"\n" + b"y" * 20,
], ids=["empty", "no-newline", "one-line", "three-lines", "bare-newline",
        "torn-utf8", "tail-past-block", "long-no-newline", "blank-line-then-tail"])
@pytest.mark.parametrize("restart", [False, True], ids=["resume", "restart"])
def test_appender_cuts_the_torn_tail_as_the_forward_rule(tmp_path, monkeypatch, raw, block,
                                                          restart):
    import sqsearch.checkpoint as checkpoint
    if block is not None:
        monkeypatch.setattr(checkpoint, "_TAIL_BLOCK", block)
    ck = tmp_path / "c.jsonl"
    ck.write_bytes(raw)
    handle = checkpoint.Appender(ck, restart=restart)
    kept = b"" if restart else _complete_lines(raw)
    assert ck.read_bytes() == kept
    handle.append({"v": 1, "p": 2, "q": 7, "status": "error", "error": "x"})
    handle.close()
    assert ck.read_bytes().startswith(kept)
    assert ck.read_bytes().count(b"\n") == kept.count(b"\n") + 1


def test_appender_creates_a_missing_file(tmp_path):
    from sqsearch.checkpoint import Appender
    ck = tmp_path / "sub" / "new.jsonl"
    Appender(ck).close()
    assert ck.read_bytes() == b""


def test_report_leaves_checkpoint_byte_identical(tmp_path, capsys):
    ck = tmp_path / "live.jsonl"
    good = json.dumps({"v": 1, "p": 2, "q": 3, "status": "done", "triples": []})
    ck.write_text(good + "\n" + '{"v": 1, "p": 2, "q": 5, "stat', encoding="utf-8")
    raw = ck.read_bytes()
    assert main(["report", "--checkpoint", str(ck)]) == 0
    assert '"pairs": 1' in capsys.readouterr().out
    assert ck.read_bytes() == raw


def test_report_digest_reads_one_record_per_pair(tmp_path, capsys):
    # The digest hashes what report reads: one record per pair, sorted, so a
    # duplicated line and a torn tail leave it as it is, while one digit of
    # one record's b1 changes it.
    ck = tmp_path / "d.jsonl"
    sweep(SweepSpec(**WORKER_RANGE, workers=1, checkpoint_path=ck))
    lines = ck.read_bytes().splitlines(keepends=True)

    def digest() -> str:
        assert main(["report", "--checkpoint", str(ck)]) == 0
        return json.loads(capsys.readouterr().out.splitlines()[-1])["digest"]

    clean = digest()
    ck.write_bytes(b"".join(lines) + lines[3] + b'{"p": 2, "q": 3')
    assert digest() == clean
    rec = json.loads(lines[3])
    assert rec["b1"][-1].isdigit()
    rec["b1"] = rec["b1"][:-1] + str((int(rec["b1"][-1]) + 1) % 10)
    lines[3] = (json.dumps(rec, sort_keys=True) + "\n").encode()
    ck.write_bytes(b"".join(lines))
    assert digest() != clean


def test_sweep_resume_after_unterminated_final_record(tmp_path):
    full = tmp_path / "full.jsonl"
    broken = tmp_path / "broken.jsonl"
    base = dict(mode="fixed-p", p_fixed=2, q_min=3, q_max=30, workers=1)
    total = sweep(SweepSpec(**base, checkpoint_path=full)).pairs_total
    sweep(SweepSpec(**base, checkpoint_path=broken, max_pairs=5))
    broken.write_bytes(broken.read_bytes().rstrip(b"\n"))  # killed before the newline
    resumed = sweep(SweepSpec(**base, checkpoint_path=broken))
    assert resumed.pairs_skipped == 4
    assert resumed.pairs_processed == total - 4
    assert len(broken.read_text().splitlines()) == total
    assert load_checkpoint(full) == load_checkpoint(broken)


def test_checkpoint_corrupt_middle_line_refuses(tmp_path):
    ck = tmp_path / "corrupt.jsonl"
    good = json.dumps({"v": 1, "p": 2, "q": 3, "status": "done"})
    ck.write_text("not json at all\n" + good + "\n", encoding="utf-8")
    with pytest.raises(CheckpointError):
        load_checkpoint(ck)


DONE_23 = {"v": 1, "p": 2, "q": 3, "status": "done"}
ERROR_23 = {"v": 1, "p": 2, "q": 3, "status": "error", "error": "x"}


@pytest.mark.parametrize("record", [
    {"p": 2, "q": 3}, {"v": 1, "p": 2, "q": 3, "status": "running"},
    {"p": "2", "q": 3, "status": "done"}, {"p": [2], "q": 3, "status": "done"},
    {**DONE_23, "quadruples": "xy", "triples": []}, {**DONE_23, "quadruples": 5},
    {**DONE_23, "quadruples": [[1, 3, 8]]}, {**DONE_23, "quadruples": [[1, 3, 8, "120"]]},
    {**DONE_23, "triples": [[1, 3]]}, {**DONE_23, "triples": [[1, 3, 5.0]]},
    {**DONE_23, "triples": "abc"}, {**DONE_23, "flags": "x"}, {**DONE_23, "flags": [1]},
    {**ERROR_23, "quadruples": [[1, 3, 8, 120]]}, {**ERROR_23, "flags": ["x"]},
])
def test_checkpoint_record_without_known_status_refuses(tmp_path, capsys, record):
    # Accepted, a record without "done" or "error" would count {2, 3} as
    # resumed, so a sweep would exit 0 without ever searching it; a p that
    # is no int made report or sweep fail on a TypeError naming no line, and
    # so did a quadruples of the wrong type, while a string of
    # quadruples made report and sweep print a notable pair and exit 2.  An
    # error record with a quadruple made sweep print it as notable and exit 2,
    # while report dropped it and exited 1.
    ck = tmp_path / "nostatus.jsonl"
    good = json.dumps({"v": 1, "p": 2, "q": 5, "status": "done", "triples": []})
    ck.write_text(good + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    raw = ck.read_bytes()
    for argv in (["sweep", "--p", "2", "--q-min", "3", "--q-max", "5", "--checkpoint", str(ck)],
                 ["report", "--checkpoint", str(ck)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "corrupt checkpoint line 2" in captured.err
        assert "pairs total" not in captured.out and '"pairs"' not in captured.out
        assert ck.read_bytes() == raw


@pytest.mark.parametrize("ms", [12, "7", True, 7.5], ids=repr)
def test_checkpoint_record_with_an_older_ms_resumes(tmp_path, capsys, ms):
    # Records once carried their wall time as "ms".  No reader reads it, so
    # its type can neither fail later nor fake a result: such a record is a
    # valid schema-1 record, its pair resumes as done and report exits 0.
    # The string, bool and float cases were once refused for their type.
    ck = tmp_path / "older.jsonl"
    rec = {**record_from_report(search_pair(PrimePair.of(2, 3))), "ms": ms}
    ck.write_text(json.dumps(rec, sort_keys=True) + "\n", encoding="utf-8")
    raw = ck.read_bytes()
    summary = sweep(SweepSpec(mode="fixed-p", p_fixed=2, q_min=3, q_max=3,
                              workers=1, checkpoint_path=ck))
    assert summary.pairs_skipped == 1 and summary.pairs_processed == 0
    assert ck.read_bytes() == raw
    assert main(["report", "--checkpoint", str(ck)]) == 0
    assert '"pairs": 1' in capsys.readouterr().out


def test_iter_records_streams_one_line_at_a_time(tmp_path):
    # A resume at the paper's scale reads millions of records: the reader's
    # peak must not grow with the file.
    ck = tmp_path / "big.jsonl"
    rec = record_from_report(search_pair(PrimePair.of(2, 97)))
    with open(ck, "w", encoding="utf-8") as fh:
        for q in range(20000):
            fh.write(json.dumps({**rec, "q": q}, sort_keys=True) + "\n")
    tracemalloc.start()
    try:
        count = sum(1 for _ in iter_records(ck))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 20000
    assert peak < ck.stat().st_size / 100


def test_sweep_force_restart(tmp_path):
    ck = tmp_path / "force.jsonl"
    ck.write_text("garbage\n" + "x\n", encoding="utf-8")
    spec = SweepSpec(mode="fixed-p", p_fixed=2, q_min=3, q_max=10,
                     workers=1, checkpoint_path=ck)
    with pytest.raises(CheckpointError):
        sweep(spec)
    summary = sweep(spec, force_restart=True)
    assert summary.pairs_processed == summary.pairs_total
    # The same through the command line.
    written = ck.read_bytes()
    ck.write_text("garbage\n", encoding="utf-8")
    assert main(["sweep", "--q-min", "3", "--q-max", "10", "--checkpoint", str(ck),
                 "--force-restart"]) == 0
    assert ck.read_bytes() == written


@pytest.mark.parametrize("force_restart", [False, True])
def test_sweep_of_empty_range_leaves_checkpoint_untouched(tmp_path, force_restart):
    # The refusal comes before the checkpoint is deleted, opened or cut.
    ck = tmp_path / "kept.jsonl"
    ck.write_text(json.dumps({"v": 1, "p": 2, "q": 3, "status": "done"}) + "\n"
                  + '{"torn', encoding="utf-8")
    raw = ck.read_bytes()
    spec = SweepSpec(mode="fixed-p", p_fixed=2, q_min=24, q_max=28,
                     workers=1, checkpoint_path=ck)
    with pytest.raises(ValueError, match="no prime pair"):
        sweep(spec, force_restart=force_restart)
    assert ck.read_bytes() == raw


def test_cli_pair_exit_codes(capsys):
    assert main(["pair", "--p", "2", "--q", "3"]) == 0
    out = capsys.readouterr().out
    assert "(1, 3, 5)" in out and "0 quadruples" in out
    assert main(["pair", "--p", "4", "--q", "3"]) == 3
    assert main(["pair", "--p", "3", "--q", "3"]) == 3


def test_cli_pair_runtime_value_error_exits_1(monkeypatch, capsys):
    # Only PrimePair.of's ValueError is a usage error; one from the pipeline
    # is a runtime error.
    import sqsearch.campaign as campaign

    def failing(pair):
        raise ValueError("pipeline failure")

    monkeypatch.setattr(campaign, "search_pair", failing)
    assert main(["pair", "--p", "2", "--q", "3"]) == 1
    assert "pipeline failure" in capsys.readouterr().err


def test_cli_oracle(capsys):
    assert main(["oracle", "--p", "3", "--q", "5", "--max", "4", "--arity", "3"]) == 0
    out = capsys.readouterr().out
    assert "(1, 2, 4)" in out


# Passes trial division, but is above the deterministic Miller-Rabin range.
BEYOND_PRIMALITY_RANGE = 10 ** 25 + 13


@pytest.mark.parametrize("argv,message", [
    (["oracle", "--p", "3", "--q", "3", "--max", "10", "--arity", "3"], "distinct"),
    (["oracle", "--p", "3", "--q", "5", "--max", "1", "--arity", "3"], "--max"),
    (["oracle", "--p", "3", "--q", "5", "--max", "300000", "--arity", "3"], "--max"),
    (["verify-lemmas", "--p-max", "7", "--height", "1"], "--height"),
    (["verify-lemmas", "--p-max", "7", "--height", "300000"], "--height"),
    (["verify-lemmas", "--p-max", "2", "--height", "60"], "two primes"),
    (["pair", "--p", "2", "--q", str(BEYOND_PRIMALITY_RANGE)], "primality range"),
    (["oracle", "--p", "2", "--q", str(BEYOND_PRIMALITY_RANGE), "--max", "10", "--arity", "3"],
     "primality range"),
    (["sweep", "--p", str(BEYOND_PRIMALITY_RANGE), "--q-min", "3", "--q-max", "5"],
     "primality range"),
])
def test_cli_oracle_usage_errors(capsys, argv, message):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert message in captured.err
    assert "tuples" not in captured.out


@pytest.mark.parametrize("argv,message", [
    (["report", "--checkpoint", "missing.jsonl"], "no checkpoint"),
    (["sweep", "--q-min", "3", "--q-max", "20", "--max", "-1"], "--max"),
    (["sweep", "--q-min", "3", "--q-max", "20", "--max", "0"], "--max"),
    (["sweep", "--q-min", "3", "--q-max", "20", "--workers", "0"], "--workers"),
    (["sweep", "--q-min", "3", "--q-max", "20", "--workers", "-2"], "--workers"),
    (["sweep", "--q-min", "100", "--q-max", "10"], "no prime pair"),
    (["sweep", "--q-min", "24", "--q-max", "28"], "no prime pair"),
    (["sweep", "--all-pairs", "--q-min", "3", "--q-max", "4"], "no prime pair"),
    (["sweep", "--all-pairs", "--skip-33", "--q-min", "3", "--q-max", "20"],
     "unrecognized arguments"),
    (["sweep", "--all-pairs", "--p", "5", "--q-min", "3", "--q-max", "13"], "--p"),
])
def test_cli_inputs_that_would_hide_results(tmp_path, monkeypatch, capsys, argv, message):
    # Accepted, each would exit 0 with output that hides results: an empty
    # report, a sweep short of its last pair, a silently serial run, a sweep
    # over a range with no pair, a script that still asks for the removed
    # --skip-33 filter and would sweep more pairs than it meant to, a --p
    # that an all-pairs sweep would ignore.
    monkeypatch.chdir(tmp_path)
    ck = tmp_path / "refused.jsonl"
    if argv[0] == "sweep":
        argv = argv + ["--checkpoint", str(ck)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert message in captured.err
    assert "pairs total" not in captured.out and '"pairs"' not in captured.out
    assert not ck.exists()


@pytest.mark.parametrize("kwargs", [
    {"max_pairs": -1}, {"max_pairs": 0}, {"workers": 0}, {"workers": -2},
])
def test_sweep_spec_refuses_inputs_that_would_hide_results(kwargs):
    # Accepted, sweep(SweepSpec(q_max=20, max_pairs=-1)) would report 6 of
    # its 7 pairs with no error, and workers below 1 would run serially.
    with pytest.raises(ValueError, match="must be at least 1"):
        SweepSpec(mode="all-pairs", q_min=3, q_max=20, **kwargs)


def test_cli_bad_arguments():
    assert main(["pair", "--p", "2"]) == 3
    assert main(["nonsense"]) == 3
    assert main([]) == 3


def test_cli_sweep_and_report(tmp_path, capsys):
    ck = tmp_path / "cli.jsonl"
    code = main(["sweep", "--p", "2", "--q-min", "3", "--q-max", "20",
                 "--workers", "1", "--checkpoint", str(ck)])
    assert code == 0
    capsys.readouterr()
    assert main(["report", "--checkpoint", str(ck)]) == 0
    out = capsys.readouterr().out
    assert '"pairs": 7' in out


def test_cli_exit_1_on_error_record(tmp_path, capsys):
    ck = tmp_path / "planted.jsonl"
    ck.write_text(json.dumps(error_record(2, 5, "PrecisionError: planted")) + "\n",
                  encoding="utf-8")
    assert main(["sweep", "--p", "2", "--q-min", "3", "--q-max", "7",
                 "--checkpoint", str(ck)]) == 1
    assert main(["report", "--checkpoint", str(ck)]) == 1
    # A found quadruple still outranks the error.
    quad = {"v": 1, "p": 2, "q": 11, "status": "done", "triples": [],
            "quadruples": [[1, 3, 8, 120]]}
    with open(ck, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(quad) + "\n")
    assert main(["report", "--checkpoint", str(ck)]) == 2


def test_sweep_summary_counts_only_own_pairs(tmp_path, capsys):
    ck = tmp_path / "foreign.jsonl"
    ck.write_text(json.dumps(error_record(2, 97, "PrecisionError: planted")) + "\n",
                  encoding="utf-8")
    summary = sweep(SweepSpec(mode="fixed-p", p_fixed=2, q_min=3, q_max=7,
                              workers=1, checkpoint_path=ck))
    assert summary.errors == 0 and summary.pairs_processed == 3
    assert main(["sweep", "--p", "2", "--q-min", "3", "--q-max", "7",
                 "--checkpoint", str(ck)]) == 0


def test_cli_pair_json_report(tmp_path):
    out = tmp_path / "pair.json"
    assert main(["pair", "--p", "2", "--q", "3", "--json", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["p"] == 2 and rec["q"] == 3
    assert rec["box"]["a12_cap"] <= 9
    assert set(rec["box"]) == {"a12_cap", "b12_cap", "a_cap", "b_cap"}
    assert all("delta_exact" in s for s in rec["steps"])
    num, den = rec["steps"][-1]["delta_exact"].split("/")
    assert int(num) > 0 and int(den) > 0


@pytest.mark.parametrize("pq", [(10949, 95089), (12527, 92753), (4951, 50849)],
                         ids=lambda pq: f"{pq[0]}-{pq[1]}")
def test_pairs_whose_chain_reaches_a_bound_below_1(tmp_path, pq):
    # Their reduction chains reach a B2 below 1; each pair is done with no
    # quadruple, and a sweep over it exits 0.
    p, q = map(str, pq)
    out = tmp_path / "pair.json"
    assert main(["pair", "--p", p, "--q", q, "--json", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["status"] == "done" and rec["quadruples"] == []
    ck = tmp_path / "sweep.jsonl"
    assert main(["sweep", "--p", p, "--q-min", q, "--q-max", q,
                 "--checkpoint", str(ck)]) == 0
    assert [r["status"] for r in load_checkpoint(ck).values()] == ["done"]


def test_cli_verify_lemmas(capsys):
    assert main(["verify-lemmas", "--p-max", "7", "--height", "60"]) == 0
    out = capsys.readouterr().out
    assert "0 violations" in out


def test_cli_exit_2_when_quadruple_found(monkeypatch, capsys):
    # No real pair yields a quadruple, so plant one to pin the exit contract.
    import sqsearch.campaign as campaign
    real = search_pair

    def doctored(pair, *a, **kw):
        report = real(pair, *a, **kw)
        fake_quads = (object(),)
        return type(report)(pair=report.pair, trace=report.trace, box=report.box,
                            pair_count=report.pair_count,
                            triple_candidates=report.triple_candidates,
                            triples=report.triples,
                            quad_candidates=report.quad_candidates,
                            quadruples=fake_quads)

    monkeypatch.setattr(campaign, "search_pair", doctored)
    monkeypatch.setattr(campaign, "_print_report", lambda r: None)
    assert main(["pair", "--p", "2", "--q", "3"]) == 2


def test_lemma_flag_is_reported_not_dropped(monkeypatch, tmp_path, capsys):
    # Plant a lemma flag on {2,3}'s real triples: the pair keeps its record
    # and triples, gains the flags, counts as NOTABLE, and is not run again.
    import sqsearch.search as search
    real = search.lemma_predicates

    def planted(pair, tuples):
        extra = [f"planted: {t}" for t in tuples if (pair.p, pair.q) == (2, 3)]
        return real(pair, tuples) + extra

    monkeypatch.setattr(search, "lemma_predicates", planted)
    ck = tmp_path / "flagged.jsonl"
    argv = ["sweep", "--p", "2", "--q-min", "3", "--q-max", "7", "--checkpoint", str(ck)]
    assert main(argv) == 2
    assert "NOTABLE pair (2, 3)" in capsys.readouterr().out
    triples = [[1, 3, 5], [1, 5, 7], [1, 7, 23], [1, 15, 17], [1, 31, 47]]
    flags = [f"planted: {tuple(t)}" for t in triples]
    records = load_checkpoint(ck)
    assert records[(2, 3)]["status"] == "done"
    assert records[(2, 3)]["triples"] == triples
    assert records[(2, 3)]["flags"] == flags
    assert "flags" not in records[(2, 5)] and "flags" not in records[(2, 7)]

    assert main(["report", "--checkpoint", str(ck)]) == 2
    out = capsys.readouterr().out
    assert "NOTABLE pair (2, 3): planted: (1, 3, 5)" in out
    assert json.loads(out.splitlines()[-1])["flagged"] == [[2, 3, f] for f in flags]

    # The flags now come from the checkpoint alone; resume leaves it as it is.
    monkeypatch.undo()
    raw = ck.read_bytes()
    resumed = sweep(SweepSpec(mode="fixed-p", p_fixed=2, q_min=3, q_max=7,
                              workers=1, checkpoint_path=ck))
    assert resumed.pairs_processed == 0 and resumed.notable == [(2, 3)]
    assert main(argv) == 2
    assert "NOTABLE pair (2, 3)" in capsys.readouterr().out
    assert ck.read_bytes() == raw


def test_sweep_worker_error_isolates(monkeypatch, tmp_path):
    import sqsearch.campaign as campaign

    real_run = campaign._run_pair
    monkeypatch.setattr(campaign, "_run_pair",
                        lambda task: error_record(task[0], task[1], "boom")
                        if task[1] == 5 else real_run(task))
    ck = tmp_path / "err.jsonl"
    spec = SweepSpec(mode="fixed-p", p_fixed=2, q_min=3, q_max=11,
                     workers=1, checkpoint_path=ck)
    summary = sweep(spec)
    assert summary.pairs_processed == 4
    assert summary.errors == 1
    recs = load_checkpoint(ck)
    assert recs[(2, 5)]["status"] == "error"
    assert recs[(2, 3)]["status"] == "done"


def test_module_entry_point_runs_without_runtime_warning():
    import sqsearch
    env = dict(os.environ, PYTHONPATH=str(Path(sqsearch.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "sqsearch.campaign", "--help"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr


# Records of four pairs as the certified pipeline produced them before the
# enclosure arithmetic moved to scaled integers; any change to a bound's
# printed digits, a count or a triple fails here.
PINNED_RECORDS = [
    {"v": 1, "p": 2, "q": 3, "status": "done", "final_bound": "18.0101083899468",
     "b1": "5.24283981213476", "pair_count": 703, "triple_candidates": 739,
     "triples": [[1, 3, 5], [1, 5, 7], [1, 7, 23], [1, 15, 17], [1, 31, 47]],
     "quad_candidates": 275, "quadruples": []},
    {"v": 1, "p": 2, "q": 97, "status": "done", "final_bound": "29.5268681944757",
     "b1": "8.79901283049390", "pair_count": 276, "triple_candidates": 362,
     "triples": [], "quad_candidates": 0, "quadruples": []},
    {"v": 1, "p": 3, "q": 5, "status": "done", "final_bound": "14.2824315108282",
     "b1": "4.27321662455098", "pair_count": 55, "triple_candidates": 94,
     "triples": [[1, 2, 4], [1, 24, 26]], "quad_candidates": 14, "quadruples": []},
    {"v": 1, "p": 281, "q": 293, "status": "done", "final_bound": "18.9880293609364",
     "b1": "3.86857753338910", "pair_count": 0, "triple_candidates": 0,
     "triples": [], "quad_candidates": 0, "quadruples": []},
]


@pytest.mark.parametrize("expected", PINNED_RECORDS,
                         ids=lambda r: f"{r['p']}-{r['q']}")
def test_record_values_pinned(expected):
    rec = record_from_report(search_pair(PrimePair.of(expected["p"], expected["q"])))
    assert rec == expected
