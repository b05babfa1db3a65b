"""Every function the benchmark's traced pass wraps must still exist.

`bench/spans.Recorder.install` records a vanished name in `missing` instead of
failing, which would silently zero its per-layer metric; this test turns a
rename of a benchmarked function into a test failure.
"""

from pathlib import Path

import nestfill.cli  # noqa: F401  (registers every module the wrappers patch)


def test_every_benchmarked_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import layers
    from spans import Recorder

    rec = Recorder()
    layers.install(rec)
    try:
        assert rec.missing == []
    finally:
        rec.uninstall()


def test_traced_oracle_work_counts(monkeypatch, tmp_path, capsys):
    """The benchmark's exhaustiveness counters, recorded in-process through
    the wrappers of `bench/layers.py` for one construct and its verify: every
    strength histogram is still one `check_oa_strength` call whose first
    argument has the row and column counts `_oa_work` reads.

    `check_claims` counts each distinct block once per claim list and hands
    a block equal, cell for cell, to one already proven that block's passing
    report, so a reused block never enters the wrapped `check_oa_strength`.
    The counts are those of the distinct blocks: 12 calls over 1368 rows,
    where counting every slice and prefix again made 36 over 1944."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    monkeypatch.chdir(tmp_path)
    import layers
    from spans import Recorder

    from nestfill.cli import main

    rec = Recorder()
    layers.install(rec)
    try:
        assert main(["construct", "--method", "rh-noa", "--p", "2", "--u", "1,2,3",
                     "--k", "2", "--out", "a.json"]) == 0
        assert main(["verify", "--design", "a.json", "--out", "a.check.json"]) == 0
    finally:
        rec.uninstall()
    capsys.readouterr()
    assert (rec.counts["verify.oa_calls"], rec.counts["verify.rows_counted"]) == (12, 1368)
