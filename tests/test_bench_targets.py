"""Every function the benchmark's traced pass wraps must still exist.

`bench/spans.Recorder.install` records a vanished name in `missing` instead of
failing, which would silently zero its per-layer metric; this test turns a
rename of a benchmarked function into a test failure.
"""

from pathlib import Path

import nestfill.cli  # noqa: F401  (imports every module the wrappers patch)


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
