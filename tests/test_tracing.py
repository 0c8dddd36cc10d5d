"""benchmark/tracing.py wraps package names through owner.__dict__[attr].
A deleted or renamed name breaks only the traced benchmark runs, so this
installs the tracer on the package, runs one command and uninstalls it."""

import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def test_tracer_installs_and_uninstalls(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    import tracing
    from epicut import cli

    targets = tracing._MODULE_TARGETS + tracing._CLASS_TARGETS
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in targets
               if attr not in owner.__dict__]
    assert missing == []
    originals = [owner.__dict__[attr] for owner, attr, _ in targets]

    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"A": [[1], [-1]], "b": [1, 1]}))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr, _), original in zip(targets, originals))
        assert tracer.call(0, cli.main, ["decide", str(path)]) == cli.EXIT_INFEASIBLE
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is original
               for (owner, attr, _), original in zip(targets, originals))
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "InfeasibleNonStrict"
    # The tracer counts the metasteps it sees as solver.bisect_level; one
    # that lp calls by another name would be missing here.
    assert report["ellipsoid_iters"] > 0
    assert tracer.counts["solver.level_queries"] == report["level_queries"]
    assert tracer.counts["solver.ellipsoid_iters"] == report["ellipsoid_iters"]
