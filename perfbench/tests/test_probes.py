"""Span recording, self-time attribution and import-time parsing."""

import pytest

import probes
import run


def test_timed_generator_speaks_the_generator_protocol():
    rec = probes.Recorder()

    def inner():
        got = yield 1
        try:
            yield got
        except KeyError:
            yield "caught"
        return "done"

    def outer():
        result = yield from rec.timed_gen("inner", inner)()
        return result

    gen = outer()
    assert next(gen) == 1
    assert gen.send("x") == "x"
    assert gen.throw(KeyError()) == "caught"
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"
    assert [row[0] for row in rec.spans] == ["inner"] * 4
    assert all(row[2] >= row[1] and row[3] == -1 for row in rec.spans)


def test_layer_times_self_and_outermost():
    spans = [
        ["vos.kernel.run", 0.0, 10.0, -1],
        ["vos.body", 1.0, 9.0, 0],
        ["cmd.sort", 1.0, 8.0, 1],
        ["commands.sort.kway_merge", 2.0, 6.0, 2],
        ["cmd.xargs", 8.0, 9.0, 1],
        ["cmd.echo", 8.2, 8.7, 4],
        ["jit.try_execute", 9.0, 9.5, 0],
        ["semantics.expand_word", 9.1, 9.4, 6],
        ["semantics.expand_word", 9.2, 9.3, 7],
    ]
    out = probes.layer_times(spans)
    assert out["vos.kernel.self_s"] == pytest.approx(2.0)
    assert out["commands.sort.busy_s"] == pytest.approx(7.0)
    assert out["commands.xargs.busy_s"] == pytest.approx(0.5)
    assert out["commands.echo.busy_s"] == pytest.approx(0.5)
    assert out["commands.sort.kway_merge_s"] == pytest.approx(4.0)
    assert out["jit.try_execute_s"] == pytest.approx(0.2)
    assert out["semantics.expand_word_s"] == pytest.approx(0.3)


def test_attribute_imports_walks_the_import_tree():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:        50 |         50 |       json",
        "import time:        30 |         80 |     repro.vos.kernel",
        "import time:        20 |        100 |   repro.vos",
        "import time:        10 |         10 |   repro.parser",
        "import time:         5 |        115 | repro",
        "import time:         7 |          7 | repro.cli",
    ])
    out = run.attribute_imports(log)
    assert out["vos"] == pytest.approx(100e-6)
    assert out["parser"] == pytest.approx(10e-6)
    assert out["cli"] == pytest.approx(7e-6)
    assert out["total"] == pytest.approx(122e-6)
    assert "site" not in out


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    assert run.percentile(values, 99) == 198
    assert run.percentile(values, 50) == 100
    assert run.percentile([5.0], 99) == 5.0
