"""Tests of the benchmark itself: run with ``python -m pytest perfbench``."""

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_gives_identical_inputs(name):
    generator = workloads.WORKLOADS[name].inputs
    first = list(itertools.islice(generator(7), 40))
    again = list(itertools.islice(generator(7), 40))
    other = list(itertools.islice(generator(8), 40))
    assert _same(first, again)
    assert not _same(first, other)


def test_corrupted_recovered_coefficient_is_caught():
    workload = workloads.Recovery(None)
    problems = next(workload.inputs(3))
    results = workload.operate(workload.prepare(problems))
    workload.check(problems, results)
    for inp, result in zip(problems, results):
        corrupted = [c.copy() for c in result.recovered.coefficients]
        corrupted[0][0, 0] += 1e-8 * abs(corrupted[0][0, 0])
        with pytest.raises(workloads.WrongOutput):
            workloads.check_recovery(inp.coefficients, inp.perturbation, corrupted,
                                     result.transform)


def test_wrong_experiment_output_is_caught():
    workload = workloads.Experiments(None)
    inp = next(i for i in workload.inputs(3) if sum(sum(s) for _, s in i.blocks) <= 10)
    out = workload.operate(workload.prepare(inp))
    workload.check(inp, out)
    out["oracle"] += 1
    with pytest.raises(workloads.WrongOutput):
        workload.check(inp, out)


def test_inconclusive_experiment_is_counted_and_still_checked():
    workload = workloads.Experiments(None)
    window = list(itertools.islice(workload.inputs(1), 60))
    tally = run.Tally()
    run.run_ops(workload, window, tally)
    assert tally.failed == 0 and 0 < tally.inconclusive < len(window)

    # an operation whose perturbation experiment itself was inconclusive
    inp = next(i for i in window if "recovered" not in workload.operate(workload.prepare(i)))
    with pytest.raises(workloads.InconsistentRanks) as raised:
        workloads.closure.perturbation_experiment(*workload.prepare(inp)[:2])
    # the cli reports the same error as "error: <message>" on stderr
    assert workloads._CLI_INCONCLUSIVE.search(f"error: {raised.value}\n")
    out = workload.operate(workload.prepare(inp))
    out["orbit"] += 1
    with pytest.raises(workloads.WrongOutput):
        workload.check(inp, out)


@pytest.mark.parametrize("name,count", [("recovery", 2), ("experiments", 40)])
def test_exact_counts_repeat(name, count):
    workload = workloads.WORKLOADS[name](None)
    window = list(itertools.islice(workload.inputs(5), count))
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run.run_ops(workload, window, run.Tally(), tracer=tracer)
        finally:
            tracer.uninstall()
        counts.append({k: (t["calls"], t["failed"], t["extra"])
                       for k, t in tracing.layer_totals(tracer.spans).items()})
    assert counts[0] == counts[1]
    assert any(calls for calls, _, _ in counts[0].values())


def test_input_properties_are_counted_as_operations_run():
    workload = workloads.Experiments(None)
    window = list(itertools.islice(workload.inputs(4), 130))
    tally = run.Tally()
    run.run_ops(workload, window, tally)
    described = workload.describe()
    assert tally.attempted == len(window) == sum(described["structure_size_mix"].values())
    # the pool holds 117 structures, so the last 13 operations reuse one
    assert described["structure_reuse_share"] == 13 / 130


def test_self_time_excludes_child_spans():
    spans = [(1, 0, 0, "linalg.eigenvalues", 10, 40, False, None),
             (0, None, 0, "jordan.recover_structure", 0, 100, True, None)]
    totals = tracing.layer_totals(spans)
    assert totals["jordan.recover_structure"] == {"calls": 1, "failed": 1,
                                                  "self_ns": 70, "extra": 0}
    assert totals["linalg.eigenvalues"]["self_ns"] == 30


def test_package_import_time_counts_outermost_modules():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        50 |         50 |     numpy.core",
        "import time:       100 |        150 |   numpy",
        "import time:        20 |         20 |     scipy",
        "import time:       200 |        220 |   scipy.linalg",
        "import time:        30 |        400 | versal",
    ])
    entries = run.parse_importtime(text)
    assert run.package_import_ms(entries, "numpy") == 0.15
    assert run.package_import_ms(entries, "scipy") == 0.22
    assert run.package_import_ms(entries, "versal") == 0.4


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
