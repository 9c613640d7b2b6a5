"""End-to-end CLI runs whose data files must not depend on ``--threads``.

Four cases, each run in-process at ``--threads`` 1, 2 and 3, which must all
give the same data files (three workers split a pass unevenly):

- ``shipped``: the three configs in ``scripts/configs/`` that
  ``scripts/run_shift_experiment.py`` runs;
- ``gram``: a ``scaling`` run on the benchmark's non-orthogonal
  ``linear64_matrix(0)`` flow, whose scan takes the Gram screen;
- ``float_origin``: a ``scaling`` run on the 64-state shift from a seeded
  Gaussian origin, where a permutation flow's sums round;
- ``shuffled_lemma``: a ``lemma-check`` on the 64-state basis out of orbit
  order, whose screen takes every pair, not the orbit's class
  representatives.

The shuffled run must also match the orbit-ordered run pair by pair, and
each benchmark workload's run at seed 0 must pass the benchmark's own output
check against its stored reference in ``perfbench/reference/``. Every
function the benchmark's per-layer metrics trace must exist under its name
and be called by some subcommand, and every result attribute its count
metrics read must be an int. The README's Library example must run.
"""

import csv
import importlib
import importlib.util
import inspect
import json
import pathlib
import re
import sys

import numpy as np
import pytest

from delaycond import (
    DelayParams,
    PairTable,
    draw_stream,
    infimum_soft_rank,
    make_shift_flow,
    monte_carlo,
)
from delaycond.cli import main

from test_dynamics import well_conditioned_flow

REPO = pathlib.Path(__file__).resolve().parents[1]


def load_module(relative):
    """The module at ``relative`` under the repository root, imported by path."""
    path = REPO / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


run_shift_experiment = load_module("scripts/run_shift_experiment.py")
# the benchmark's input generator, output check and span recorder, read only
workloads = load_module("perfbench/workloads.py")
checks = load_module("perfbench/checks.py")
spans = load_module("perfbench/spans.py")


def write_lines(path, *lines):
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return path


def run_cli(command, config, out, *argv):
    assert main([command, "--config", str(config), "--out", str(out), *argv]) == 0
    return out


def manifest(out):
    return json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))


def assert_same_data_files(first, second):
    """Each pair of run directories records the same data-file checksums."""
    assert len(first) == len(second)
    for one, two in zip(first, second):
        checksums = manifest(one)["checksums"], manifest(two)["checksums"]
        assert checksums[0], f"{one}: no data files"
        assert checksums[0] == checksums[1], f"{one} and {two}: data files differ"


def run_shipped(root, threads):
    out_root = root / f"threads{threads}"
    argv = ["--threads", str(threads), "--out-root", str(out_root)]
    assert run_shift_experiment.main(argv) == 0
    runs = sorted(path.parent for path in out_root.glob("*/run_manifest.json"))
    assert [run.name for run in runs] == sorted(name for _, _, name in run_shift_experiment.RUNS)
    return runs


def run_gram(root, threads):
    # the flow that the benchmark's report_linear64 times
    np.savetxt(root / "flow64.csv", workloads.linear64_matrix(0), delimiter=",", fmt="%.17g")
    config = write_lines(
        root / "gram.cfg",
        "kind = linear",
        "matrix_path = flow64.csv",
        "num_samples = 128",
        "delays = 4, 8, 16",
        "ensemble = gaussian",
        "num_draws = 100",
    )
    out = run_cli("scaling", config, root / f"threads{threads}", "--threads", str(threads))
    per_m = manifest(out)["counts"]["per_m"]
    assert [entry["num_delays"] for entry in per_m] == [4, 8, 16]
    for entry in per_m:
        assert entry["pairs"] == 128 * 127 // 2
        assert 1 <= entry["pairs_certified"] <= entry["pairs"]
    return [out]


def run_float_origin(root, threads):
    origin = ", ".join(repr(float(v)) for v in np.random.default_rng(5).standard_normal(64))
    config = write_lines(
        root / "float.cfg",
        "kind = shift",
        "ambient_dim = 64",
        f"origin = {origin}",
        "num_samples = 64",
        "delays = 4, 8, 16",
        "ensemble = gaussian",
        "num_draws = 100",
    )
    return [run_cli("scaling", config, root / f"threads{threads}", "--threads", str(threads))]


def write_basis_config(root, order, states):
    np.savetxt(root / f"{order}.csv", states, delimiter=",", fmt="%g")
    return write_lines(
        root / f"{order}.cfg",
        "kind = shift",
        "ambient_dim = 64",
        f"samples_path = {order}.csv",
        "delays = 2, 8, 32, 64",
    )


def run_shuffled_lemma(root, threads):
    shuffled = np.eye(64)[np.random.default_rng(0).permutation(64)]
    config = write_basis_config(root, "shuffled", shuffled)
    return [run_cli("lemma-check", config, root / f"threads{threads}", "--threads", str(threads))]


CASES = {
    "shipped": run_shipped,
    "gram": run_gram,
    "float_origin": run_float_origin,
    "shuffled_lemma": run_shuffled_lemma,
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``runs(case)``: the case's run directories per thread count, run once."""
    done = {}

    def get(case):
        if case not in done:
            root = tmp_path_factory.mktemp(case)
            done[case] = {threads: CASES[case](root, threads) for threads in (1, 2, 3)}
        return done[case]

    return get


@pytest.mark.parametrize("case", list(CASES))
def test_data_files_do_not_depend_on_threads(runs, case):
    by_threads = runs(case)
    assert_same_data_files(by_threads[1], by_threads[2])
    assert_same_data_files(by_threads[1], by_threads[3])


def soft_ranks(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return {(int(row["i"]), int(row["j"])): float(row["soft_rank"]) for row in csv.DictReader(handle)}


def test_shuffled_basis_lemma_check_matches_the_orbit_order(runs):
    # pairs off the band take their own Gram-screened value shuffled and their
    # class representative's in orbit order; both are within rounding of the
    # pair's dense value
    (shuffled,) = runs("shuffled_lemma")[1]
    root = shuffled.parent
    orbit = run_cli("lemma-check", write_basis_config(root, "orbit", np.eye(64)), root / "orbit")
    basis = np.argmax(np.loadtxt(root / "shuffled.csv", delimiter=","), axis=1)
    per_m = [manifest(out)["counts"]["per_m"] for out in (orbit, shuffled)]
    assert [e["num_delays"] for e in per_m[0]] == [e["num_delays"] for e in per_m[1]] == [2, 8, 32, 64]
    for in_orbit, in_shuffle in zip(*per_m):
        m = in_orbit["num_delays"]
        assert in_shuffle["pairs_certified"] == in_orbit["pairs_certified"], f"M = {m}"
        want = soft_ranks(orbit / f"lemma_check_M{m}.csv")
        got = soft_ranks(shuffled / f"lemma_check_M{m}.csv")
        assert len(got) == len(want) == 64 * 63 // 2
        for (i, j), value in got.items():
            pair = tuple(sorted((int(basis[i]), int(basis[j]))))
            assert abs(value - want[pair]) <= 1e-12 * max(abs(value), abs(want[pair])), (
                f"M = {m}: basis pair {pair}"
            )


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_benchmark_workload_matches_its_stored_reference(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    reference = REPO / "perfbench" / "reference" / name
    reference /= "seed-0" if workload.seed_dependent else "any-seed"
    assert reference.is_dir()  # check_outputs skips the comparison without one
    config = workload.write_inputs(str(tmp_path), 0)
    out = run_cli(
        workload.subcommand, config, tmp_path / "out", "--seed", "0", "--threads", "2"
    )
    assert checks.check_outputs(workload, str(out), str(reference)) == []


def test_traced_functions_are_public_layer_functions():
    """Every function a per-layer benchmark metric traces exists under its name.

    The span recorder wraps the public functions defined in each layer
    module; a metric whose function was renamed or removed would read as
    absent.
    """
    traced = sorted({name for _kind, names in spans.TIMED.values() for name in names})
    missing = []
    for name in traced:
        layer, _, attr = name.partition(".")
        module = importlib.import_module(f"{spans.PACKAGE}.{layer}")
        func = getattr(module, attr, None)
        if not (
            layer in spans.LAYERS
            and not attr.startswith("_")
            and inspect.isfunction(func)
            and func.__module__ == module.__name__
        ):
            missing.append(name)
    assert traced and not missing, f"no public layer function for {missing}"


def test_every_traced_function_runs_in_some_subcommand(tmp_path):
    """Every function a per-layer benchmark metric traces is called on tiny configs.

    A metric whose function no subcommand calls reads 0 on working code. The
    span recorder is installed in-process over ``lemma-check``, ``scaling``
    and ``report`` on the 8-state shift, and ``report`` on a linear flow,
    whose pair table builds a trajectory stack; the package's functions are
    restored afterwards.
    """
    np.savetxt(tmp_path / "flow.csv", well_conditioned_flow(0, 4).matrix, delimiter=",")
    shift = ("kind = shift", "ambient_dim = 8", "num_samples = 8", "num_draws = 3")
    runs = [
        ("lemma-check", write_lines(tmp_path / "lemma.cfg", *shift, "delays = 2, 4")),
        ("scaling", write_lines(tmp_path / "scaling.cfg", *shift, "delays = 2, 3, 4")),
        ("report", write_lines(tmp_path / "report.cfg", *shift, "delays = 4")),
        ("report", write_lines(
            tmp_path / "linear.cfg",
            "kind = linear", "matrix_path = flow.csv", "num_samples = 8", "delays = 3",
            "num_draws = 3",
        )),
    ]
    originals = [
        (module, attr, obj)
        for name, module in list(sys.modules.items())
        if name == spans.PACKAGE or name.startswith(spans.PACKAGE + ".")
        for attr, obj in list(vars(module).items())
        if inspect.isfunction(obj)
    ]
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        for k, (command, config) in enumerate(runs):
            run_cli(command, config, tmp_path / f"out{k}")
    finally:
        for module, attr, obj in originals:
            setattr(module, attr, obj)
    traced = {name for _kind, names in spans.TIMED.values() for name in names}
    missing = sorted(traced - set(spans.summarize(recorder.spans)))
    assert not missing, f"no subcommand calls {missing}"


def test_count_attributes_are_ints():
    """Every result attribute a count metric reads is an int on a tiny run.

    The span recorder reads it with ``getattr(result, attribute, None)``; a
    renamed or removed attribute would make the metric read as absent.
    """
    flow, samples, params = make_shift_flow(4), np.eye(4), DelayParams(2)
    results = {
        "spectral.infimum_soft_rank": infimum_soft_rank(PairTable(flow, samples, params)),
        "embedding_analysis.monte_carlo": monte_carlo(
            PairTable(flow, samples, params),
            draw_stream("rademacher", 4, 3, 0),
        ),
    }
    assert spans.COUNT_ATTRIBUTES
    for name, attribute in spans.COUNT_ATTRIBUTES.items():
        assert name in results, f"no tiny run of {name}"
        value = getattr(results[name], attribute, None)
        assert type(value) is int, f"{name} result .{attribute} is {value!r}"


def test_readme_library_example_runs(capsys):
    """The README's one ``python`` block runs against the package as it is."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(REPO / "README.md"), "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.splitlines()
    assert float(printed[0].split()[0]) >= 4.0
    assert printed[2] == "(496,) (2, 496)"
    assert printed[3] == "(32, 256)"
