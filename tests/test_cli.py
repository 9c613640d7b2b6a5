import csv
import hashlib
import io
import json
import math
import os
import pathlib
import platform
import re
import sys
import tempfile
import weakref
from dataclasses import fields

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from delaycond import delay_map, embedding_analysis, runner, spectral
from delaycond.cli import main
from delaycond.config import (
    _KNOWN_KEYS,
    ExperimentConfig,
    build_flow,
    build_samples,
    load_config,
    parse_origin,
)
from delaycond.delay_map import DelayParams, derive_seed, draw_coeffs, draw_stream
from delaycond.embedding_analysis import monte_carlo
from delaycond.errors import ConfigError, InvalidArgumentError
from delaycond.runner import run_full_report, run_lemma_check, run_scaling_study, write_csv
from delaycond.spectral import PairTable, infimum_soft_rank

from test_dynamics import well_conditioned_flow
from test_embedding_analysis import large_shift_orbit
from test_spectral import usable_cpus


SCHEMA_DOC = os.path.join(os.path.dirname(__file__), "..", "docs", "report_schema.md")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def write_config(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def minimal_shift_config(tmp_path, **overrides):
    spec = {
        "kind": "shift",
        "ambient_dim": "8",
        "num_samples": "8",
        "delays": "4",
        "ensemble": "rademacher",
        "num_draws": "10",
        "base_seed": "7",
        "outputs": str(tmp_path / "out"),
    }
    spec.update(overrides)
    lines = [f"{k} = {v}" for k, v in spec.items() if v is not None]
    return write_config(tmp_path / "exp.cfg", "\n".join(lines) + "\n")


def csv_writer_bytes(columns: dict[str, np.ndarray]) -> bytes:
    """The bytes ``csv.writer`` writes for ``columns``: the header, then the
    ``tolist()`` cells row by row, a bool column as ``true``/``false``.

    This is the CSV writer ``runner.write_csv`` replaced, kept as its reference.
    """
    cells = [
        np.where(values, "true", "false").tolist() if values.dtype == bool else values.tolist()
        for values in columns.values()
    ]
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(columns)
    writer.writerows(zip(*cells))
    return text.getvalue().encode("utf-8")


# float64 cells where formatting or bit-pattern identity is delicate
DELICATE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
    1.7976931348623157e308, math.inf, -math.inf, math.nan, 0.1, 1e16, 1e-5, 1 / 3,
]


@st.composite
def csv_columns(draw) -> dict[str, np.ndarray]:
    """Float64, int64 and bool columns of a few distinct values each (all equal
    when the pool has one), over row counts around ``_CSV_BLOCK_ROWS``."""
    block = runner._CSV_BLOCK_ROWS
    num_rows = draw(st.sampled_from([1, 2, 7, block - 1, block, block + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {}
    for k in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["float", "int", "bool"]))
        if kind == "bool":
            columns[f"{kind}{k}"] = rng.random(num_rows) < draw(st.sampled_from([0.0, 0.5, 1.0]))
            continue
        if kind == "float":
            value = st.sampled_from(DELICATE_FLOATS) | st.floats(width=64)
            dtype = np.float64
        else:
            value = st.integers(-(2**63), 2**63 - 1)
            dtype = np.int64
        pool = draw(st.lists(value, min_size=1, max_size=6))
        if kind == "float" and draw(st.booleans()):
            pool += [0.0, -0.0]  # equal values with distinct bits and text
        pool = np.array(pool, dtype=dtype)
        columns[f"{kind}{k}"] = pool[rng.integers(pool.size, size=num_rows)]
    return columns


def partition_descending_above_kth(a, kth, axis=-1):
    """A valid ``np.partition`` result with the values above ``kth`` in descending order.

    ``np.partition`` promises only that they are not less than the kth
    value, so code that reads the next order statistic off a fixed position
    passes with some orders and fails with this one.
    """
    part = np.moveaxis(np.sort(a, axis=axis), axis, 0)
    top = int(np.max(kth)) + 1
    part[top:] = part[top:][::-1].copy()
    return np.moveaxis(part, 0, axis)


SHIPPED_CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "configs")


class TestLoadConfig:
    @pytest.mark.parametrize(
        "name", sorted(n for n in os.listdir(SHIPPED_CONFIGS) if n.endswith(".cfg"))
    )
    def test_shipped_configs_load(self, name):
        config = load_config(os.path.join(SHIPPED_CONFIGS, name))
        assert config.kind == "shift" and config.delays

    def test_minimal_shift_config_loads(self, tmp_path):
        config = load_config(minimal_shift_config(tmp_path))
        assert config.kind == "shift"
        assert config.ambient_dim == 8
        assert config.delays == [4]
        assert config.base_seed == 7

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = write_config(
            tmp_path / "c.cfg",
            "# experiment\nkind = shift\n\nambient_dim = 4  # small\n"
            "num_samples = 4\ndelays = 2\n",
        )
        config = load_config(path)
        assert config.ambient_dim == 4

    def test_hash_starts_a_comment_only_after_whitespace(self, tmp_path):
        (tmp_path / "runs#3").mkdir()
        np.savetxt(tmp_path / "runs#3" / "pts.csv", np.eye(8)[:4], delimiter=",")
        path = write_config(
            tmp_path / "c.cfg",
            "kind = shift\nambient_dim = 8\t# after a tab\n"
            "samples_path = runs#3/pts.csv  # after spaces\ndelays = 2\n",
        )
        config = load_config(path)
        assert config.ambient_dim == 8
        assert config.raw_items["samples_path"] == "runs#3/pts.csv"
        assert config.samples_path == str(tmp_path / "runs#3" / "pts.csv")

    def test_zero_delays_names_the_key(self, tmp_path):
        with pytest.raises(ConfigError, match="delays"):
            load_config(minimal_shift_config(tmp_path, delays="0"))

    def test_unknown_ensemble_is_an_enumerated_choice_error(self, tmp_path):
        with pytest.raises(ConfigError, match="ensemble"):
            load_config(minimal_shift_config(tmp_path, ensemble="uniform"))

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", "kind = shift\nbogus_key = 1\n")
        with pytest.raises(ConfigError, match="bogus_key"):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", "kind = shift\nkind = linear\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(path)

    def test_parse_error_names_the_line(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", "kind = shift\nnot a key value\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_missing_matrix_path_for_linear(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", "kind = linear\nnum_samples = 4\ndelays = 2\n")
        with pytest.raises(ConfigError, match="matrix_path"):
            load_config(path)

    def test_unresolvable_matrix_path(self, tmp_path):
        path = write_config(
            tmp_path / "c.cfg",
            "kind = linear\nmatrix_path = missing.csv\nnum_samples = 4\ndelays = 2\n",
        )
        with pytest.raises(ConfigError, match="matrix_path"):
            load_config(path)

    def test_theorem_constants_come_in_pairs(self, tmp_path):
        with pytest.raises(ConfigError, match="c_user"):
            load_config(minimal_shift_config(tmp_path, c_user="1.0"))

    def test_samples_path_excludes_origin(self, tmp_path):
        samples = tmp_path / "samples.csv"
        np.savetxt(samples, np.eye(8), delimiter=",")
        with pytest.raises(ConfigError, match="samples_path"):
            load_config(
                minimal_shift_config(
                    tmp_path, samples_path=str(samples), origin="e1"
                )
            )

    def test_empty_value_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", "kind =\n")
        with pytest.raises(ConfigError, match="empty"):
            load_config(path)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"kind": "linear", "ambient_dim": "1", "matrix_path": "m.csv"}, "ambient_dim: "),
            ({"matrix_path": "missing.csv"}, "matrix_path: no such file"),
        ],
        ids=["ambient_dim-under-linear", "matrix_path-under-shift"],
    )
    def test_keys_of_the_other_kind_are_validated(self, tmp_path, overrides, message):
        np.savetxt(tmp_path / "m.csv", np.eye(8), delimiter=",")
        with pytest.raises(ConfigError, match=message):
            load_config(minimal_shift_config(tmp_path, **overrides))

    def test_readme_minimal_example_loads(self, tmp_path):
        with open(README, encoding="utf-8") as handle:
            cli_section = handle.read().split("\n## CLI\n")[1].split("\n## ")[0]
        block = re.search(r"```\n(# minimal example\n.*?)```", cli_section, flags=re.S)[1]
        config = load_config(write_config(tmp_path / "minimal.cfg", block))
        given = dict(re.findall(r"^(\w+) = (.+)$", block, flags=re.MULTILINE))
        assert config.raw_items == given
        for key, text in given.items():
            value = getattr(config, key)
            if isinstance(value, list):
                assert value == [int(token) for token in text.split(",")]
            else:
                assert value == type(value)(text)
        defaults = ExperimentConfig()
        for key in _KNOWN_KEYS - set(given):
            assert getattr(config, key) == getattr(defaults, key)


class TestParseOrigin:
    def test_basis_shorthand_is_one_based(self):
        origin = parse_origin("e1", 4)
        assert np.array_equal(origin, [1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(parse_origin("e4", 4), [0.0, 0.0, 0.0, 1.0])

    def test_coordinate_list(self):
        assert np.array_equal(parse_origin("1.5, -2, 0", 3), [1.5, -2.0, 0.0])

    def test_out_of_range_axis(self):
        with pytest.raises(ConfigError, match="origin"):
            parse_origin("e5", 4)

    def test_wrong_length_list(self):
        with pytest.raises(ConfigError, match="origin"):
            parse_origin("1, 2", 3)


class TestBuildPieces:
    def test_linear_flow_from_csv(self, tmp_path):
        matrix_file = tmp_path / "m.csv"
        np.savetxt(matrix_file, np.diag([2.0, 0.5]), delimiter=",")
        path = write_config(
            tmp_path / "c.cfg",
            f"kind = linear\nmatrix_path = {matrix_file}\n"
            "origin = 1, 1\nnum_samples = 5\ndelays = 2\n",
        )
        config = load_config(path)
        flow = build_flow(config)
        assert np.array_equal(flow.matrix, np.diag([2.0, 0.5]))
        samples, desc, period = build_samples(config, flow)
        assert samples.shape == (5, 2)
        assert period is None
        assert "orbit" in desc

    def test_shift_orbit_samples_are_basis_states(self, tmp_path):
        config = load_config(minimal_shift_config(tmp_path))
        flow = build_flow(config)
        samples, _, period = build_samples(config, flow)
        assert period == 8
        assert sorted(int(np.argmax(s)) for s in samples) == list(range(8))

    def test_explicit_samples_file(self, tmp_path):
        samples_file = tmp_path / "samples.csv"
        np.savetxt(samples_file, np.eye(8)[:4], delimiter=",")
        config = load_config(
            minimal_shift_config(tmp_path, samples_path=str(samples_file), num_samples=None)
        )
        flow = build_flow(config)
        samples, desc, period = build_samples(config, flow)
        assert samples.shape == (4, 8)
        assert period is None
        assert desc.startswith("file:")


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


class TestRunLemmaCheck:
    def test_shift8_all_bounds_hold(self, tmp_path):
        config = load_config(minimal_shift_config(tmp_path, delays="2,4"))
        out = str(tmp_path / "out")
        summary = run_lemma_check(config, out)
        assert summary["passed"]
        rows = read_csv(os.path.join(out, "lemma_check_M4.csv"))
        assert rows[0] == [
            "i", "j", "d", "soft_rank", "oracle_value", "bound_M_over_2", "satisfied",
        ]
        assert len(rows) - 1 == 28  # C(8, 2)
        assert all(row[6] == "true" for row in rows[1:])
        for row in rows[1:]:
            assert abs(float(row[3]) - float(row[4])) <= 1e-10
            assert float(row[3]) >= float(row[5]) - 1e-9
        summary_path = os.path.join(out, "lemma_summary.json")
        with open(summary_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["passed"]
        assert [e["num_delays"] for e in payload["per_m"]] == [2, 4]

    def test_non_shift_system_rejected(self, tmp_path):
        matrix_file = tmp_path / "m.csv"
        np.savetxt(matrix_file, np.diag([2.0, 0.5]), delimiter=",")
        path = write_config(
            tmp_path / "c.cfg",
            f"kind = linear\nmatrix_path = {matrix_file}\n"
            "origin = 1, 1\nnum_samples = 5\ndelays = 2\n",
        )
        with pytest.raises(InvalidArgumentError, match="shift"):
            run_lemma_check(load_config(path), str(tmp_path / "out"))

    def test_half_window_rows_attain_the_bound_exactly(self, tmp_path):
        # at M = N the pairs separated by N/2 reach soft rank M/2 on the nose
        config = load_config(
            minimal_shift_config(
                tmp_path, ambient_dim="16", num_samples="16", delays="16"
            )
        )
        out = str(tmp_path / "out")
        summary = run_lemma_check(config, out)
        assert summary["passed"]
        rows = read_csv(os.path.join(out, "lemma_check_M16.csv"))
        half_window = [row for row in rows[1:] if row[2] == "8"]
        assert len(half_window) == 8
        for row in half_window:
            assert float(row[4]) == 8.0  # oracle value is exact
            assert abs(float(row[3]) - 8.0) <= 1e-10
            assert row[6] == "true"

    def test_manifest_checksums_cover_data_files(self, tmp_path):
        config = load_config(minimal_shift_config(tmp_path))
        out = str(tmp_path / "out")
        run_lemma_check(config, out)
        with open(os.path.join(out, "run_manifest.json"), encoding="utf-8") as handle:
            manifest = json.load(handle)
        for name, digest in manifest["checksums"].items():
            with open(os.path.join(out, name), "rb") as data:
                assert hashlib.sha256(data.read()).hexdigest() == digest

    def test_lemma_check_certifies_the_minimal_classes(self, tmp_path):
        # on the 8-state orbit, the scan screens the 7 representatives (0, d)
        # by Gram and certifies the circularly adjacent classes d = 1 and 7,
        # 7 + 1 pairs: 8 dense SVDs in place of 28. At one thread each pass
        # is cut into four chunks, of at most two pairs
        config = load_config(minimal_shift_config(tmp_path, delays="2,4"))
        run_lemma_check(config, str(tmp_path / "out"))
        with open(tmp_path / "out" / "run_manifest.json", encoding="utf-8") as handle:
            counts = json.load(handle)["counts"]
        assert counts == {
            "per_m": [
                {"num_delays": m, "pairs": 28, "pairs_certified": 8, "chunks": 8, "draws": 0}
                for m in (2, 4)
            ]
        }


class TestRunScalingStudy:
    def test_needs_three_delay_counts(self, tmp_path):
        config = load_config(minimal_shift_config(tmp_path, delays="2,4"))
        with pytest.raises(ConfigError, match="delays"):
            run_scaling_study(config, str(tmp_path / "out"))

    def test_writes_table_and_slope(self, tmp_path):
        config = load_config(
            minimal_shift_config(
                tmp_path, ambient_dim="16", num_samples="16", delays="2,4,8"
            )
        )
        out = str(tmp_path / "out")
        summary = run_scaling_study(config, out)
        rows = read_csv(os.path.join(out, "scaling.csv"))
        assert rows[0] == [
            "M", "infimum_soft_rank", "eps_median", "eps_q05", "eps_q95", "eps_max",
        ]
        assert [int(r[0]) for r in rows[1:]] == [2, 4, 8]
        assert summary["slope"] == pytest.approx(summary["slope"])  # finite
        for row in rows[1:]:
            assert float(row[1]) >= int(row[0]) / 2.0 - 1e-9

    @pytest.mark.parametrize("origin", ["e3", "0.5, -1, 2, 0.25, 1.5, -0.75, 3, 1"])
    def test_manifest_counts_leave_the_data_files(self, tmp_path, monkeypatch, origin):
        config = load_config(
            minimal_shift_config(
                tmp_path, origin=origin, num_samples="8", delays="2,4,8", num_draws="12"
            )
        )
        run_scaling_study(config, str(tmp_path / "orbit"))
        # the same run with the orbit gate switched off screens every pair
        monkeypatch.setattr(spectral, "is_permutation_orbit", lambda flow, states: False)
        run_scaling_study(config, str(tmp_path / "gram"))
        manifests = {}
        for out in ("orbit", "gram"):
            with open(tmp_path / out / "run_manifest.json", encoding="utf-8") as handle:
                manifests[out] = json.load(handle)
            for name, digest in manifests[out]["checksums"].items():
                with open(tmp_path / out / name, "rb") as data:
                    content = data.read()
                assert hashlib.sha256(content).hexdigest() == digest
                assert b"pairs_certified" not in content
        assert manifests["orbit"]["checksums"] == manifests["gram"]["checksums"]
        for out in ("orbit", "gram"):
            per_m = manifests[out]["counts"]["per_m"]
            assert [entry["num_delays"] for entry in per_m] == [2, 4, 8]
            for entry in per_m:
                assert entry["pairs"] == 28 and entry["draws"] == 12
                assert 1 <= entry["pairs_certified"] <= 28
                # a screen of 7 representatives or 28 pairs, in four chunks
                # at one thread, and a certification pass cut by the same rule
                certified = spectral._chunks(entry["pairs_certified"], 1, 8 * entry["num_delays"])
                assert entry["chunks"] == 4 + len(certified)


class TestRunFullReport:
    def test_report_content(self, tmp_path):
        config = load_config(
            minimal_shift_config(
                tmp_path, ambient_dim="16", num_samples="16", delays="4",
                num_draws="20",
            )
        )
        out = str(tmp_path / "out")
        payload = run_full_report(config, out)
        assert payload["num_draws"] == 20
        assert payload["params"]["ambient_dim"] == 16
        assert len(payload["per_draw"]) == 20
        rates = payload["failure_rate_curve"]["rate"]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

        rows = read_csv(os.path.join(out, "per_pair.csv"))
        assert len(rows) - 1 == 16 * 15 // 2
        header = rows[0]
        assert header[:5] == ["i", "j", "state_dist_sq", "traj_dist_sq", "soft_rank"]

        with open(os.path.join(out, "geometry.json"), encoding="utf-8") as handle:
            geometry = json.load(handle)
        manifold = geometry["trajectory_manifold"]
        assert manifold["closed_curve"] is True
        assert manifold["volume"] > 0.0
        assert manifold["reach"] > 0.0
        assert geometry["inverse_flow_lyapunov"]["exponent"] == pytest.approx(0.0, abs=1e-10)
        # no c_user and manifold_dim, so no sufficient-condition check
        assert not os.path.exists(os.path.join(out, "theorem_check.json"))

    def test_each_draw_is_made_once(self, tmp_path, monkeypatch):
        # the delay-selection series takes the stream's first draw, not a
        # draw of its own
        calls = []
        draw_coeffs = delay_map.draw_coeffs

        def counting_draw_coeffs(*args, **kwargs):
            calls.append(args)
            return draw_coeffs(*args, **kwargs)

        # every import site, as the benchmark's tracer wraps them
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "delaycond" and vars(module).get("draw_coeffs") is draw_coeffs:
                monkeypatch.setattr(module, "draw_coeffs", counting_draw_coeffs)
        monkeypatch.setattr(runner, "draw_coeffs", counting_draw_coeffs, raising=False)
        config = load_config(
            minimal_shift_config(
                tmp_path, ambient_dim="16", num_samples="16", delays="4", num_draws="20",
            )
        )
        run_full_report(config, str(tmp_path / "out"))
        assert len(calls) == 20

    def test_per_pair_ratio_columns_are_per_pair_reductions(self, tmp_path, monkeypatch):
        matrix_file = tmp_path / "m.csv"
        np.savetxt(
            matrix_file, well_conditioned_flow(3, 6).matrix, delimiter=",", fmt="%.17g"
        )
        flows = {
            "linear": f"kind = linear\nmatrix_path = {matrix_file}\nensemble = gaussian\n",
            # Rademacher draws on a shift orbit: many ratios of a pair repeat exactly
            "shift": "kind = shift\nambient_dim = 16\nensemble = rademacher\n",
        }
        tied = False
        for kind, flow_lines in flows.items():
            # 7 pairs per slice of the report's order keys (budgeted at
            # _ENTRY_FLOATS doubles per draw and pair), so the 120 pairs cross
            # slice boundaries, or one pair per slice; numpy's own partition
            # order, or the least favourable one it is allowed to leave
            for pairs_per_chunk, partition in (
                (7, np.partition),
                (1, np.partition),
                (7, partition_descending_above_kth),
            ):
                # odd and even draw counts: the median is one middle value or
                # the mean of two
                for num_draws in (1, 2, 19, 20):
                    case = (
                        f"{kind}, {pairs_per_chunk} per chunk, {partition.__name__}, "
                        f"{num_draws} draws"
                    )
                    monkeypatch.setattr(
                        spectral,
                        "_CHUNK_BYTES",
                        pairs_per_chunk * 8 * embedding_analysis._ENTRY_FLOATS * num_draws,
                    )
                    monkeypatch.setattr(embedding_analysis.np, "partition", partition)
                    config = load_config(
                        write_config(
                            tmp_path / "c.cfg",
                            flow_lines + "num_samples = 16\ndelays = 4\n"
                            f"num_draws = {num_draws}\nbase_seed = 5\n",
                        )
                    )
                    out = str(tmp_path / case.replace(", ", "-").replace(" ", "_"))
                    run_full_report(config, out)
                    monkeypatch.undo()

                    flow = build_flow(config)
                    samples, _, _ = build_samples(config, flow)
                    table = PairTable(flow, samples, DelayParams(4))
                    ratios = np.stack([
                        table.ratios(coeffs.alpha)
                        for coeffs in draw_stream(config.ensemble, flow.ambient_dim, num_draws, 5)
                    ])
                    state_scale = table.traj_dist_sq / pdist(samples, "sqeuclidean")
                    rows = read_csv(os.path.join(out, "per_pair.csv"))
                    assert rows[0][5:] == [
                        "ratio_min", "ratio_median", "ratio_max",
                        "state_ratio_min", "state_ratio_median", "state_ratio_max",
                    ]
                    assert len(rows) - 1 == table.num_pairs == 120
                    for k, row in enumerate(rows[1:]):
                        column = ratios[:, k]
                        tied = tied or np.unique(column).size < num_draws // 2
                        expected = [
                            float(reduce(values))
                            for values in (column, column * state_scale[k])
                            for reduce in (np.min, np.median, np.max)
                        ]
                        assert [float(cell) for cell in row[5:]] == expected, f"{case}: pair {k}"
        assert tied  # some pair has fewer distinct ratios than half its draws

    def test_manifest_environment_leaves_the_data_files(self, tmp_path, monkeypatch):
        config = load_config(
            minimal_shift_config(
                tmp_path, ambient_dim="16", num_samples="16", delays="4", num_draws="20"
            )
        )
        manifests = {}
        for threads in (1, 2, 0):
            run_full_report(config, str(tmp_path / f"t{threads}"), threads=threads)
            with open(tmp_path / f"t{threads}" / "run_manifest.json", encoding="utf-8") as handle:
                manifests[threads] = json.load(handle)
        # the same run with no environment recorded
        monkeypatch.setattr(runner, "_environment", lambda threads: {})
        run_full_report(config, str(tmp_path / "bare"))
        with open(tmp_path / "bare" / "run_manifest.json", encoding="utf-8") as handle:
            bare = json.load(handle)
        assert bare["environment"] == {}
        for threads, manifest in manifests.items():
            assert manifest["checksums"] == bare["checksums"]
            for name, digest in manifest["checksums"].items():
                with open(tmp_path / f"t{threads}" / name, "rb") as data:
                    content = data.read()
                assert hashlib.sha256(content).hexdigest() == digest
                assert b"cpu_count" not in content
            assert manifest["environment"] == {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "threads": threads or usable_cpus(),
                "cpu_count": os.cpu_count(),
            }

    def test_theorem_check_emitted_when_constants_present(self, tmp_path):
        config = load_config(
            minimal_shift_config(
                tmp_path, ambient_dim="16", num_samples="16", delays="4",
                num_draws="10", c_user="1.0", manifold_dim="1.0",
            )
        )
        out = str(tmp_path / "out")
        run_full_report(config, out)
        with open(os.path.join(out, "theorem_check.json"), encoding="utf-8") as handle:
            check = json.load(handle)
        assert set(check) >= {
            "infimum_soft_rank", "epsilon", "satisfied", "degenerate", "c_user",
        }

    def test_explicit_samples_skip_orbit_geometry(self, tmp_path):
        samples_file = tmp_path / "samples.csv"
        np.savetxt(samples_file, np.eye(8)[:5], delimiter=",")
        config = load_config(
            minimal_shift_config(
                tmp_path, samples_path=str(samples_file), num_samples=None,
                num_draws="5",
            )
        )
        out = str(tmp_path / "out")
        run_full_report(config, out)
        with open(os.path.join(out, "geometry.json"), encoding="utf-8") as handle:
            geometry = json.load(handle)
        assert "note" in geometry["trajectory_manifold"]
        assert "volume" not in geometry["trajectory_manifold"]
        assert "exponent" in geometry["inverse_flow_lyapunov"]

    def test_theorem_check_needs_orbit_samples(self, tmp_path):
        samples_file = tmp_path / "samples.csv"
        np.savetxt(samples_file, np.eye(8)[:5], delimiter=",")
        config = load_config(
            minimal_shift_config(
                tmp_path, samples_path=str(samples_file), num_samples=None,
                num_draws="5", c_user="1.0", manifold_dim="1.0",
            )
        )
        with pytest.raises(ConfigError, match="c_user"):
            run_full_report(config, str(tmp_path / "out"))

    def test_gaussian_ensemble_labeled(self, tmp_path):
        config = load_config(
            minimal_shift_config(tmp_path, ensemble="gaussian", num_draws="5")
        )
        payload = run_full_report(config, str(tmp_path / "out"))
        assert payload["ensemble"] == "gaussian"

    def test_single_delay_count_required(self, tmp_path):
        config = load_config(minimal_shift_config(tmp_path, delays="2,4"))
        with pytest.raises(ConfigError, match="delays"):
            run_full_report(config, str(tmp_path / "out"))


class TestOneScanPerTable:
    @pytest.mark.parametrize(
        "command, delays",
        [("lemma-check", "2,4,8"), ("scaling", "2,4,8"), ("report", "4")],
    )
    def test_each_subcommand_scans_each_table_once(self, tmp_path, monkeypatch, command, delays):
        scanned = []

        def counting_scan(table, threads=1):
            scanned.append(table.shape[1])
            return infimum_soft_rank(table, threads=threads)

        monkeypatch.setattr(runner, "infimum_soft_rank", counting_scan)
        config_path = minimal_shift_config(tmp_path, delays=delays)
        assert main([command, "--config", config_path, "--out", str(tmp_path / "o")]) == 0
        assert scanned == [int(m) for m in delays.split(",")]

    def test_report_draws_before_its_scan(self, tmp_path, monkeypatch):
        # the (draws, pairs) ratio matrix is a local of monte_carlo, freed
        # before the scan runs: no array the report keeps has a row per draw
        calls, reports = [], []

        def recording_draws(table, draws, keep_per_pair=False):
            calls.append("draws")
            reports.append(monte_carlo(table, draws, keep_per_pair=keep_per_pair))
            return reports[-1]

        def recording_scan(table, threads=1):
            calls.append("scan")
            return infimum_soft_rank(table, threads=threads)

        monkeypatch.setattr(runner, "monte_carlo", recording_draws)
        monkeypatch.setattr(runner, "infimum_soft_rank", recording_scan)
        config_path = minimal_shift_config(tmp_path, num_draws="6")
        assert main(["report", "--config", config_path, "--out", str(tmp_path / "o")]) == 0
        assert calls == ["draws", "scan"]
        (report,) = reports
        shapes = {
            spec.name: getattr(report, spec.name).shape
            for spec in fields(report)
            if isinstance(getattr(report, spec.name), np.ndarray)
        }
        assert shapes == {"ratio_min": (28,), "ratio_mid": (2, 28), "ratio_max": (28,)}

    def test_scaling_holds_one_pair_table_at_a_time(self, tmp_path, monkeypatch):
        # each M's table and scan are freed before the next M builds its own;
        # the weak references are taken at each construction
        tables = []

        class TrackedTable(PairTable):
            def __init__(self, *args):
                alive = [ref().shape[1] for ref in tables if ref() is not None]
                assert not alive, f"the table of M = {alive} outlived its M"
                super().__init__(*args)
                tables.append(weakref.ref(self))

        monkeypatch.setattr(runner, "PairTable", TrackedTable)
        config = load_config(minimal_shift_config(tmp_path, delays="2,4,8"))
        run_scaling_study(config, str(tmp_path / "out"))
        assert len(tables) == 3
        assert all(ref() is None for ref in tables)


class TestSingleOutputPath:
    def test_csv_cells(self, tmp_path):
        path = tmp_path / "cells.csv"
        write_csv(
            str(path),
            {
                "flag": np.array([True, False, True, False, True, False]),
                "count": np.array([0, -1, 2**62, 7, 3, 1], dtype=np.int64),
                "value": np.array([0.1, -0.0, 1e-05, 5e-324, 1e16, 1.7976931348623157e308]),
            },
        )
        assert path.read_bytes() == (
            b"flag,count,value\r\n"
            b"true,0,0.1\r\n"
            b"false,-1,-0.0\r\n"
            b"true,4611686018427387904,1e-05\r\n"
            b"false,7,5e-324\r\n"
            b"true,3,1e+16\r\n"
            b"false,1,1.7976931348623157e+308\r\n"
        )

    @settings(max_examples=60, deadline=None)
    @given(columns=csv_columns())
    def test_csv_bytes_match_the_csv_writer(self, columns):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "cells.csv")
            write_csv(path, columns)
            with open(path, "rb") as handle:
                assert handle.read() == csv_writer_bytes(columns)

    def test_failed_rerun_leaves_the_directory_as_it_was(self, tmp_path, capsys):
        out = tmp_path / "out"
        good = minimal_shift_config(tmp_path, num_draws="5")
        assert main(["report", "--config", good, "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        # explicit samples have no orbit order, so the theorem check fails
        samples_file = tmp_path / "samples.csv"
        np.savetxt(samples_file, np.eye(8)[:5], delimiter=",")
        late_failure = minimal_shift_config(
            tmp_path, samples_path=str(samples_file), num_samples=None,
            num_draws="5", c_user="1.0", manifold_dim="1.0",
        )
        assert main(["report", "--config", late_failure, "--out", str(out)]) == 1
        assert "error: c_user: " in capsys.readouterr().err
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert after == before
        checksums = json.loads(after["run_manifest.json"])["checksums"]
        assert set(checksums) | {"run_manifest.json"} == set(after)
        for name, digest in checksums.items():
            assert hashlib.sha256(after[name]).hexdigest() == digest

    def test_two_orbit_samples_note_the_manifold(self, tmp_path):
        config_path = minimal_shift_config(tmp_path, num_samples="2", num_draws="3")
        out = tmp_path / "o"
        assert main(["report", "--config", config_path, "--out", str(out)]) == 0
        geometry = json.loads((out / "geometry.json").read_text(encoding="utf-8"))
        manifold = geometry["trajectory_manifold"]
        assert list(manifold) == ["note"]
        assert "at least 3" in manifold["note"]

    def test_constant_series_notes_the_delay_selection(self, tmp_path):
        # the shift orbit of e1 visits every axis, so its series is constant
        # exactly when all signs of the first draw agree
        seed = next(
            s for s in range(1000)
            if abs(draw_coeffs("rademacher", 8, derive_seed(s, 0)).alpha.sum()) == 8
        )
        config_path = minimal_shift_config(tmp_path, base_seed=str(seed), num_draws="3")
        out = tmp_path / "o"
        assert main(["report", "--config", config_path, "--out", str(out)]) == 0
        geometry = json.loads((out / "geometry.json").read_text(encoding="utf-8"))
        assert geometry["delay_selection"] == {
            "note": "series is constant under the first drawn coefficients"
        }

    def test_two_orbit_samples_cannot_feed_the_theorem_check(self, tmp_path, capsys):
        config_path = minimal_shift_config(
            tmp_path, num_samples="2", num_draws="3", c_user="1.0", manifold_dim="1.0"
        )
        out = tmp_path / "o"
        assert main(["report", "--config", config_path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: c_user: " in err and "at least 3" in err
        assert not out.exists()

    @staticmethod
    def straight_line_config(tmp_path, **overrides):
        """A report on the orbit of e1 under diag(1.1, 0.9, 1.05, 0.95): a ray."""
        np.savetxt(tmp_path / "flow.csv", np.diag([1.1, 0.9, 1.05, 0.95]), delimiter=",")
        return minimal_shift_config(
            tmp_path, kind="linear", ambient_dim=None, matrix_path=str(tmp_path / "flow.csv"),
            delays="3", num_draws="5", **overrides,
        )

    def test_straight_line_orbit_notes_the_manifold(self, tmp_path):
        config_path, out = self.straight_line_config(tmp_path), tmp_path / "o"
        assert main(["report", "--config", config_path, "--out", str(out)]) == 0
        geometry = json.loads((out / "geometry.json").read_text(encoding="utf-8"))
        manifold = geometry["trajectory_manifold"]
        assert list(manifold) == ["note"]
        assert "curved orbit" in manifold["note"] and "line" in manifold["note"]
        assert (out / "per_pair.csv").exists() and (out / "embedding_report.json").exists()

    def test_straight_line_orbit_cannot_feed_the_theorem_check(self, tmp_path, capsys):
        config_path = self.straight_line_config(tmp_path, c_user="1.0", manifold_dim="1.0")
        out = tmp_path / "o"
        assert main(["report", "--config", config_path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "error: c_user: " in captured.err and "reach" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    @pytest.mark.parametrize("geometry", ["samples_path", "two_samples", "straight_line"])
    def test_theorem_check_without_geometry_fails_before_the_draws(
        self, tmp_path, monkeypatch, capsys, geometry
    ):
        def no_draws(*args, **kwargs):
            raise AssertionError("the draws ran")

        monkeypatch.setattr(runner, "draw_stream", no_draws)
        monkeypatch.setattr(runner, "monte_carlo", no_draws)
        theorem_check = {"c_user": "1.0", "manifold_dim": "1.0"}
        if geometry == "samples_path":
            samples_file = tmp_path / "samples.csv"
            np.savetxt(samples_file, np.eye(8)[:5], delimiter=",")
            config_path = minimal_shift_config(
                tmp_path, samples_path=str(samples_file), num_samples=None, **theorem_check
            )
        elif geometry == "two_samples":
            config_path = minimal_shift_config(tmp_path, num_samples="2", **theorem_check)
        else:
            config_path = self.straight_line_config(tmp_path, **theorem_check)
        out = tmp_path / "o"
        assert main(["report", "--config", config_path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: c_user: " in err and "at least 3 orbit-ordered samples" in err
        assert not out.exists()

    def test_lemma_delays_above_ambient_dim_fail_before_the_scan(
        self, tmp_path, capsys, recwarn
    ):
        config_path = minimal_shift_config(tmp_path, delays="9")
        out = tmp_path / "o"
        assert main(["lemma-check", "--config", config_path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: delays: " in err and "N = 8" in err
        assert not list(recwarn)
        assert not out.exists()


class TestSchemaReference:
    @staticmethod
    def _collect_keys(obj, found):
        if isinstance(obj, dict):
            for key, value in obj.items():
                try:
                    float(key)
                    continue  # numeric keys (quantile levels) are values, not schema
                except ValueError:
                    pass
                found.add(key)
                if key not in ("checksums", "config"):  # file names / config echo
                    TestSchemaReference._collect_keys(value, found)
        elif isinstance(obj, list):
            for item in obj:
                TestSchemaReference._collect_keys(item, found)

    def test_every_emitted_column_and_field_is_documented(self, tmp_path):
        with open(SCHEMA_DOC, encoding="utf-8") as handle:
            documented = handle.read()

        # the config file is reloaded before each run, so reuse is safe
        lemma_cfg = load_config(minimal_shift_config(tmp_path, delays="2,4"))
        run_lemma_check(lemma_cfg, str(tmp_path / "lemma"))
        scaling_cfg = load_config(
            minimal_shift_config(
                tmp_path, ambient_dim="16", num_samples="16", delays="2,4,8"
            )
        )
        run_scaling_study(scaling_cfg, str(tmp_path / "scaling"))
        report_cfg = load_config(
            minimal_shift_config(
                tmp_path, ambient_dim="16", num_samples="16", delays="4",
                num_draws="10", c_user="1.0", manifold_dim="1.0",
            )
        )
        run_full_report(report_cfg, str(tmp_path / "report"))

        missing = set()
        for out in ("lemma", "scaling", "report"):
            out_dir = tmp_path / out
            for name in os.listdir(out_dir):
                path = os.path.join(out_dir, name)
                if name.endswith(".csv"):
                    for column in read_csv(path)[0]:
                        if column not in documented:
                            missing.add(f"{name}:{column}")
                else:
                    with open(path, encoding="utf-8") as handle:
                        keys = set()
                        self._collect_keys(json.load(handle), keys)
                    for key in keys:
                        if key not in documented:
                            missing.add(f"{name}:{key}")
        assert not missing, f"undocumented report fields: {sorted(missing)}"

    def test_config_table_lists_the_known_keys(self):
        with open(SCHEMA_DOC, encoding="utf-8") as handle:
            section = handle.read().split("## Config file")[1].split("\n## ")[0]
        documented = set(re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE))
        assert documented == _KNOWN_KEYS

    def test_config_table_defaults_are_the_field_defaults(self):
        with open(SCHEMA_DOC, encoding="utf-8") as handle:
            section = handle.read().split("## Config file")[1].split("\n## ")[0]
        rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section, flags=re.MULTILINE)
        documented = {
            key: match[1].replace("`", "")
            for key, meaning in rows
            if (match := re.search(r"\(default ([^;)]+)", meaning))
        }
        specs = {spec.name: spec for spec in fields(ExperimentConfig)}
        defaults = vars(ExperimentConfig())
        assert set(documented) == {key for key in _KNOWN_KEYS if defaults[key] is not None}
        for key, text in documented.items():
            assert specs[key].metadata["parse"](text) == defaults[key], key

    def test_result_records_hold_the_documented_fields(self, tmp_path):
        # each record is its result dataclass's fields; a field added there
        # must be documented and added here before it can enter a data file
        report_cfg = load_config(
            minimal_shift_config(
                tmp_path, ambient_dim="16", num_samples="16", delays="4",
                num_draws="3", c_user="1.0", manifold_dim="1.0",
            )
        )
        run_full_report(report_cfg, str(tmp_path / "report"))

        def read(name):
            with open(tmp_path / "report" / name, encoding="utf-8") as handle:
                return json.load(handle)

        geometry = read("geometry.json")
        per_draw = read("embedding_report.json")["per_draw"]
        assert [set(entry) for entry in per_draw] == [
            {"draw", "epsilon", "worst_pair", "alpha_seed"}
        ] * 3
        assert set(geometry["inverse_flow_lyapunov"]) == {"exponent", "num_steps", "num_probes"}
        assert set(geometry["delay_selection"]) == {
            "autocorr_first_zero", "mi_first_min", "num_bins", "series_alpha_seed",
            "series_length",
        }
        assert set(read("theorem_check.json")) == {
            "infimum_soft_rank", "epsilon", "epsilon_source", "manifold_dim", "volume",
            "reach", "c_user", "required_soft_rank", "satisfied", "degenerate",
        }


class TestCliMain:
    def test_lemma_check_exit_zero(self, tmp_path, capsys):
        config_path = minimal_shift_config(tmp_path)
        out = str(tmp_path / "cli_out")
        code = main(["lemma-check", "--config", config_path, "--out", out])
        assert code == 0
        assert os.path.exists(os.path.join(out, "lemma_summary.json"))
        assert "passed" in capsys.readouterr().out

    def test_bad_config_exit_one(self, tmp_path, capsys):
        config_path = write_config(tmp_path / "bad.cfg", "kind = warp\n")
        assert main(["report", "--config", config_path]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand, scale, from_file, message",
        [
            # the inverse flow multiplies by 4 per delay
            ("report", None, False, "backward iterate at delay index"),
            # shift orbits of (scale, 0, 0, 0.37 scale, 0, ...), from the
            # origin or from a file of six of their states
            ("scaling", 5e153, False, "isometry ratio"),
            ("report", 5e153, True, "squared trajectory distance overflows"),
            ("report", 3e153, True, "isometry ratio"),
            ("scaling", 1e160, False, "no finite norm"),
            ("report", 1e160, True, "squared trajectory distance overflows"),
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning", "ignore:num_delays=:RuntimeWarning")
    def test_overflowing_flow_exit_one_without_traceback(
        self, tmp_path, capsys, subcommand, scale, from_file, message
    ):
        if scale is None:
            matrix_file = tmp_path / "m.csv"
            np.savetxt(matrix_file, 0.25 * np.eye(4), delimiter=",")
            config_path = write_config(
                tmp_path / "c.cfg",
                f"kind = linear\nmatrix_path = {matrix_file}\n"
                "num_samples = 4\ndelays = 600\nnum_draws = 3\n",
            )
        else:
            states = large_shift_orbit(scale)
            if from_file:
                np.savetxt(tmp_path / "samples.csv", states, delimiter=",")
                where = {"samples_path": str(tmp_path / "samples.csv"), "num_samples": None}
            else:
                where = {"origin": ",".join(str(float(v)) for v in states[0])}
            config_path = minimal_shift_config(
                tmp_path,
                delays="2, 3, 4" if subcommand == "scaling" else "4",
                ensemble="gaussian",
                num_draws="5",
                **where,
            )
        out = tmp_path / "o"
        assert main([subcommand, "--config", config_path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and message in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    @pytest.mark.parametrize("subcommand, delays", [("report", "3"), ("scaling", "2, 3, 4")])
    def test_overflowing_forward_orbit_exit_one(self, tmp_path, capsys, subcommand, delays):
        # the orbit of a Gaussian matrix times 1e150 from an origin near 1e48
        # overflows at its second step; a numpy warning would fail the test
        matrix_file = tmp_path / "m.csv"
        matrix = 1e150 * np.random.default_rng(0).standard_normal((3, 3))
        np.savetxt(matrix_file, matrix, delimiter=",", fmt="%.17g")
        config_path = write_config(
            tmp_path / "c.cfg",
            f"kind = linear\nmatrix_path = {matrix_file}\norigin = 1e48, 2e48, -1e48\n"
            f"num_samples = 6\ndelays = {delays}\nnum_draws = 3\n",
        )
        out = tmp_path / "o"
        assert main([subcommand, "--config", config_path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "error: forward step 2 of the orbit from x0 is not finite" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_shift_orbit_exit_one_at_its_underflow(self, tmp_path, capsys):
        # the 8-state orbit of 1e-170 e1 is no fixed point; the table finds
        # that its squared trajectory distances underflow
        config_path = minimal_shift_config(
            tmp_path, delays="2, 3, 4", origin="1e-170, 0, 0, 0, 0, 0, 0, 0"
        )
        out = tmp_path / "o"
        assert main(["scaling", "--config", config_path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "error: samples 0 and 1: their squared trajectory distance underflows" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, argv, key",
        [
            ({"base_seed": "-1"}, [], "base_seed"),
            ({}, ["--seed", "-1"], "base_seed"),
            ({"sampling_interval": "inf"}, [], "sampling_interval"),
            ({"target_eps_grid": "0.5, inf"}, [], "target_eps_grid"),
            ({"c_user": "1e400", "manifold_dim": "1.0"}, [], "c_user"),
        ],
        ids=["base_seed", "--seed", "sampling_interval", "target_eps_grid", "c_user"],
    )
    def test_out_of_bound_key_exit_one(self, tmp_path, capsys, overrides, argv, key):
        config_path = minimal_shift_config(tmp_path, **overrides)
        out = tmp_path / "o"
        assert main(["report", "--config", config_path, "--out", str(out), *argv]) == 1
        captured = capsys.readouterr()
        assert f"error: {key}: " in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, key, message",
        [
            ({"kind": None}, "kind", "required"),
            ({"ambient_dim": None}, "ambient_dim", "required for kind = shift"),
            ({"num_samples": None}, "num_samples", "required when samples_path"),
            ({"delays": None}, "delays", "required"),
            ({"num_samples": "abc"}, "num_samples", "expected an integer"),
            ({"sampling_interval": "fast"}, "sampling_interval", "expected a number"),
            ({"origin": "x1"}, "origin", "expected 'e<k>'"),
            ({"num_samples": None, "samples_path": "samples.csv"}, "samples_path",
             "states have dimension 3, flow dimension is 8"),
        ],
        ids=["kind", "ambient_dim", "num_samples", "delays", "integer", "number", "origin",
             "samples_path"],
    )
    def test_missing_or_malformed_key_exit_one(self, tmp_path, capsys, overrides, key, message):
        np.savetxt(tmp_path / "samples.csv", np.eye(3), delimiter=",")
        config_path = minimal_shift_config(tmp_path, **overrides)
        out = tmp_path / "o"
        assert main(["report", "--config", config_path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"error: {key}: {message}" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    def test_bin_count_above_the_series_length_exit_one(self, tmp_path, capsys, monkeypatch):
        def no_histogram(*args, **kwargs):
            raise AssertionError("a histogram was formed")

        monkeypatch.setattr(np, "histogram2d", no_histogram)
        # the 8 orbit samples make a series of length 8
        config_path = minimal_shift_config(tmp_path, num_bins="17")
        out = tmp_path / "o"
        assert main(["report", "--config", config_path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "error: num_bins must be <= max(series length 8, 16), got 17" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    def test_overflowing_theorem_term_exit_one(self, tmp_path, capsys):
        # every draw runs; then the orbit's volume to the power 1 / 0.001 overflows
        config_path = minimal_shift_config(tmp_path, c_user="1.0", manifold_dim="0.001")
        out = tmp_path / "o"
        assert main(["report", "--config", config_path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "error: theorem check: the term " in captured.err
        assert "volume^(1/manifold_dim)" in captured.err and "overflows" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, overrides",
        [
            ("scaling", {"delays": "2, 3, 4"}),
            ("report", {"delays": "4", "c_user": "1.0", "manifold_dim": "1.0"}),
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_median_eps_exit_one(self, tmp_path, capsys, command, overrides):
        # at M = N = 4 the one draw of base seed 1 measures every pair exactly,
        # so the median eps is 0: log(eps) and the theorem check are undefined
        config_path = minimal_shift_config(
            tmp_path, ambient_dim="4", origin="e1", num_samples="4", num_draws="1",
            base_seed="1", **overrides,
        )
        out = tmp_path / "o"
        assert main([command, "--config", config_path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "median eps over the draws is 0" in captured.err
        if command == "scaling":
            assert "at M = 4" in captured.err
        else:
            assert "error: c_user: " in captured.err
        assert "nan" not in (captured.err + captured.out).lower()
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    def test_descending_delays_exit_one_naming_the_key(self, tmp_path, capsys):
        config_path = minimal_shift_config(tmp_path, delays="3, 2, 4")
        out = tmp_path / "o"
        assert main(["scaling", "--config", config_path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "error: delays: " in captured.err and "[3, 2, 4]" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    @pytest.mark.parametrize("command", ["lemma-check", "scaling", "report"])
    def test_threads_above_the_bound_exit_one_before_any_pool(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool started")

        monkeypatch.setattr(spectral, "ThreadPoolExecutor", no_pool)
        config_path = minimal_shift_config(
            tmp_path, delays="2, 3, 4" if command == "scaling" else "4"
        )
        out = tmp_path / "o"
        argv = ["--config", config_path, "--out", str(out), "--threads", str(10**9)]
        assert main([command, *argv]) == 1
        captured = capsys.readouterr()
        assert f"error: threads: must be in [0, {spectral.MAX_THREADS}]" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, delays", [("lemma-check", "2, 4, 2"), ("scaling", "2, 4, 4")]
    )
    def test_repeated_delay_count_exit_one(self, tmp_path, capsys, command, delays):
        config_path = minimal_shift_config(tmp_path, delays=delays)
        out = tmp_path / "o"
        assert main([command, "--config", config_path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"error: delays: {delays[-1]} is given twice" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    def test_underflowing_trajectory_distance_exit_one(self, tmp_path, capsys):
        # six Gaussian states at 1e-160 under an orthogonal flow: every
        # squared trajectory distance is subnormal
        rng = np.random.default_rng(0)
        np.savetxt(tmp_path / "flow.csv", np.linalg.qr(rng.standard_normal((4, 4)))[0],
                   delimiter=",", fmt="%.17g")
        np.savetxt(tmp_path / "samples.csv", 1e-160 * rng.standard_normal((6, 4)),
                   delimiter=",", fmt="%.17g")
        config_path = minimal_shift_config(
            tmp_path, kind="linear", ambient_dim=None, matrix_path=str(tmp_path / "flow.csv"),
            samples_path=str(tmp_path / "samples.csv"), num_samples=None, delays="3",
        )
        out = tmp_path / "o"
        assert main(["report", "--config", config_path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert (
            "error: samples 0 and 1: their squared trajectory distance underflows"
            in captured.err
        )
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    @pytest.mark.parametrize("scale", [1e-170, 1e-200])
    @pytest.mark.parametrize("equal", [False, True])
    def test_states_below_1e_162_exit_one_by_their_real_cause(
        self, tmp_path, capsys, scale, equal
    ):
        # the squared state distances underflow to 0: distinct states must
        # not be reported as coincident, equal ones still are
        samples = scale * np.random.default_rng(0).standard_normal((6, 4))
        if equal:
            samples[3] = samples[1]
        np.savetxt(tmp_path / "samples.csv", samples, delimiter=",", fmt="%.17g")
        config_path = minimal_shift_config(
            tmp_path, ambient_dim="4", samples_path=str(tmp_path / "samples.csv"),
            num_samples=None, delays="3",
        )
        out = tmp_path / "o"
        assert main(["report", "--config", config_path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        if equal:
            assert "error: samples 1 and 3 coincide" in captured.err
        else:
            assert (
                "error: samples 0 and 1: their squared trajectory distance underflows"
                in captured.err
            )
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    @pytest.mark.parametrize("command", ["scaling", "report"])
    def test_ambient_dim_must_match_the_flow_matrix(self, tmp_path, capsys, command):
        matrix_file = tmp_path / "flow.csv"
        np.savetxt(matrix_file, np.diag([2.0, 0.5, 1.0, 1.5]), delimiter=",")
        config_path = minimal_shift_config(
            tmp_path, kind="linear", ambient_dim="9", matrix_path=str(matrix_file),
            delays="2,3,4" if command == "scaling" else "2",
        )
        out = tmp_path / "o"
        assert main([command, "--config", config_path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "error: ambient_dim: 9 does not match the 4 x 4 matrix" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_sample_exit_one(self, tmp_path, capsys, bad):
        # an infinite entry is named like a NaN, not taken for a coincident pair
        samples = np.eye(8)[:4]
        samples[2, 5] = float(bad)
        samples_file = tmp_path / "samples.csv"
        np.savetxt(samples_file, samples, delimiter=",")
        config_path = minimal_shift_config(
            tmp_path, samples_path=str(samples_file), num_samples=None
        )
        assert main(["report", "--config", config_path, "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert "error: sample 2: " in captured.err
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize("key", ["samples_path", "matrix_path"])
    @pytest.mark.parametrize(
        "text, message",
        [("1,0\nx,1\n", "could not parse CSV"), ("", "no rows"), ("# none\n", "no rows")],
    )
    def test_malformed_csv_exit_one_without_traceback(
        self, tmp_path, capsys, recwarn, key, text, message
    ):
        csv_file = tmp_path / "data.csv"
        csv_file.write_text(text, encoding="utf-8")
        if key == "samples_path":
            config_path = minimal_shift_config(
                tmp_path, ambient_dim="2", samples_path=str(csv_file), num_samples=None
            )
        else:
            config_path = minimal_shift_config(
                tmp_path, kind="linear", ambient_dim=None, matrix_path=str(csv_file)
            )
        assert main(["report", "--config", config_path, "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert f"error: {key}: " in captured.err and message in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    def test_missing_config_exit_one(self, tmp_path):
        assert main(["report", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_bad_usage_exit_one(self, capsys):
        assert main(["report", "--no-such-flag"]) == 1
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_assertion_failure_exit_two(self, tmp_path, monkeypatch, capsys):
        # exit-code contract: a failed lemma assertion maps to 2
        import delaycond.cli as cli_module

        def fake_run(config, out_dir, threads=1):
            return {
                "per_m": [
                    {
                        "num_delays": 4,
                        "infimum": 1.0,
                        "num_pairs": 1,
                        "all_bounds_satisfied": False,
                        "oracle_agreement_ok": True,
                    }
                ],
                "passed": False,
            }

        monkeypatch.setattr(cli_module, "run_lemma_check", fake_run)
        config_path = minimal_shift_config(tmp_path)
        assert main(["lemma-check", "--config", config_path]) == 2

    def test_seed_override_changes_results(self, tmp_path):
        config_path = minimal_shift_config(
            tmp_path, ambient_dim="16", num_samples="16", num_draws="5",
            ensemble="gaussian",
        )
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert main(["report", "--config", config_path, "--out", out_a, "--seed", "1"]) == 0
        assert main(["report", "--config", config_path, "--out", out_b, "--seed", "2"]) == 0
        with open(os.path.join(out_a, "embedding_report.json")) as fa:
            payload_a = json.load(fa)
        with open(os.path.join(out_b, "embedding_report.json")) as fb:
            payload_b = json.load(fb)
        assert payload_a["base_seed"] == 1 and payload_b["base_seed"] == 2
        with open(os.path.join(out_a, "run_manifest.json")) as fm:
            assert json.load(fm)["config"]["base_seed"] == "1"
        seeds_a = [d["alpha_seed"] for d in payload_a["per_draw"]]
        seeds_b = [d["alpha_seed"] for d in payload_b["per_draw"]]
        assert set(seeds_a).isdisjoint(seeds_b)
        assert payload_a["eps_median"] != payload_b["eps_median"]

    def test_scaling_subcommand(self, tmp_path):
        config_path = minimal_shift_config(
            tmp_path, ambient_dim="16", num_samples="16", delays="2,4,8", num_draws="10"
        )
        out = str(tmp_path / "s")
        assert main(["scaling", "--config", config_path, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "scaling.csv"))


MATRIX_KINDS = ("integer", "diagonal", "permutation", "near-singular", "scaled", "non-finite")


def random_matrix(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """An n x n flow matrix of one of ``MATRIX_KINDS``."""
    if kind == "integer":
        return rng.integers(-3, 4, (n, n)).astype(float)
    if kind == "diagonal":
        return np.diag(rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0], n))
    if kind == "permutation":
        return np.eye(n)[rng.permutation(n)]
    matrix = rng.standard_normal((n, n))
    if kind == "near-singular":  # two rows 1e-13 apart
        matrix[-1] = matrix[0] + 1e-13 * matrix[-1]
    elif kind == "scaled":
        matrix *= 10.0 ** rng.choice([-150, 150])
    elif kind == "non-finite":
        matrix[rng.integers(n), rng.integers(n)] = rng.choice([np.inf, -np.inf, np.nan])
    return matrix


@st.composite
def cli_runs(draw):
    """(subcommand, config keys, CSV files) of one small random run of the CLI."""
    command = draw(st.sampled_from(["lemma-check", "scaling", "report"]))
    kind = draw(st.sampled_from(["shift", "linear"]))
    dim = draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys = {"kind": kind, "ambient_dim": str(dim)}
    files = {}
    if kind == "linear":
        files["m.csv"] = random_matrix(draw(st.sampled_from(MATRIX_KINDS)), dim, rng)
        keys["matrix_path"] = "m.csv"
    num_samples = draw(st.integers(2, 12))
    scale = 10.0 ** draw(st.sampled_from([0, -200, 200]))
    where = draw(st.sampled_from(["axis", "origin", "file"]))
    if where == "file":
        states = scale * rng.standard_normal((num_samples, dim))
        if draw(st.booleans()):
            states[-1] = states[0]
        files["s.csv"] = states
        keys["samples_path"] = "s.csv"
    else:
        origin = scale * rng.standard_normal(dim)
        keys["origin"] = (
            f"e{draw(st.integers(1, dim))}" if where == "axis" else ",".join(map(repr, origin.tolist()))
        )
        keys["num_samples"] = str(num_samples)
    num_delays = 3 if command == "scaling" else 1
    delays = draw(st.lists(st.integers(1, 12), min_size=num_delays, max_size=num_delays, unique=True))
    keys["delays"] = ",".join(map(str, sorted(delays)))
    keys["ensemble"] = draw(st.sampled_from(["rademacher", "gaussian"]))
    keys["num_draws"] = str(draw(st.integers(1, 5)))
    keys["base_seed"] = str(draw(st.integers(0, 1000)))
    extreme = st.sampled_from(["1e-300", "1", "1e300"])
    if draw(st.booleans()):
        keys["sampling_interval"] = draw(extreme)
    if draw(st.booleans()):
        keys["target_eps_grid"] = ",".join(draw(st.lists(extreme, min_size=1, max_size=3)))
    if draw(st.booleans()):
        keys["c_user"], keys["manifold_dim"] = draw(extreme), draw(extreme)
    if draw(st.booleans()):
        keys["num_bins"] = draw(st.sampled_from(["2", "16", "1000000"]))
    return command, keys, files


def _no_constant(name):
    raise AssertionError(f"a JSON data file holds {name}")


def assert_finite_data_files(out_dir: str) -> None:
    """No number in a CSV or JSON file of ``out_dir`` is NaN or infinite."""
    for name in os.listdir(out_dir):
        path = os.path.join(out_dir, name)
        with open(path, encoding="utf-8") as handle:
            if name.endswith(".json"):
                json.load(handle, parse_constant=_no_constant)
                continue
            for row in list(csv.reader(handle))[1:]:
                for cell in row:
                    if cell not in ("true", "false"):
                        assert math.isfinite(float(cell)), f"{name}: {row}"


class TestRandomConfigs:
    @pytest.mark.filterwarnings("error", "ignore:num_delays=:RuntimeWarning")
    def test_random_configs_exit_cleanly(self):
        # every run exits 0, 1 or 2 with no other exception and no numpy
        # warning; an exit 1 writes nothing, and no data file holds NaN or inf
        outcomes = set()

        @settings(max_examples=40, deadline=None, derandomize=True, database=None)
        @given(run=cli_runs())
        def run_one(run):
            command, keys, files = run
            with tempfile.TemporaryDirectory() as directory:
                for name, rows in files.items():
                    np.savetxt(os.path.join(directory, name), rows, delimiter=",", fmt="%.17g")
                config_path = write_config(
                    pathlib.Path(directory, "c.cfg"),
                    "".join(f"{key} = {value}\n" for key, value in keys.items()),
                )
                out = os.path.join(directory, "out")
                code = main([command, "--config", config_path, "--out", out, "--threads", "1"])
                assert code in (0, 1, 2)
                if code == 1:
                    assert not os.path.exists(out)
                else:
                    assert_finite_data_files(out)
            outcomes.add((command, code))

        run_one()
        # each subcommand, the report's reordered draws and scan included, ran to the end
        assert {("lemma-check", 0), ("scaling", 0), ("report", 0)} <= outcomes, outcomes
