import csv
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpflow import data
from dpflow.data import (Dataset, _parse_plain, dimwise_histogram,
                         gen_gaussians8, gen_half_moons, gen_pinwheel,
                         knn_regress_mse, load_csv, make_cv_splits,
                         pca_project, save_csv, standardize, write_rows)
from dpflow.errors import ConfigurationError, NonFiniteInputError


class TestCsv:
    def test_literal_two_by_two(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1,2\n3,4\n")
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.X, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_consumed(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("x,y\n1,2\n")
        ds = load_csv(path, has_header=True)
        assert vars(ds).keys() == {"X"}
        np.testing.assert_array_equal(ds.X, [[1.0, 2.0]])

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(40, 3)) * 1e3)
        path = tmp_path / "c.csv"
        save_csv(path, ds)
        back = load_csv(path)
        np.testing.assert_array_equal(back.X, ds.X)

    def test_ragged_row_diagnostics(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ConfigurationError, match="row 2"):
            load_csv(path)

    def test_non_numeric_diagnostics(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("1,2\n3,zap\n")
        with pytest.raises(ConfigurationError, match="row 2, column 2"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("")
        with pytest.raises(ConfigurationError, match="empty"):
            load_csv(path)


def csv_writer_oracle(header, rows):
    """The reference table writer: csv.writer over repr(float(v)) cells
    (ints written as they are)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    writer.writerows([[v if isinstance(v, int) else repr(float(v))
                       for v in row] for row in rows])
    return buf.getvalue()


class TestCsvBulk:
    def test_save_csv_bytes_match_writer_oracle(self, tmp_path):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 3)) * 10.0 ** rng.integers(-300, 300, (50, 3))
        X[0] = [np.inf, -np.inf, -0.0]
        X[1] = [0.0, 5e-324, 1.7976931348623157e308]
        path = tmp_path / "x.csv"
        save_csv(path, X)
        assert path.read_bytes() == csv_writer_oracle(None, X).encode()
        # A Dataset is written as its rows, with no header line.
        save_csv(path, Dataset(X[2:]))
        assert path.read_bytes() == csv_writer_oracle(None, X[2:]).encode()
        # Integer and 1-D inputs are written as floats, one row.
        save_csv(path, np.array([1, 2, 3]))
        assert path.read_text() == "1.0,2.0,3.0\n"

    def test_write_rows_mixed_int_float_rows(self):
        rows = [[0, 0.1, 1e-05, 7], [1, -2.5, float("inf"), 0]]
        buf = io.StringIO()
        write_rows(buf, ["dim", "lo", "hi", "count"], rows)
        assert buf.getvalue() == csv_writer_oracle(
            ["dim", "lo", "hi", "count"], rows)

    @pytest.mark.parametrize("cell", [
        "1_0", " 1.5 ", "+.5", "1e-400", "-0", "0x10", "", "1__0", ".",
        "1e", "nan", "-inf", "1e400", "\u0661\u0662", " "])
    def test_cells_read_as_float_reads_them(self, tmp_path, cell):
        path = tmp_path / "cell.csv"
        path.write_text(f"1.0,2.0\n3.0,{cell}\n")
        try:
            want = float(cell)
        except ValueError:
            with pytest.raises(ConfigurationError) as err:
                load_csv(path)
            assert str(err.value) == (f"{path}: non-numeric cell at row 2, "
                                      f"column 2: {cell!r}")
            return
        if not np.isfinite(want):
            with pytest.raises(NonFiniteInputError):
                load_csv(path)
            return
        got = load_csv(path).X
        assert got[1, 1].tobytes() == np.float64(want).tobytes()

    def test_first_bad_cell_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n3,4\n5,oops\nzap,6\n")
        with pytest.raises(ConfigurationError) as err:
            load_csv(path, has_header=True)
        assert str(err.value) == \
            f"{path}: non-numeric cell at row 3, column 2: 'oops'"

    def test_ragged_row_message(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3,4\n5,zap,6\n")
        with pytest.raises(ConfigurationError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: row 3 has 3 cells, expected 2"

    def test_parse_matches_float_per_cell(self, tmp_path):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(300, 2)) * 10.0 ** rng.integers(-300, 300, (300, 2))
        lines = [f"{a!r},{b:.25g}" for a, b in X.tolist()]
        lines += [f'"{a:.17e}", {b:.30g}' for a, b in X.tolist()]
        path = tmp_path / "p.csv"
        path.write_text("\n".join(lines) + "\n")
        want = np.array([[float(c) for c in row]
                         for row in csv.reader(lines)])
        assert load_csv(path).X.tobytes() == want.tobytes()


def csv_float_oracle(path, has_header=False):
    """The reference reader: csv rows of one non-zero width, each cell
    read by ``float()``, every value finite. Returns the array, or None where the
    file is refused."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error):
        return None
    if has_header:
        rows = rows[1:]
    if not rows or not rows[0] or any(len(row) != len(rows[0])
                                      for row in rows):
        return None
    try:
        values = [[float(cell) for cell in row] for row in rows]
    except ValueError:
        return None
    data = np.array(values, dtype=float).reshape(len(rows), len(rows[0]))
    return data if np.all(np.isfinite(data)) else None


class TestCsvFastPath:
    @pytest.mark.parametrize("text, want", [
        ("1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("1,2\n3,4", [[1.0, 2.0], [3.0, 4.0]]),
        ("1,2\r3,4\r", [[1.0, 2.0], [3.0, 4.0]]),
        (" 1 ,\t2\x0c\n", [[1.0, 2.0]]),
        ("1,2\n\n3,4\n", "row 2 has 0 cells, expected 2"),
        ("1,2\n3,4\n\n", "row 3 has 0 cells, expected 2"),
        ("1,2\r\n\r\n3,4\r\n", "row 2 has 0 cells, expected 2"),
        ("\n1,2\n", "row 1 is blank"),
        ("\n\n", "row 1 is blank"),
        ("1,2\n   \n3,4\n", "row 2 has 1 cells, expected 2"),
        ("1\n \n2\n", "non-numeric cell at row 2, column 1: ' '"),
        ("1,2\n#3,4\n", "non-numeric cell at row 2, column 1: '#3'"),
        ("# note\n1,2\n", "row 2 has 2 cells, expected 1"),
        ("1,2 # note\n", "non-numeric cell at row 1, column 2: '2 # note'"),
    ], ids=["crlf", "no_final_newline", "cr", "whitespace_cells",
            "blank_line", "blank_last_line", "blank_crlf_line",
            "blank_first_line", "only_blank_lines", "whitespace_only_line",
            "whitespace_only_cell", "hash_cell", "hash_line",
            "trailing_comment"])
    def test_cases(self, tmp_path, text, want):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        if isinstance(want, str):
            with pytest.raises(ConfigurationError) as err:
                load_csv(path)
            assert str(err.value) == f"{path}: {want}"
            assert csv_float_oracle(path) is None
            return
        got = load_csv(path).X
        assert got.tobytes() == np.array(want).tobytes()
        assert got.tobytes() == csv_float_oracle(path).tobytes()

    def test_plain_tables_take_the_c_parser(self, tmp_path):
        path = tmp_path / "p.csv"
        for text, taken in [
                ("1,2\n3,4\n", True), ("1,2\r\n3,4", True), ("1\r2\r", True),
                ("-0,1e-400\n", True), ("", False), ("\n", False),
                ("1\n\n2\n", False), ("1\n \n2\n", False),
                ("1\r\r\n2\n", False), ('"1",2\n', False), ("1_0\n", False),
                ("\u0661\n", False), ("\ufeff1\n", False)]:
            path.write_bytes(text.encode())
            assert (_parse_plain(path, text, 0) is not None) == taken, text
        path.write_bytes(b'"a\nb",c\r\n1,2\r\n')
        np.testing.assert_array_equal(_parse_plain(path, "1,2\r\n", 2),
                                      [[1.0, 2.0]])

    def test_header_over_two_lines(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_bytes(b'"a\nb",c\r\n1,2\r\n3,4\r\n')
        ds = load_csv(path, has_header=True)
        np.testing.assert_array_equal(ds.X, [[1.0, 2.0], [3.0, 4.0]])

    def test_undecodable_bytes_rejected(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_bytes(b"1,2\n\xff\xfe,3\n")
        with pytest.raises(ConfigurationError, match="unreadable"):
            load_csv(path)


NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda v: f"{v:.9g}"),
    st.integers(-10**20, 10**20).map(str),
)
EXOTIC_CELLS = st.one_of(
    st.sampled_from([
        "1_0", " 1.5 ", "+.5", "1e-400", "1e400", "-0", "0x10", "", " ",
        ".", "1e", "nan", "-inf", "Infinity", "\u0661\u0662", "\ufeff1",
        '"2.5"', '"1,5"', '"7\n"', "#3", "1\x00", "\x0c4\x0c", "\xa05",
        "1 2", "\u0663.\u0665", "1\r", "\t6"]),
    st.text(max_size=4),
)


@st.composite
def csv_texts(draw):
    """Mostly rectangular numeric tables, with exotic cells, ragged rows,
    blank or whitespace-only lines and mixed line endings mixed in."""
    width = draw(st.integers(1, 4))
    cells = st.one_of(NUMBER_CELLS, NUMBER_CELLS, NUMBER_CELLS, EXOTIC_CELLS)
    endings = st.sampled_from(["\n", "\r\n", "\r"])
    ending = draw(endings)
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 19))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", " , "])))
            continue
        w = width if kind > 1 else draw(st.integers(0, 5))
        lines.append(",".join(draw(st.lists(cells, min_size=w,
                                            max_size=w))))
    text = "".join(line + (draw(endings) if draw(st.integers(0, 9)) == 0
                           else ending) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode()


CSV_FILES = st.one_of(csv_texts(), csv_texts(),
                      st.text(max_size=40).map(str.encode),
                      st.binary(max_size=40))


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=CSV_FILES, has_header=st.booleans())
def test_load_csv_accepts_what_the_float_oracle_accepts(tmp_path, raw,
                                                         has_header):
    path = tmp_path / "random.csv"
    path.write_bytes(raw)
    want = csv_float_oracle(path, has_header)
    if want is None:
        with pytest.raises((ConfigurationError, NonFiniteInputError)):
            load_csv(path, has_header=has_header)
        return
    got = load_csv(path, has_header=has_header).X
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestStandardize:
    def test_exact_moments(self):
        rng = np.random.default_rng(1)
        ds = standardize(Dataset(rng.normal(2.0, 3.0, size=(200, 4))))
        np.testing.assert_allclose(ds.X.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(ds.X.std(axis=0), 1.0, rtol=1e-12)

    def test_inverse_round_trip(self):
        """Rescaling by the original rows' mean and std gives them back."""
        rng = np.random.default_rng(2)
        original = Dataset(rng.normal(5.0, 0.1, size=(50, 2)))
        back = standardize(original).X * original.X.std(axis=0) \
            + original.X.mean(axis=0)
        np.testing.assert_allclose(back, original.X, atol=1e-12)

    def test_constant_column_rejected(self):
        with pytest.raises(ConfigurationError, match="column 1"):
            standardize(Dataset(np.column_stack([np.arange(5.0),
                                                 np.full(5, 2.0)])))

    def test_single_row_rejected(self):
        with pytest.raises(ConfigurationError):
            standardize(Dataset(np.ones((1, 3))))


class TestCvSplits:
    def test_sizes(self):
        splits = make_cv_splits(26733, folds=10, seed=0)
        assert len(splits) == 10
        for train, test in splits:
            assert abs(len(test) - 2673) <= 1
            assert len(train) + len(test) == 26733

    def test_disjoint_and_covering(self):
        for train, test in make_cv_splits(103, folds=4, seed=1):
            combined = np.sort(np.concatenate([train, test]))
            np.testing.assert_array_equal(combined, np.arange(103))

    def test_seed_determinism(self):
        a = make_cv_splits(50, folds=3, seed=7)
        b = make_cv_splits(50, folds=3, seed=7)
        for (ta, sa), (tb, sb) in zip(a, b):
            np.testing.assert_array_equal(ta, tb)
            np.testing.assert_array_equal(sa, sb)

    def test_too_small(self):
        with pytest.raises(ConfigurationError):
            make_cv_splits(5, folds=10)

    @pytest.mark.parametrize("folds", [0, -2])
    def test_folds_below_one_rejected(self, folds):
        with pytest.raises(ConfigurationError, match="folds must be >= 1"):
            make_cv_splits(50, folds=folds)


class TestHalfMoons:
    def test_noise_free_points_on_arcs(self):
        ds = gen_half_moons(1000, noise_std=0.0, seed=3)
        upper, lower = ds.X[:500], ds.X[500:]
        assert np.abs(np.linalg.norm(upper, axis=1) - 1.0).max() < 1e-12
        assert np.all(upper[:, 1] >= -1e-12)
        shifted = lower - np.array([1.0, 0.5])
        assert np.abs(np.linalg.norm(shifted, axis=1) - 1.0).max() < 1e-12
        assert np.all(shifted[:, 1] <= 1e-12)

    def test_row_count_and_balance(self):
        assert gen_half_moons(999, seed=0).n == 999
        ds = gen_half_moons(999, noise_std=0.0, seed=0)
        on_upper = np.abs(np.linalg.norm(ds.X, axis=1) - 1.0) < 1e-9
        assert abs(int(on_upper.sum()) - (999 - int(on_upper.sum()))) <= 1

    def test_seed_determinism(self):
        np.testing.assert_array_equal(gen_half_moons(100, seed=5).X,
                                      gen_half_moons(100, seed=5).X)

    @pytest.mark.parametrize("noise_std", [-0.5, np.nan, np.inf])
    def test_bad_noise_std_rejected(self, noise_std):
        """A negative or NaN noise level gave noise-free arcs; it is
        refused, as is an infinite one."""
        with pytest.raises(ConfigurationError, match="noise_std"):
            gen_half_moons(100, noise_std=noise_std, seed=0)


class TestPinwheelAndGaussians:
    def test_pinwheel_noise_free_clusters(self, monkeypatch):
        from scipy.cluster.hierarchy import fcluster, linkage

        from dpflow import data
        monkeypatch.setattr(data, "PINWHEEL_RADIAL_STD", 0.0)
        monkeypatch.setattr(data, "PINWHEEL_TANGENTIAL_STD", 0.0)
        ds = gen_pinwheel(100, arms=5, seed=4)
        labels = fcluster(linkage(ds.X, method="single"), t=0.1,
                          criterion="distance")
        assert len(np.unique(labels)) == 5

    @pytest.mark.parametrize("arms", [0, -3])
    def test_pinwheel_arms_below_one_rejected(self, arms):
        """Zero arms gave NaN rows; fewer than one arm is refused."""
        with pytest.raises(ConfigurationError, match="arms must be >= 1"):
            gen_pinwheel(100, arms=arms, seed=0)

    def test_pinwheel_row_count_and_determinism(self):
        assert gen_pinwheel(12345, seed=0).n == 12345
        np.testing.assert_array_equal(gen_pinwheel(200, seed=1).X,
                                      gen_pinwheel(200, seed=1).X)

    def test_gaussians8_cluster_balance(self):
        ds = gen_gaussians8(100_000, seed=6)
        angles = np.arctan2(ds.X[:, 1], ds.X[:, 0])
        sector = np.round(angles / (np.pi / 4)).astype(int) % 8
        expected = 100_000 / 8
        sd = np.sqrt(100_000 * (1 / 8) * (7 / 8))
        for count in np.bincount(sector, minlength=8):
            assert abs(count - expected) < 3 * sd

    def test_gaussians8_row_count_and_determinism(self):
        a = gen_gaussians8(500, seed=7)
        assert a.n == 500
        np.testing.assert_array_equal(a.X, gen_gaussians8(500, seed=7).X)


def knn_oracle(train, test, k):
    Xtr, ytr = train[:, :-1], train[:, -1]
    Xte, yte = test[:, :-1], test[:, -1]
    errs = []
    for row, target in zip(Xte, yte):
        dists = [(float(np.sum((row - t) ** 2)), i) for i, t in enumerate(Xtr)]
        dists.sort()
        pred = np.mean([ytr[i] for _, i in dists[:k]])
        errs.append((pred - target) ** 2)
    return float(np.mean(errs))


class TestKnn:
    def test_k1_train_equals_test(self):
        rng = np.random.default_rng(8)
        ds = Dataset(rng.normal(size=(20, 3)))
        assert knn_regress_mse(ds, ds, k=1) == 0.0

    def test_constant_target(self):
        rng = np.random.default_rng(9)
        X = np.column_stack([rng.normal(size=(30, 2)), np.full(30, 4.2)])
        assert knn_regress_mse(Dataset(X), Dataset(X[:10]), k=3) == 0.0

    def test_hand_case_matches_oracle(self):
        train = np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0], [3.0, 4.0],
                          [4.0, 5.0]])
        test = np.array([[1.5, 2.0], [3.5, 10.0]])
        assert knn_regress_mse(Dataset(train), Dataset(test), k=3) \
            == pytest.approx(knn_oracle(train, test, 3), rel=1e-14)

    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(5, 51))
            d = int(rng.integers(2, 5))
            train = rng.normal(size=(n, d))
            test = rng.normal(size=(int(rng.integers(1, 20)), d))
            k = int(rng.integers(1, min(6, n + 1)))
            assert knn_regress_mse(Dataset(train), Dataset(test), k=k) \
                == pytest.approx(knn_oracle(train, test, k), rel=1e-12)

    def test_block_edges_match_oracle(self, monkeypatch):
        """Test-row counts at a block edge and across it agree with the
        oracle, and bit for bit with the distances formed in one block."""
        rng = np.random.default_rng(16)
        train = rng.normal(size=(40, 3))
        block = data.KNN_BLOCK_ROWS
        for n_test in (block - 1, block, block + 1, 2 * block + 1):
            test = rng.normal(size=(n_test, 3))
            got = knn_regress_mse(Dataset(train), Dataset(test), k=3)
            assert got == pytest.approx(knn_oracle(train, test, 3),
                                        rel=1e-12)
            with monkeypatch.context() as m:
                m.setattr(data, "KNN_BLOCK_ROWS", n_test)
                assert knn_regress_mse(Dataset(train), Dataset(test),
                                       k=3) == got

    def test_k_exceeds_train(self):
        with pytest.raises(ConfigurationError):
            knn_regress_mse(Dataset(np.ones((2, 2))),
                            Dataset(np.ones((2, 2))), k=3)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        ds = Dataset(np.random.default_rng(14).normal(size=(10, 3)))
        with pytest.raises(ConfigurationError, match="k must be >= 1"):
            knn_regress_mse(ds, ds, k=k)

    def test_width_mismatch_rejected(self):
        rng = np.random.default_rng(15)
        with pytest.raises(ConfigurationError, match="columns"):
            knn_regress_mse(Dataset(rng.normal(size=(10, 2))),
                            Dataset(rng.normal(size=(5, 3))), k=3)


class TestPca:
    def test_projected_variance_equals_eigenvalues(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(500, 2)) @ np.array([[2.0, 0.3], [0.0, 0.5]])
        projected, _ = pca_project(Dataset(X), components=2)
        eigvals = np.sort(np.linalg.eigvalsh(np.cov(X.T)))[::-1]
        np.testing.assert_allclose(projected.var(axis=0, ddof=1), eigvals,
                                   rtol=1e-10)

    def test_orthonormal_components(self):
        rng = np.random.default_rng(12)
        _, comps = pca_project(Dataset(rng.normal(size=(100, 6))),
                               components=3)
        np.testing.assert_allclose(comps @ comps.T, np.eye(3), atol=1e-10)

    def test_sign_convention(self):
        rng = np.random.default_rng(13)
        _, comps = pca_project(Dataset(rng.normal(size=(80, 4))),
                               components=2)
        for vec in comps:
            assert vec[np.argmax(np.abs(vec))] > 0

    def test_degenerate_line(self):
        t = np.linspace(0, 1, 50)
        X = np.column_stack([t, 2 * t])
        projected, _ = pca_project(Dataset(X), components=2)
        assert np.abs(projected[:, 1]).max() < 1e-10

    def test_too_many_components(self):
        with pytest.raises(ConfigurationError):
            pca_project(Dataset(np.ones((10, 2))), components=3)

    @pytest.mark.parametrize("components", [0, -1])
    def test_components_below_one_rejected(self, components):
        X = np.random.default_rng(16).normal(size=(10, 2))
        with pytest.raises(ConfigurationError,
                           match="components must be >= 1"):
            pca_project(Dataset(X), components=components)


class TestHistogram:
    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(14)
        ds = Dataset(rng.normal(size=(321, 3)))
        for _, counts in dimwise_histogram(ds, 17):
            assert counts.sum() == 321

    def test_single_bin(self):
        ds = Dataset(np.arange(10.0)[:, None])
        edges, counts = dimwise_histogram(ds, 1)[0]
        assert counts.tolist() == [10]

    def test_uniform_grid_equal_counts(self):
        # 100 points placed at bin centers of a 10-bin uniform grid
        centers = (np.arange(100) % 10 + 0.5) / 10.0
        ds = Dataset(np.sort(centers)[:, None])
        _, counts = dimwise_histogram(ds, 10)[0]
        assert counts.tolist() == [10] * 10
