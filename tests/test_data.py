import csv
import math

import numpy as np
import pytest

from fedsim import data as data_module
from fedsim import model
from fedsim.data import (
    CsvTask,
    Dataset,
    PartitionSpec,
    build_validation,
    gen_synthetic,
    load_csv,
    partition,
)
from fedsim.errors import ConfigurationError
from fedsim.model import MlpSpec, TrainSpec

# chi-squared critical values at p = 0.01
CHI2_CRIT_DF4 = 13.277


def train_linear(data, seed=0, epochs=10, lr=0.5):
    """Softmax regression (no hidden layer) as an independent desk oracle."""
    spec = MlpSpec((data.features.shape[1], data.num_classes), seed=seed)
    params = model.local_train(
        model.init_params(spec), spec, data, TrainSpec(epochs=epochs, batch_size=32,
                                                       learning_rate=lr, seed=seed)
    )
    return spec, params


def accuracy(spec, params, data):
    _, preds = model.eval_losses(params, spec, data, predict=True)
    return (preds == data.labels).mean()


def row_keys(data):
    return {row.tobytes() for row in data.features}


class TestGenSynthetic:
    def test_separated_blobs_linearly_classifiable(self):
        data = gen_synthetic(2, 4, 1000, 10.0, seed=5)
        spec, params = train_linear(data)
        assert accuracy(spec, params, data) >= 0.99

    def test_zero_separation_is_chance_level(self):
        accs = []
        for seed in (0, 1, 2):
            data = gen_synthetic(2, 4, 2000, 0.0, seed=seed)
            train, test = data.subset(np.arange(1000)), data.subset(np.arange(1000, 2000))
            spec, params = train_linear(train, seed=seed)
            accs.append(accuracy(spec, params, test))
        assert abs(np.mean(accs) - 0.5) <= 0.05

    def test_deterministic(self):
        a = gen_synthetic(3, 5, 100, 2.0, seed=7)
        b = gen_synthetic(3, 5, 100, 2.0, seed=7)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_labels_balanced_within_one(self):
        data = gen_synthetic(7, 8, 101, 3.0, seed=1)
        counts = np.bincount(data.labels, minlength=7)
        assert counts.max() - counts.min() <= 1

    def test_mean_distances(self):
        data = gen_synthetic(4, 6, 40000, 9.0, seed=2)
        means = np.stack([data.features[data.labels == k].mean(axis=0) for k in range(4)])
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(means[i] - means[j]) == pytest.approx(9.0, abs=0.3)


class TestPartition:
    def test_iid_stratified_counts(self):
        data = gen_synthetic(10, 10, 400, 3.0, seed=0)
        shards = partition(data, PartitionSpec("iid", client_count=4, seed=1))
        for shard in shards:
            assert len(shard) == 100
            counts = np.bincount(shard.labels, minlength=10)
            assert counts.min() >= 9 and counts.max() <= 11

    def test_lda_high_alpha_near_uniform(self):
        # shards of ~1600 keep multinomial noise well inside the TV bound
        data = gen_synthetic(10, 10, 16000, 3.0, seed=0)
        shards = partition(data, PartitionSpec("lda", client_count=10, seed=2, alpha=1000.0))
        for shard in shards:
            hist = np.bincount(shard.labels, minlength=10) / len(shard)
            tv = 0.5 * np.abs(hist - 0.1).sum()
            assert tv <= 0.05

    def test_lda_is_unbiased_across_seeds(self):
        # client 0's mean label histogram over 100 seeds matches the
        # balanced source marginal (chi-squared on standardized means)
        data = gen_synthetic(5, 6, 1000, 3.0, seed=3)
        props = []
        for seed in range(100):
            shards = partition(data, PartitionSpec("lda", client_count=5, seed=seed, alpha=0.5))
            props.append(np.bincount(shards[0].labels, minlength=5) / len(shards[0]))
        props = np.asarray(props)
        mean = props.mean(axis=0)
        sem = props.std(axis=0, ddof=1) / np.sqrt(len(props))
        stat = float((((mean - 0.2) / sem) ** 2).sum())
        assert stat < CHI2_CRIT_DF4

    def test_missing_labels_affects_exact_count(self):
        data = gen_synthetic(10, 10, 4000, 3.0, seed=0)
        spec = PartitionSpec(
            "missing_labels", client_count=40, seed=4, missing=(4, 5), affected_fraction=0.7
        )
        shards = partition(data, spec)
        lacking = sum(
            1 for s in shards if not ((s.labels == 4).any() or (s.labels == 5).any())
        )
        assert lacking == 28
        # missing labels survive in the union
        union = np.concatenate([s.labels for s in shards])
        assert (union == 4).sum() == (data.labels == 4).sum()
        assert (union == 5).sum() == (data.labels == 5).sum()

    def test_quantity_skew_sizes_vary(self):
        data = gen_synthetic(4, 5, 2000, 3.0, seed=0)
        shards = partition(data, PartitionSpec("quantity_skew", client_count=8, seed=5, alpha=0.5))
        sizes = [len(s) for s in shards]
        assert sum(sizes) == 2000
        assert min(sizes) >= 1
        assert max(sizes) > 2 * min(sizes)  # alpha=0.5 skews hard

    @pytest.mark.parametrize(
        "spec",
        [
            PartitionSpec("iid", client_count=7, seed=11),
            PartitionSpec("lda", client_count=7, seed=11, alpha=0.4),
            PartitionSpec("missing_labels", client_count=7, seed=11, missing=(1,),
                          affected_fraction=0.5),
            PartitionSpec("quantity_skew", client_count=7, seed=11, alpha=1.0),
        ],
    )
    def test_shards_disjoint_and_exhaustive(self, spec):
        data = gen_synthetic(4, 5, 903, 3.0, seed=9)
        shards = partition(data, spec)
        keys = [row_keys(s) for s in shards]
        total = sum(len(s) for s in shards)
        assert total == len(data)
        merged = set()
        for k in keys:
            assert not (merged & k)
            merged |= k
        assert merged == row_keys(data)

    def test_too_few_samples_rejected(self):
        data = gen_synthetic(2, 3, 4, 3.0, seed=0)
        with pytest.raises(ConfigurationError):
            partition(data, PartitionSpec("iid", client_count=5, seed=0))

    def test_missing_labels_with_everyone_affected_rejected(self):
        data = gen_synthetic(3, 4, 300, 3.0, seed=0)
        spec = PartitionSpec("missing_labels", client_count=4, seed=0,
                             missing=(1,), affected_fraction=1.0)
        with pytest.raises(ConfigurationError):
            partition(data, spec)


def reference_partition_once(data, spec, rng):
    """`_partition_once` as it was before the iid and missing_labels branches
    dealt their labels through `_deal_stratified`, and before the lda and
    quantity_skew branches split their pools with `np.split`."""
    n_clients = spec.client_count
    if spec.scheme == "lda":
        proportions = rng.dirichlet(np.full(data.num_classes, spec.alpha), size=n_clients)
        shards = [[] for _ in range(n_clients)]
        for k in range(data.num_classes):
            pool = rng.permutation(np.flatnonzero(data.labels == k))
            weights = proportions[:, k]
            total = weights.sum()
            if total <= 0:
                weights = np.full(n_clients, 1.0 / n_clients)
            else:
                weights = weights / total
            counts = rng.multinomial(len(pool), weights)
            offset = 0
            for c in range(n_clients):
                shards[c].extend(pool[offset : offset + counts[c]].tolist())
                offset += counts[c]
        return shards
    if spec.scheme == "quantity_skew":
        n = len(data)
        sizes = rng.dirichlet(np.full(n_clients, spec.alpha)) * n
        counts = np.floor(sizes).astype(int)
        remainder = n - counts.sum()
        if remainder > 0:
            fractional = sizes - np.floor(sizes)
            for c in np.argsort(-fractional, kind="stable")[:remainder]:
                counts[c] += 1
        pool = rng.permutation(n)
        shards = []
        offset = 0
        for c in range(n_clients):
            shards.append(pool[offset : offset + counts[c]].tolist())
            offset += counts[c]
        return shards
    if spec.scheme == "iid":
        shards = [[] for _ in range(n_clients)]
        for k in range(data.num_classes):
            pool = rng.permutation(np.flatnonzero(data.labels == k))
            chunks = np.array_split(pool, n_clients)
            for i in range(n_clients):
                shards[(i + k) % n_clients].extend(chunks[i].tolist())
        return shards
    affected_count = round(spec.affected_fraction * n_clients)
    affected = set(rng.choice(n_clients, size=affected_count, replace=False).tolist())
    holders = [c for c in range(n_clients) if c not in affected]
    missing = set(spec.missing)
    present = [k for k in range(data.num_classes) if k not in missing]
    shards = [[] for _ in range(n_clients)]
    for k in present:
        pool = rng.permutation(np.flatnonzero(data.labels == k))
        chunks = np.array_split(pool, n_clients)
        for i in range(n_clients):
            shards[(i + k) % n_clients].extend(chunks[i].tolist())
    for j, k in enumerate(sorted(missing)):
        pool = rng.permutation(np.flatnonzero(data.labels == k))
        chunks = np.array_split(pool, len(holders))
        for i in range(len(holders)):
            shards[holders[(i + j) % len(holders)]].extend(chunks[i].tolist())
    return shards


class TestDealStratifiedParity:
    @pytest.mark.parametrize(
        "spec",
        [
            PartitionSpec("iid", client_count=7, seed=11),
            PartitionSpec("iid", client_count=40, seed=3),
            PartitionSpec("missing_labels", client_count=7, seed=11, missing=(1,),
                          affected_fraction=0.5),
            PartitionSpec("missing_labels", client_count=40, seed=4, missing=(4, 5),
                          affected_fraction=0.7),
            PartitionSpec("missing_labels", client_count=9, seed=2, missing=(0, 3),
                          affected_fraction=0.0),
            # The pool splits of lda and quantity_skew.
            PartitionSpec("lda", client_count=7, seed=11, alpha=0.4),
            PartitionSpec("lda", client_count=40, seed=0, alpha=0.2),
            PartitionSpec("lda", client_count=5, seed=3, alpha=20.0),
            PartitionSpec("quantity_skew", client_count=7, seed=11, alpha=1.0),
            PartitionSpec("quantity_skew", client_count=40, seed=5, alpha=0.5),
            PartitionSpec("quantity_skew", client_count=3, seed=8, alpha=30.0),
        ],
    )
    def test_partition_matches_the_old_loops(self, monkeypatch, spec):
        data = gen_synthetic(6, 6, 1003, 3.0, seed=9)
        shards = partition(data, spec)
        monkeypatch.setattr(data_module, "_partition_once", reference_partition_once)
        expected = partition(data, spec)
        assert len(shards) == len(expected)
        for got, want in zip(shards, expected):
            assert np.array_equal(got.labels, want.labels)
            assert np.array_equal(got.features, want.features)


class TestBuildValidation:
    def test_balanced_counts(self):
        data = gen_synthetic(10, 10, 2000, 3.0, seed=0)
        val, rest = build_validation(data, per_label=10, seed=1)
        assert len(val.data) == 100
        assert all(len(val.label_indices[k]) == 10 for k in range(10))
        assert len(rest) == 1900

    def test_single_element_per_label(self):
        data = gen_synthetic(10, 10, 500, 3.0, seed=0)
        val, _ = build_validation(data, per_label=1, seed=2)
        assert len(val.data) == 10

    def test_balanced_on_skewed_source(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(1000, 3))
        labels = np.concatenate([np.zeros(900, dtype=np.int64), np.ones(100, dtype=np.int64)])
        data = Dataset(features, labels, 2)
        val, _ = build_validation(data, per_label=20, seed=3)
        counts = np.bincount(val.data.labels, minlength=2)
        assert counts[0] == counts[1] == 20

    def test_disjoint_from_shards(self):
        data = gen_synthetic(4, 5, 800, 3.0, seed=0)
        val, rest = build_validation(data, per_label=10, seed=4)
        shards = partition(rest, PartitionSpec("iid", client_count=5, seed=5))
        val_keys = row_keys(val.data)
        for shard in shards:
            assert not (val_keys & row_keys(shard))

    def test_insufficient_samples(self):
        data = gen_synthetic(2, 3, 10, 3.0, seed=0)
        with pytest.raises(ConfigurationError):
            build_validation(data, per_label=20, seed=0)

    def test_unbalanced_mode_follows_source_marginal(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(1000, 3))
        labels = np.concatenate([np.zeros(900, dtype=np.int64), np.ones(100, dtype=np.int64)])
        val, _ = build_validation(Dataset(features, labels, 2), per_label=100,
                                  balanced=False, seed=2)
        counts = np.bincount(val.data.labels, minlength=2)
        assert counts.sum() == 200
        # skewed source stays skewed when balancing is off
        assert counts[0] > 3 * counts[1]


class TestLoadCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_small_file(self, tmp_path):
        path = self.write(tmp_path, "a,b,y\n1,2,0\n3,4,1\n5,6,1\n")
        data = load_csv(CsvTask(path, ("a", "b"), "y"))
        assert len(data) == 3
        assert data.num_classes == 2
        # standardized columns: zero mean, unit variance
        assert np.allclose(data.features.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(data.features.std(axis=0), 1.0, atol=1e-12)

    def test_group_mapping(self, tmp_path):
        path = self.write(tmp_path, "a,y,g\n1,0,B\n2,1,A\n3,0,B\n")
        data = load_csv(CsvTask(path, ("a",), "y", "g"))
        assert data.group_ids.tolist() == [1, 0, 1]

    def test_constant_column_zeroed(self, tmp_path):
        path = self.write(tmp_path, "a,b,y\n2,1,0\n2,2,1\n2,3,1\n")
        data = load_csv(CsvTask(path, ("a", "b"), "y"))
        assert np.all(data.features[:, 0] == 0.0)

    def test_malformed_row_reports_line(self, tmp_path):
        path = self.write(tmp_path, "a,y\n1,0\nnope,1\n")
        with pytest.raises(ConfigurationError, match="row 3"):
            load_csv(CsvTask(path, ("a",), "y"))

    def test_unknown_label_rejected(self, tmp_path):
        path = self.write(tmp_path, "a,y\n1,zero\n")
        with pytest.raises(ConfigurationError, match="label"):
            load_csv(CsvTask(path, ("a",), "y"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_feature_refused_by_row(self, tmp_path, value):
        # One such cell would make its column's standardization NaN, and
        # every run on the file diverge.
        rows = [f"{i},{i % 2}" for i in range(10)]
        rows[4] = f"{value},0"
        path = self.write(tmp_path, "a,y\n" + "\n".join(rows) + "\n")
        with pytest.raises(ConfigurationError) as exc:
            load_csv(CsvTask(path, ("a",), "y"))
        assert str(exc.value) == f"{path}: non-finite feature on row 6"


def reference_load_csv(task):
    """`load_csv` as a `csv.DictReader` loop, one Python conversion per
    field; the C-parsed loader must give its arrays and its errors."""
    path = task.path
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ConfigurationError(f"{path}: missing header row")
        needed = set(task.feature_columns) | {task.label_column}
        if task.group_column:
            needed.add(task.group_column)
        missing_cols = needed - set(reader.fieldnames)
        if missing_cols:
            raise ConfigurationError(f"{path}: missing columns {sorted(missing_cols)}")
        rows_x, rows_y, rows_g = [], [], []
        for line_no, row in enumerate(reader, start=2):
            try:
                rows_x.append([float(row[c]) for c in task.feature_columns])
            except (TypeError, ValueError):
                raise ConfigurationError(f"{path}: malformed feature on row {line_no}")
            if not np.isfinite(rows_x[-1]).all():
                raise ConfigurationError(f"{path}: non-finite feature on row {line_no}")
            raw_label = row[task.label_column]
            try:
                label = int(raw_label)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"{path}: unknown label {raw_label!r} on row {line_no}"
                )
            if label < 0:
                raise ConfigurationError(f"{path}: negative label on row {line_no}")
            rows_y.append(label)
            if task.group_column:
                rows_g.append(row[task.group_column])
    if not rows_y:
        raise ConfigurationError(f"{path}: no data rows")
    features = np.asarray(rows_x, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = features.mean(axis=0)
        std = features.std(axis=0)
    for name, m, s in zip(task.feature_columns, mean, std):
        if not (math.isfinite(m) and math.isfinite(s)):
            raise ConfigurationError(f"{path}: feature column {name!r} is too large to "
                                     "standardize")
    std[std == 0.0] = 1.0
    features = (features - mean) / std
    labels = np.asarray(rows_y, dtype=np.int64)
    group_ids = None
    if task.group_column:
        mapping = {v: i for i, v in enumerate(sorted(set(rows_g)))}
        group_ids = np.asarray([mapping[v] for v in rows_g], dtype=np.int64)
    return Dataset(features, labels, int(labels.max()) + 1, group_ids)


def grouped(path) -> CsvTask:
    return CsvTask(str(path), ("a", "b"), "y", "g")

PARITY_CASES = {
    "plain": "a,b,y,g\n1,2,0,x\n3,4,1,y\n5,6.5,2,x\n",
    "short row": "a,b,y,g\n1,2,0,x\n3,4\n5,6,1,y\n",
    "short row missing the label": "a,b,y,g\n1,2,0,x\n3,4,,\n",
    "float label": "a,b,y,g\n1,2,0,x\n3,4,1.0,y\n",
    "word label": "a,b,y,g\n1,2,zero,x\n",
    "negative label": "a,b,y,g\n1,2,0,x\n3,4,1,y\n5,6,-1,x\n",
    "negative label before a bad feature": "a,b,y,g\n1,2,-1,x\n3,oops,1,y\n",
    "header only": "a,b,y,g\n",
    "header and blank lines": "a,b,y,g\n\n\n",
    "one data row": "a,b,y,g\n1,2,0,x\n",
    "crlf": "a,b,y,g\r\n1,2,0,x\r\n3,4,1,y\r\n5,6,1,x\r\n",
    "cr": "a,b,y,g\r1,2,0,x\r3,4,1,y\r",
    "quoted number": 'a,b,y,g\n"1.5",2,"1",x\n3,4,0,"y,z"\n',
    "spaces around values": "a,b,y,g\n 1 ,2, 1 , x\n3 , 4,0,x\n",
    "line starting with #": "a,b,y,g\n1,2,0,x\n#3,4,1,y\n",
    "blank line between rows": "a,b,y,g\n1,2,0,x\n\n3,4,1,y\n",
    "bad feature after a blank line": "a,b,y,g\n1,2,0,x\n\n3,x,1,y\n",
    "negative label after a blank line": "a,b,y,g\n1,2,0,x\n\n3,4,-1,y\n",
    "group spanning two lines": 'a,b,y,g\n1,2,0,"x\ny"\n3,4,1,z\n5,6,-1,z\n',
    "whitespace-only line": "a,b,y,g\n1,2,0,x\n   \n3,4,1,y\n",
    "empty feature": "a,b,y,g\n1,,0,x\n",
    "long row": "a,b,y,g\n1,2,0,x,extra\n3,4,1,y\n",
    "reordered columns": "g,y,b,a\nx,0,2,1\ny,1,4,3\n",
    "nan and inf features": "a,b,y,g\nnan,2,0,x\n3,inf,1,y\n",
    "inf feature after a negative label": "a,b,y,g\n1,2,-1,x\n3,inf,1,y\n",
    "nan feature and negative label on one row": "a,b,y,g\n1,2,0,x\n3,nan,-1,y\n",
    "nan feature before a bad feature": "a,b,y,g\nnan,2,0,x\n3,oops,1,y\n",
    "feature past the float range": "a,b,y,g\n1,2,0,x\n3,-1e999,1,y\n",
    "column whose mean overflows": "a,b,y,g\n1,1e308,0,x\n3,1.5e308,1,y\n",
    "column whose spread overflows": "a,b,y,g\n1,1.5e308,0,x\n3,-1.5e308,1,y\n",
    "both columns too large": "a,b,y,g\n1e308,-1e308,0,x\n1e308,1e308,1,y\n",
    "exponent features": "a,b,y,g\n1e3,-2.5E-2,0,x\n+3,4.,1,y\n",
    "missing column": "a,y,g\n1,0,x\n",
    "empty file": "",
}


class TestLoadCsvParity:
    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_matches_dictreader_loop(self, tmp_path, case):
        path = tmp_path / "data.csv"
        path.write_bytes(PARITY_CASES[case].encode("utf-8"))
        try:
            with np.errstate(invalid="ignore"):
                want = reference_load_csv(grouped(path))
        except ConfigurationError as exc:
            with pytest.raises(ConfigurationError) as got:
                load_csv(grouped(path))
            assert str(got.value) == str(exc)
            return
        with np.errstate(invalid="ignore"):
            got = load_csv(grouped(path))
        assert np.array_equal(got.features, want.features, equal_nan=True)
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got.group_ids, want.group_ids)
        assert got.num_classes == want.num_classes

    def test_python_only_number_spelling_rejected(self, tmp_path):
        # `float` and `int` read "1_0" as 10 but numpy's reader does not, so
        # the file is refused with numpy's message.
        path = tmp_path / "data.csv"
        path.write_text("a,b,y,g\n1_0,2,0,x\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="could not convert string '1_0'"):
            load_csv(grouped(path))

    def test_wide_file_matches(self, tmp_path):
        rng = np.random.default_rng(4)
        n, d = 3000, 16
        x = rng.normal(size=(n, d)) * rng.uniform(0.1, 50.0, size=d)
        y = rng.integers(0, 10, size=n)
        g = rng.choice(["north", "south", "east", "west"], size=n)
        header = [f"f{i}" for i in range(d)] + ["label", "region"]
        lines = [",".join(header)]
        lines += [",".join(f"{v:.6f}" for v in row) + f",{label},{grp}"
                  for row, label, grp in zip(x, y, g)]
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        task = CsvTask(str(path), tuple(header[:d]), "label", "region")
        got, want = load_csv(task), reference_load_csv(task)
        assert np.array_equal(got.features, want.features)
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got.group_ids, want.group_ids)
