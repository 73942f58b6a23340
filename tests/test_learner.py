"""Classifier, losses, metrics, and phased-experiment tests."""

import hashlib
import math

import numpy as np
import pytest

import drr.learner as learner
import drr.replay_store as replay_store
from drr.bits_back import random_model
from drr.errors import DegenerateInputError, InvalidInputError
from drr.learner import (
    Batch,
    ClassifierParams,
    ExperimentConfig,
    LatentSpec,
    PhaseResults,
    PhaseSchedule,
    TrainConfig,
    _ib_grad,
    _mean_cross_entropy,
    _softmax_grad,
    evaluate,
    features,
    ib_loss,
    init_classifier,
    logits,
    make_toy_dataset,
    predict,
    run_experiment,
    total_loss,
    train_phase,
)
from drr.rans import AnsCoder
from drr.replay_store import LatentModelPair, RawExemplarStore
from drr.vq_codec import CodecConfig, decode_indices, encode_indices, init_codec_params


class TestIbLoss:
    def test_positively_collinear_is_minus_one(self):
        r1 = np.array([1.0, -2.0, 0.5])
        loss, grad = ib_loss(r1, 3.0 * r1)
        assert loss == pytest.approx(-1.0, abs=1e-12)
        assert np.linalg.norm(grad) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        loss, _ = ib_loss(np.array([1.0, 0.0]), np.array([0.0, 2.0]))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_opposite_is_plus_one(self):
        r1 = np.array([0.3, 1.0])
        loss, _ = ib_loss(r1, -r1)
        assert loss == pytest.approx(1.0, abs=1e-12)

    def test_range_fuzz(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            loss, _ = ib_loss(rng.normal(size=6), rng.normal(size=6))
            assert -1.0 - 1e-12 <= loss <= 1.0 + 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            r1 = rng.normal(size=8)
            r2 = rng.normal(size=8)
            _, grad = ib_loss(r1, r2)
            fd = np.zeros_like(r2)
            h = 1e-6
            for i in range(len(r2)):
                up, down = r2.copy(), r2.copy()
                up[i] += h
                down[i] -= h
                fd[i] = (ib_loss(r1, up)[0] - ib_loss(r1, down)[0]) / (2 * h)
            assert np.linalg.norm(grad - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-12)

    def test_no_gradient_is_returned_for_r1(self):
        out = ib_loss(np.array([1.0, 2.0]), np.array([2.0, 1.0]))
        assert len(out) == 2  # loss and the r2 gradient, nothing for r1

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateInputError):
            ib_loss(np.zeros(3), np.ones(3))
        with pytest.raises(DegenerateInputError):
            ib_loss(np.ones(3), np.zeros(3))


def cross_entropy(scores, labels):
    """Mean natural-log cross-entropy of `scores`, read off the softmax
    gradient's intermediates as `total_loss` reads it."""
    shifted, z, _ = _softmax_grad(scores, labels)
    return _mean_cross_entropy(shifted, z, labels)


class TestCrossEntropy:
    def test_uniform_scores_give_log_c(self):
        scores = np.zeros((4, 7))
        labels = np.array([0, 3, 6, 2])
        assert cross_entropy(scores, labels) == pytest.approx(math.log(7), abs=1e-12)

    def test_confident_correct_is_small(self):
        scores = np.array([[20.0, 0.0], [0.0, 20.0]])
        assert cross_entropy(scores, np.array([0, 1])) < 1e-6


def random_batch(rng, n=6, dim=5, classes=3, pairs=3):
    recon = rng.normal(size=(n, dim))
    labels = rng.integers(0, classes, size=n)
    labels[:classes] = np.arange(classes)
    raw = rng.normal(size=(pairs, dim))
    pair_rows = rng.choice(n, size=pairs, replace=False)
    return Batch(recon=recon, labels=labels, raw=raw, pair_rows=pair_rows)


def flat_params(params):
    return np.concatenate([params.w1.ravel(), params.b1.ravel(),
                           params.w2.ravel(), params.b2.ravel()])


class TestTotalLoss:
    def test_zero_weight_equals_cross_entropy(self):
        rng = np.random.default_rng(1)
        batch = random_batch(rng)
        params = init_classifier(5, 4, 3, seed=0)
        loss, grads, parts = total_loss(params, batch, ib_weight=0.0)
        ce = cross_entropy(logits(params, batch.recon), batch.labels)
        assert loss == pytest.approx(ce, abs=1e-12)
        assert parts["ce"] == pytest.approx(ce, abs=1e-12)
        bare = Batch(recon=batch.recon, labels=batch.labels)
        _, bare_grads, _ = total_loss(params, bare, ib_weight=0.0)
        for a, b in zip(vars(grads).values(), vars(bare_grads).values()):
            assert np.array_equal(a, b)

    def test_zero_params_give_log_c(self):
        params = ClassifierParams(w1=np.zeros((4, 5)), b1=np.zeros(4),
                                  w2=np.zeros((3, 4)), b2=np.zeros(3))
        batch = Batch(recon=np.random.default_rng(0).normal(size=(1, 5)),
                      labels=np.array([2]))
        loss, _, _ = total_loss(params, batch, ib_weight=0.0)
        assert loss == pytest.approx(math.log(3), abs=1e-12)

    def test_affine_in_weight(self):
        rng = np.random.default_rng(2)
        batch = random_batch(rng)
        params = init_classifier(5, 4, 3, seed=1)
        l0 = total_loss(params, batch, 0.0)[0]
        l1 = total_loss(params, batch, 1.0)[0]
        l2 = total_loss(params, batch, 2.0)[0]
        assert l2 - l0 == pytest.approx(2 * (l1 - l0), abs=1e-12)

    def test_gradients_match_finite_differences(self):
        # the raw branch is pinned to its base-point features so the
        # numeric derivative probes exactly what the analytic one computes
        rng = np.random.default_rng(4)
        for seed in range(3):
            batch = random_batch(rng)
            params = init_classifier(5, 4, 3, seed=seed)
            pinned = features(params, batch.raw)
            _, grads, _ = total_loss(params, batch, 0.7, raw_features=pinned)
            analytic = flat_params(grads)

            fields = ["w1", "b1", "w2", "b2"]
            h = 1e-6
            numeric = []
            for name in fields:
                base = getattr(params, name)
                g = np.zeros_like(base).ravel()
                for i in range(base.size):
                    for sign in (+1, -1):
                        probe = ClassifierParams(*(a.copy() for a in vars(params).values()))
                        arr = getattr(probe, name).ravel()
                        arr[i] += sign * h
                        val = total_loss(probe, batch, 0.7, raw_features=pinned)[0]
                        g[i] += sign * val
                numeric.append(g / (2 * h))
            numeric = np.concatenate(numeric)
            err = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert err <= 1e-4

    def test_raw_branch_gets_no_gradient(self):
        # live raw branch and pinned constant produce identical gradients,
        # so no parameter gradient flows through the raw features
        rng = np.random.default_rng(5)
        batch = random_batch(rng)
        params = init_classifier(5, 4, 3, seed=2)
        _, live, _ = total_loss(params, batch, 0.9)
        _, pinned, _ = total_loss(params, batch, 0.9,
                                  raw_features=features(params, batch.raw))
        for a, b in zip(vars(live).values(), vars(pinned).values()):
            assert np.array_equal(a, b)

    def test_label_out_of_range_rejected(self):
        params = init_classifier(5, 4, 3, seed=0)
        batch = Batch(recon=np.zeros((2, 5)), labels=np.array([0, 3]))
        with pytest.raises(InvalidInputError):
            total_loss(params, batch, 0.0)

    @pytest.mark.parametrize("weight", [-0.1, float("nan"), float("inf")])
    def test_out_of_domain_weight_rejected(self, weight):
        params = init_classifier(5, 4, 3, seed=0)
        with pytest.raises(InvalidInputError, match="ib_weight"):
            total_loss(params, random_batch(np.random.default_rng(0)), weight)


def separable_data(n_per=40, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=+1.5, scale=0.3, size=(n_per, 2, 1, 1))
    b = rng.normal(loc=-1.5, scale=0.3, size=(n_per, 2, 1, 1))
    images = np.concatenate([a, b])
    labels = np.array([0] * n_per + [1] * n_per)
    return Batch(recon=images, labels=labels)


class TestTrainPhase:
    def test_separable_data_reaches_full_accuracy(self):
        data = separable_data()
        config = TrainConfig(epochs=200, lr=0.1, batch_size=16, hidden_dim=8, seed=0)
        params = train_phase(data, n_classes=2, config=config)
        assert evaluate(params, data.recon, data.labels) == 1.0

    def test_same_seed_bitwise_identical(self):
        data = separable_data(seed=3)
        config = TrainConfig(epochs=20, lr=0.05, batch_size=8, hidden_dim=6, seed=9)
        a = train_phase(data, 2, config)
        b = train_phase(data, 2, config)
        assert all(np.array_equal(x, y) for x, y in zip(vars(a).values(), vars(b).values()))

    def test_missing_class_rejected(self):
        data = separable_data()
        with pytest.raises(InvalidInputError):
            train_phase(data, n_classes=3, config=TrainConfig(epochs=1))

    def test_bad_mode_rejected(self):
        with pytest.raises(InvalidInputError):
            TrainConfig(mode="replay").validate()

    @pytest.mark.parametrize("field, value", [
        ("lr", float("nan")), ("lr", float("inf")), ("lr", 0.0), ("lr", -0.05),
        ("ib_weight", float("nan")), ("ib_weight", float("inf")), ("ib_weight", -0.5)])
    def test_out_of_domain_settings_rejected(self, field, value):
        with pytest.raises(InvalidInputError, match=field):
            TrainConfig(**{field: value}).validate()

    def test_ib_pairs_change_training(self):
        data = separable_data(seed=1)
        paired = Batch(recon=data.recon, labels=data.labels,
                       raw=data.recon[:10] + 0.3, pair_rows=np.arange(10))
        config = TrainConfig(epochs=15, lr=0.05, batch_size=16, hidden_dim=6,
                             seed=4, ib_weight=0.5)
        with_pairs = train_phase(paired, 2, config)
        without = train_phase(data, 2, config)
        assert not np.array_equal(with_pairs.w1, without.w1)


class TestEvaluateAndMetrics:
    def test_accuracy_fraction(self):
        params = init_classifier(4, 3, 2, seed=0)
        images = np.random.default_rng(0).normal(size=(10, 4))
        labels = predict(params, images).copy()
        labels[:3] = 1 - labels[:3]  # flip three
        assert evaluate(params, images, labels) == pytest.approx(0.7)

    def test_empty_test_set_rejected(self):
        params = init_classifier(4, 3, 2, seed=0)
        with pytest.raises(InvalidInputError):
            evaluate(params, np.zeros((0, 4)), np.array([], dtype=int))

    def test_average_excludes_initial_phase(self):
        results = PhaseResults([0.9, 0.5, 0.7])
        assert results.average == 0.6
        assert results.last == 0.7

    def test_single_incremental_phase(self):
        results = PhaseResults([0.4, 0.8])
        assert results.average == results.last == 0.8

    def test_no_incremental_phases(self):
        results = PhaseResults([0.25])
        assert results.average is None
        assert results.last == 0.25

    def test_random_guess_near_uniform(self):
        c, n = 4, 2000
        params = init_classifier(6, 5, c, seed=7)
        rng = np.random.default_rng(8)
        images = rng.normal(size=(n, 6))
        labels = np.repeat(np.arange(c), n // c)
        rng.shuffle(labels)  # balanced, independent of the inputs
        acc = evaluate(params, images, labels)
        sigma = math.sqrt((1 / c) * (1 - 1 / c) / n)
        assert abs(acc - 1 / c) <= 3 * sigma


class TestSchedule:
    def test_phase_class_ranges(self):
        schedule = PhaseSchedule(total_classes=8, initial_classes=4,
                                 n_phases=2, classes_per_phase=2)
        assert schedule.classes_for_phase(0) == [0, 1, 2, 3]
        assert schedule.classes_for_phase(1) == [4, 5]
        assert schedule.classes_for_phase(2) == [6, 7]
        with pytest.raises(InvalidInputError):
            schedule.classes_for_phase(3)

    def test_inconsistent_schedule_rejected(self):
        with pytest.raises(InvalidInputError):
            PhaseSchedule(total_classes=8, initial_classes=4,
                          n_phases=2, classes_per_phase=3).validate()
        with pytest.raises(InvalidInputError):
            PhaseSchedule(total_classes=4, initial_classes=4,
                          n_phases=0, classes_per_phase=0).validate()


class TestToyDataset:
    def test_shapes_labels_range(self):
        images, labels = make_toy_dataset(4, 5, side=8, seed=0)
        assert images.shape == (20, 8, 8, 3)
        assert images.min() >= 0.0 and images.max() <= 1.0
        assert np.array_equal(np.unique(labels), np.arange(4))

    def test_deterministic(self):
        a, _ = make_toy_dataset(3, 4, side=8, seed=2)
        b, _ = make_toy_dataset(3, 4, side=8, seed=2)
        assert np.array_equal(a, b)

    def test_salt_changes_samples_not_classes(self):
        a, _ = make_toy_dataset(2, 3, side=8, seed=2, salt=0)
        b, _ = make_toy_dataset(2, 3, side=8, seed=2, salt=1)
        assert not np.array_equal(a, b)

    def test_classes_are_learnable_from_raw(self):
        images, labels = make_toy_dataset(4, 12, side=8, seed=1)
        config = TrainConfig(epochs=150, lr=0.1, batch_size=16, hidden_dim=16, seed=0)
        params = train_phase(Batch(recon=images, labels=labels), 4, config)
        test_images, test_labels = make_toy_dataset(4, 8, side=8, seed=1, salt=1)
        assert evaluate(params, test_images, test_labels) > 0.7


def small_experiment_config(n_phases, classes_per_phase, mode="drr", seed=0,
                            total=6, initial=2):
    return ExperimentConfig(
        schedule=PhaseSchedule(total_classes=total, initial_classes=initial,
                               n_phases=n_phases, classes_per_phase=classes_per_phase,
                               seed=seed),
        codec=CodecConfig(patch=4, pool=2, channels=3, codebook_size=24,
                          embed_dim=6, epochs=15, lr=0.002, seed=seed),
        train=TrainConfig(mode=mode, epochs=40, lr=0.08, batch_size=16,
                          hidden_dim=16, seed=seed, ib_weight=0.3),
        latent=LatentSpec(alphabets=(6, 4), block_len=8, fit_iterations=3),
        exemplars_per_class=4,
    )


def toy_splits(total=6, seed=0):
    train = make_toy_dataset(total, 8, side=16, seed=seed, salt=0)
    test = make_toy_dataset(total, 5, side=16, seed=seed, salt=1)
    return train, test


class TestRunExperiment:
    def test_phased_run_shapes(self):
        (train_x, train_y), (test_x, test_y) = toy_splits()
        config = small_experiment_config(n_phases=2, classes_per_phase=2)
        out = run_experiment(train_x, train_y, test_x, test_y, config)
        assert len(out.records) == 3
        assert [r.classes_seen for r in out.records] == [2, 4, 6]
        assert [r.model_version for r in out.records] == [1, 2, 3]
        assert all(0.0 <= a <= 1.0 for a in out.results.accuracies)
        assert out.results.average == pytest.approx(
            np.mean(out.results.accuracies[1:]))
        for record in out.records:
            assert record.buffer_report.exemplar_count == record.classes_seen * 4
            assert record.raw_report is None

    def test_no_incremental_phases(self):
        (train_x, train_y), (test_x, test_y) = toy_splits(total=2)
        config = small_experiment_config(n_phases=0, classes_per_phase=1, total=2)
        out = run_experiment(train_x, train_y, test_x, test_y, config)
        assert len(out.records) == 1
        assert out.results.average is None

    def test_partition_invariance_of_final_classifier(self):
        (train_x, train_y), (test_x, test_y) = toy_splits()
        a = run_experiment(train_x, train_y, test_x, test_y,
                           small_experiment_config(n_phases=2, classes_per_phase=2))
        b = run_experiment(train_x, train_y, test_x, test_y,
                           small_experiment_config(n_phases=4, classes_per_phase=1))
        assert a.results.last == b.results.last
        for x, y in zip(vars(a.final_params).values(), vars(b.final_params).values()):
            assert np.array_equal(x, y)

    def test_ib_mode_keeps_raw_store(self):
        (train_x, train_y), (test_x, test_y) = toy_splits()
        config = small_experiment_config(n_phases=1, classes_per_phase=4, mode="ib-drr")
        out = run_experiment(train_x, train_y, test_x, test_y, config)
        assert out.records[-1].raw_report is not None
        assert out.records[-1].raw_report.exemplar_count == 6 * 4

    def test_star_mode_runs_without_raw_store(self):
        (train_x, train_y), (test_x, test_y) = toy_splits()
        config = small_experiment_config(n_phases=1, classes_per_phase=4,
                                         mode="ib-drr-star")
        out = run_experiment(train_x, train_y, test_x, test_y, config)
        assert out.records[-1].raw_report is None
        assert len(out.records) == 2

    def test_dataset_schedule_mismatch_rejected(self):
        (train_x, train_y), (test_x, test_y) = toy_splits(total=5)
        config = small_experiment_config(n_phases=2, classes_per_phase=2)
        with pytest.raises(InvalidInputError):
            run_experiment(train_x, train_y, test_x, test_y, config)


def spied_experiment(monkeypatch, mode):
    """Run a three-phase experiment, recording the exemplar batch the buffer
    encodes per class (with its codec), every raw store built, and the data
    of every phase's training."""
    encoded, stores, phases = [], [], []
    real_encode, real_train = replay_store.encode_indices, learner.train_phase

    def encode(images, codec):
        encoded.append((np.array(images), codec))
        return real_encode(images, codec)

    def train(data, **kwargs):
        phases.append(data)
        return real_train(data, **kwargs)

    class Store(RawExemplarStore):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            stores.append(self)

    monkeypatch.setattr(replay_store, "encode_indices", encode)
    monkeypatch.setattr(learner, "train_phase", train)
    monkeypatch.setattr(learner, "RawExemplarStore", Store)
    (train_x, train_y), (test_x, test_y) = toy_splits()
    run_experiment(train_x, train_y, test_x, test_y,
                   small_experiment_config(n_phases=2, classes_per_phase=2, mode=mode, seed=3))
    return encoded, stores, phases


class TestIbPairs:
    """Each raw view must be the exemplar whose reconstruction it is paired with."""

    def test_star_views_encode_to_their_paired_reconstructions(self, monkeypatch):
        encoded, _, phases = spied_experiment(monkeypatch, "ib-drr-star")
        codec = encoded[0][1]
        assert len(phases) == 3
        for data, new_labels in zip(phases, ([0, 1], [2, 3], [4, 5])):
            paired = data.labels[data.pair_rows]
            assert sorted(set(paired.tolist())) == new_labels
            for label in new_labels:
                mine = paired == label
                assert mine.sum() == 4
                # The views are the buffer's exemplars rounded to stored pixels,
                # as the raw store keeps them for ib-drr.
                rounded = np.round(np.clip(encoded[label][0], 0.0, 1.0) * 255).astype(np.uint8)
                assert np.array_equal(data.raw[mine], rounded / 255.0)
                recon = decode_indices(*encode_indices(data.raw[mine], codec), codec)
                assert np.array_equal(recon, data.recon[data.pair_rows[mine]])

    def test_raw_store_keeps_the_buffers_exemplars(self, monkeypatch):
        encoded, stores, phases = spied_experiment(monkeypatch, "ib-drr")
        # The buffer encodes one batch per class, classes in label order.
        chosen = {label: images for label, (images, _) in enumerate(encoded)}
        (store,) = stores
        assert sorted(chosen) == list(range(6))
        assert store.account().exemplar_count == sum(len(images) for images in chosen.values())
        for label in chosen:
            rounded = np.round(np.clip(chosen[label], 0.0, 1.0) * 255).astype(np.uint8)
            assert np.array_equal(store.get(label), rounded / 255.0)
        last = phases[-1]
        assert np.array_equal(last.raw, np.concatenate([store.get(label) for label in chosen]))


def reference_total_loss(params, batch, ib_weight):
    """`total_loss` as first written: exp taken three times, zero-filled w1/b1
    gradients, and `np.add.at` for the paired rows.  Kept as the reference the
    trimmed step must match bit for bit."""
    x = batch.recon
    h = features(params, x)
    scores = h @ params.w2.T + params.b2
    n = len(batch.labels)
    shifted = scores - scores.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    ce = float(np.mean(log_z - shifted[np.arange(n), batch.labels]))
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    probs[np.arange(n), batch.labels] -= 1.0
    d_scores = probs / n
    dh = d_scores @ params.w2
    c, d_pairs = _ib_grad(features(params, batch.raw), h[batch.pair_rows])
    align = float(np.mean(-c))
    np.add.at(dh, batch.pair_rows, ib_weight * d_pairs)
    da = dh * (1.0 - h * h)
    return ce + ib_weight * align, (da.T @ x, da.sum(axis=0), d_scores.T @ h,
                                    d_scores.sum(axis=0))


class TestTrimmedStep:
    def test_total_loss_matches_reference_bit_for_bit(self):
        rng = np.random.default_rng(40)
        for case in range(20):
            batch = random_batch(rng, n=12, dim=7, classes=4, pairs=int(rng.integers(1, 12)))
            params = init_classifier(7, 5, 4, seed=case)
            loss, grads, _ = total_loss(params, batch, 0.3)
            ref_loss, ref_grads = reference_total_loss(params, batch, 0.3)
            assert loss == ref_loss
            for got, want in zip((grads.w1, grads.b1, grads.w2, grads.b2), ref_grads):
                assert np.array_equal(got, want)

    def test_repeated_pair_rows_rejected(self):
        batch = random_batch(np.random.default_rng(41), pairs=3)
        batch.pair_rows = np.array([1, 4, 1])
        with pytest.raises(InvalidInputError):
            total_loss(init_classifier(5, 4, 3, seed=0), batch, 0.1)


class TestNegativeSeeds:
    @pytest.mark.parametrize("make", [
        lambda: init_classifier(4, 3, 2, seed=-1),
        lambda: TrainConfig(seed=-1).validate(),
        lambda: PhaseSchedule(4, 2, 1, 2, seed=-1).validate(),
        lambda: make_toy_dataset(2, 2, seed=-2),
        lambda: make_toy_dataset(2, 2, salt=-8),
        lambda: init_codec_params(CodecConfig(seed=-1)),
        lambda: random_model(8, (4,), seed=-1),
        lambda: LatentModelPair.seeded(8, (4,), 4, -1),
        lambda: RawExemplarStore(2, seed=-1),
        lambda: AnsCoder.with_random_bits(64, [3, -1]),
    ])
    def test_rejected_as_invalid_input(self, make):
        with pytest.raises(InvalidInputError):
            make()


def pinned_train_phase(mode):
    """sha256 of the parameters `train_phase` returns on fixed toy data: no
    raw views (drr), every row paired in shuffled order (ib-drr), or 11 of
    27 rows paired (ib-drr-star).  Batches of 5 leave a short last one."""
    images, labels = make_toy_dataset(3, 9, side=8, seed=5)
    rng = np.random.default_rng(17)
    raw = np.clip(images + rng.normal(0.0, 0.05, size=images.shape), 0.0, 1.0)
    data = Batch(recon=images, labels=labels)
    if mode != "drr":
        rows = (rng.permutation(len(labels)) if mode == "ib-drr"
                else rng.choice(len(labels), size=11, replace=False))
        data = Batch(recon=images, labels=labels, raw=raw[rows], pair_rows=rows)
    config = TrainConfig(mode=mode, ib_weight=0.5, epochs=7, lr=0.08, batch_size=5,
                         hidden_dim=7, seed=3)
    params = train_phase(data, 3, config)
    return hashlib.sha256(b"".join(
        a.tobytes() for a in (params.w1, params.b1, params.w2, params.b2))).hexdigest()


class TestLeanStep:
    # Taken with the step that built and validated a Batch and computed the
    # loss values every step; the gradient-only step must match bit for bit.
    @pytest.mark.parametrize("mode, pinned", [
        ("drr", "f1122a31550d6274c1c715fdec2fd87891723b06a4c3874b38bfadfe3db27a9b"),
        ("ib-drr", "f127b2fdb62369e8465316cd4078b07d9e77cac87b266260b3b381ddfba837f4"),
        ("ib-drr-star", "28f7d6e8042f4907a73c4704926230bdf2cd539ac0ce26790161b8c0fffd07e6"),
    ])
    def test_train_phase_is_pinned(self, mode, pinned):
        assert pinned_train_phase(mode) == pinned

    @pytest.mark.parametrize("pair_rows", [
        [-1, 2],      # negative: would pair with the last row
        [1, 1],       # repeated: would drop a raw image
        [0, 99],      # outside the rows
        [0, 1, 2],    # one row more than the two raw images
    ])
    def test_bad_pair_rows_rejected(self, pair_rows):
        data = separable_data(n_per=5)
        bad = Batch(recon=data.recon, labels=data.labels,
                    raw=data.recon[:2], pair_rows=np.array(pair_rows))
        with pytest.raises(InvalidInputError):
            train_phase(bad, 2, TrainConfig(epochs=1))

    @pytest.mark.parametrize("with_raw", [True, False])
    def test_raw_images_and_pair_rows_come_together(self, with_raw):
        data = separable_data(n_per=5)
        half = (Batch(recon=data.recon, labels=data.labels, raw=data.recon[:2])
                if with_raw else
                Batch(recon=data.recon, labels=data.labels, pair_rows=np.arange(2)))
        with pytest.raises(InvalidInputError):
            train_phase(half, 2, TrainConfig(epochs=1))

    def test_images_and_labels_must_align(self):
        data = separable_data(n_per=5)
        with pytest.raises(InvalidInputError):
            train_phase(Batch(recon=data.recon[:-1], labels=data.labels), 2,
                        TrainConfig(epochs=1))

    def test_raw_images_must_match_the_reconstructions(self):
        data = separable_data(n_per=5)
        bad = Batch(recon=data.recon, labels=data.labels,
                    raw=np.zeros((2, 1, 1, 1)), pair_rows=np.arange(2))
        with pytest.raises(InvalidInputError):
            train_phase(bad, 2, TrainConfig(epochs=1))

    def test_zero_raw_representation_rejected(self):
        # b1 starts at zero, so an all-zero raw image has a zero representation
        data = separable_data(n_per=5)
        paired = Batch(recon=data.recon, labels=data.labels,
                       raw=np.zeros((3, 2, 1, 1)), pair_rows=np.arange(3))
        with pytest.raises(DegenerateInputError):
            train_phase(paired, 2, TrainConfig(epochs=1))


def bad_batches():
    """Per rule of `Batch.validate`, its message and a batch that breaks only
    that rule; every row of a good batch is a (2, 1, 1) image of class 0 or 1."""
    recon = np.random.default_rng(0).normal(size=(6, 2, 1, 1))
    labels = np.array([0, 1, 0, 1, 0, 1])
    views = recon[:2] + 0.1
    return {
        "must align": Batch(recon=recon[:-1], labels=labels),
        "empty batch": Batch(recon=recon[:0], labels=labels[:0]),
        "labels must be integers": Batch(recon=recon, labels=labels.astype(float)),
        "label outside": Batch(recon=recon, labels=labels * 2),
        "come together": Batch(recon=recon, labels=labels, raw=views),
        "needs its paired row": Batch(recon=recon, labels=labels, raw=views,
                                      pair_rows=np.arange(3)),
        "must be distinct": Batch(recon=recon, labels=labels, raw=views,
                                  pair_rows=np.array([1, 1])),
        "outside the batch": Batch(recon=recon, labels=labels, raw=views,
                                   pair_rows=np.array([0, 6])),
        "reconstructions' shape": Batch(recon=recon, labels=labels,
                                        raw=views.reshape(2, 1, 2, 1), pair_rows=np.arange(2)),
    }


class TestBatch:
    """`Batch` is the one training set: `total_loss` and `train_phase` both
    check it through `Batch.validate` and read its rows flattened."""

    @pytest.mark.parametrize("message", sorted(bad_batches()))
    def test_both_consumers_reject_a_bad_batch(self, message):
        batch = bad_batches()[message]
        with pytest.raises(InvalidInputError, match=message):
            total_loss(init_classifier(2, 3, 2, seed=0), batch, 0.5)
        with pytest.raises(InvalidInputError, match=message):
            train_phase(batch, 2, TrainConfig(epochs=1))

    def test_total_loss_reads_image_rows_flattened(self):
        batch = random_batch(np.random.default_rng(3), n=6, dim=6, pairs=4)
        images = Batch(recon=batch.recon.reshape(6, 1, 2, 3), labels=batch.labels,
                       raw=batch.raw.reshape(4, 1, 2, 3), pair_rows=batch.pair_rows)
        params = init_classifier(6, 4, 3, seed=5)
        loss, grads, _ = total_loss(params, batch, 0.4)
        image_loss, image_grads, _ = total_loss(params, images, 0.4)
        assert image_loss == loss
        for a, b in zip(vars(grads).values(), vars(image_grads).values()):
            assert np.array_equal(a, b)

    def test_missing_class_is_a_phase_rule(self):
        # A batch may lack a class of the classifier; a phase may not.
        batch = Batch(recon=np.ones((2, 3)), labels=np.array([0, 2]))
        batch.validate(3)
        total_loss(init_classifier(3, 2, 3, seed=0), batch, 0.0)
        with pytest.raises(InvalidInputError, match=r"missing classes \[1\]"):
            train_phase(batch, 3, TrainConfig(epochs=1))
