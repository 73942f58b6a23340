"""Phase-based incremental classifier harness.

Each phase trains a small classifier from scratch on the reconstructions
held in the replay buffer, optionally pulling the representation of each
reconstruction toward the representation of its raw counterpart (negative
cosine similarity with the raw branch held constant).  Evaluation is
always on raw images, so the regularizer targets exactly the train/test
gap the lossy codec introduces.

The network is deliberately tiny: one tanh hidden layer and a linear head,
with analytic gradients.  The harness verifies protocol and loss
mechanics, not large-scale capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bits_back import DEFAULT_INITIAL_BITS, FitConfig
from .errors import DegenerateInputError, InvalidInputError, check_finite, check_seed
from .rans import DEFAULT_PRECISION
from .replay_store import (
    IngestReport,
    LatentModelPair,
    MemoryReport,
    RawExemplarStore,
    ReplayBuffer,
    class_exemplars,
)
from .vq_codec import CodecConfig, freeze, train_codec

MODES = ("drr", "ib-drr", "ib-drr-star")
DEFAULT_IB_WEIGHT = 0.005


# -- classifier ---------------------------------------------------------------

@dataclass
class ClassifierParams:
    w1: np.ndarray  # (hidden, in)
    b1: np.ndarray
    w2: np.ndarray  # (classes, hidden)
    b2: np.ndarray

    @property
    def n_classes(self) -> int:
        return self.w2.shape[0]


def init_classifier(input_dim: int, hidden_dim: int, n_classes: int,
                    seed: int) -> ClassifierParams:
    if min(input_dim, hidden_dim, n_classes) < 1:
        raise InvalidInputError("classifier dimensions must be positive")
    check_seed(seed)
    rng = np.random.default_rng(seed)

    def linear(out_dim, in_dim):
        bound = 1.0 / np.sqrt(in_dim)
        return rng.uniform(-bound, bound, size=(out_dim, in_dim))

    return ClassifierParams(
        w1=linear(hidden_dim, input_dim), b1=np.zeros(hidden_dim),
        w2=linear(n_classes, hidden_dim), b2=np.zeros(n_classes))


def features(params: ClassifierParams, x: np.ndarray) -> np.ndarray:
    """Hidden representation; the pre-head vector the alignment loss acts on."""
    return np.tanh(x @ params.w1.T + params.b1)


def logits(params: ClassifierParams, x: np.ndarray) -> np.ndarray:
    return features(params, x) @ params.w2.T + params.b2


def predict(params: ClassifierParams, x: np.ndarray) -> np.ndarray:
    return np.argmax(logits(params, x), axis=1)


# -- losses --------------------------------------------------------------------

def ib_loss(r1: np.ndarray, r2: np.ndarray) -> tuple[float, np.ndarray]:
    """Negative cosine similarity; gradient only for r2.

    r1 is the raw-image representation and is treated as a constant: no
    gradient is returned for it, so nothing can flow up its branch.  The
    one-pair case of `_ib_grad`.
    """
    r2 = np.asarray(r2, dtype=np.float64)
    c, grad = _ib_grad(np.asarray(r1, dtype=np.float64).reshape(1, -1), r2.reshape(1, -1))
    return float(np.mean(-c)), grad.reshape(r2.shape)


def _ib_grad(r1: np.ndarray, r2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cosine similarity of each row pair, and the gradient of the mean
    alignment loss for the r2 rows.

    The row norms are `np.linalg.norm`'s own arithmetic for real rows,
    without its call overhead.
    """
    n1 = np.sqrt(np.add.reduce(r1 * r1, axis=1))
    n2 = np.sqrt(np.add.reduce(r2 * r2, axis=1))
    if (n1 < 1e-12).any() or (n2 < 1e-12).any():
        raise DegenerateInputError("cosine alignment needs nonzero representations")
    u1 = r1 / n1[:, None]
    u2 = r2 / n2[:, None]
    c = np.add.reduce(u1 * u2, axis=1)
    grad = (c[:, None] * u2 - u1) / n2[:, None] / len(r1)
    return c, grad


def _softmax_grad(scores: np.ndarray, labels: np.ndarray):
    """(max-shifted scores, their softmax denominators, gradient of the mean
    cross-entropy wrt the scores); the loss value is read off the first two."""
    n = len(labels)
    shifted = scores - scores.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    z = probs.sum(axis=1, keepdims=True)
    probs /= z
    probs[np.arange(n), labels] -= 1.0
    probs /= n
    return shifted, z, probs


def _mean_cross_entropy(shifted: np.ndarray, z: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(np.log(z[:, 0]) - shifted[np.arange(len(labels)), labels]))


@dataclass
class Batch:
    """A training set: reconstructed rows with labels, plus optional raw views.

    A row may be an image of any shape; the classifier reads it flattened.
    `pair_rows[j]` is the row of `recon` that `raw[j]` is a view of, of the
    same shape; each row has at most one raw view, so pair rows are distinct.
    """

    recon: np.ndarray
    labels: np.ndarray
    raw: np.ndarray | None = None
    pair_rows: np.ndarray | None = None

    def validate(self, n_classes: int) -> None:
        """InvalidInputError unless there are rows, one per label, each
        label an integer in range(n_classes), and the raw views and their
        pair rows come together: one row per view, each an integer in
        range(len(rows)), no row twice, and every view of a row's shape."""
        recon, labels = np.asarray(self.recon), np.asarray(self.labels)
        if recon.ndim == 0 or labels.ndim != 1 or len(recon) != len(labels):
            raise InvalidInputError("batch rows and labels must align")
        if not len(labels):
            raise InvalidInputError("empty batch")
        if not np.issubdtype(labels.dtype, np.integer):
            raise InvalidInputError("labels must be integers")
        if labels.min() < 0 or labels.max() >= n_classes:
            raise InvalidInputError("label outside the classifier's classes")
        if (self.raw is None) != (self.pair_rows is None):
            raise InvalidInputError("raw images and pair rows come together")
        if self.raw is None:
            return
        raw, pair_rows = np.asarray(self.raw), np.asarray(self.pair_rows)
        if pair_rows.ndim != 1 or raw.shape[:1] != pair_rows.shape:
            raise InvalidInputError("each raw image needs its paired row")
        if raw.shape[1:] != recon.shape[1:]:
            raise InvalidInputError("raw images must have the reconstructions' shape")
        if not len(pair_rows):
            return
        if not np.issubdtype(pair_rows.dtype, np.integer):
            raise InvalidInputError("pair rows must be integers")
        if pair_rows.min() < 0 or pair_rows.max() >= len(labels):
            raise InvalidInputError("pair row outside the batch")
        if len(set(pair_rows.tolist())) != len(pair_rows):
            raise InvalidInputError("pair rows must be distinct")

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(rows, labels, raw views) as the classifier reads them: rows and
        raw views (None without them) as float64 matrices, one flattened
        row each.  Call on a validated batch."""
        x = np.asarray(self.recon, dtype=np.float64)
        x = x.reshape(len(x), -1)
        raw = (None if self.raw is None
               else np.asarray(self.raw, dtype=np.float64).reshape(len(self.raw), x.shape[1]))
        return x, np.asarray(self.labels), raw


def _gradients(params: ClassifierParams, x: np.ndarray, labels: np.ndarray,
               ib_weight: float, raw_features: np.ndarray | None = None, pair_rows=slice(None)):
    """Gradients of the total loss on rows `x`, unchecked.

    `raw_features` are the constant raw-branch representations of the rows
    `pair_rows` selects (every row by default), or None for no alignment
    term.  Returns (grads, shifted scores, softmax denominators, pair
    cosines or None): the gradient's own intermediates, from which
    `total_loss` reads the loss value.
    """
    h = features(params, x)
    scores = h @ params.w2.T + params.b2
    shifted, z, d_scores = _softmax_grad(scores, labels)
    dh = d_scores @ params.w2

    c = None
    if raw_features is not None:
        c, d_pairs = _ib_grad(raw_features, h[pair_rows])
        dh[pair_rows] += ib_weight * d_pairs

    da = dh * (1.0 - h * h)
    grads = ClassifierParams(w1=da.T @ x, b1=da.sum(axis=0),
                             w2=d_scores.T @ h, b2=d_scores.sum(axis=0))
    return grads, shifted, z, c


def total_loss(params: ClassifierParams, batch: Batch, ib_weight: float,
               raw_features: np.ndarray | None = None):
    """Cross-entropy plus weighted mean alignment loss, with gradients.

    The raw branch enters only through `raw_features`, computed here when
    not supplied and always treated as a constant; passing it explicitly
    pins the branch for gradient checking.
    """
    check_finite(ib_weight, "ib_weight", positive=False)
    batch.validate(params.n_classes)
    x, labels, raw = batch.arrays()
    paired = raw is not None and len(raw)
    if paired and raw_features is None:
        raw_features = features(params, raw)
    grads, shifted, z, c = _gradients(params, x, labels, ib_weight,
                                      raw_features if paired else None, batch.pair_rows)
    ce = _mean_cross_entropy(shifted, z, labels)
    align = float(np.mean(-c)) if paired else 0.0
    return ce + ib_weight * align, grads, {"ce": ce, "align": align}


# -- training and evaluation ----------------------------------------------------

@dataclass
class TrainConfig:
    mode: str = "drr"
    ib_weight: float = DEFAULT_IB_WEIGHT
    epochs: int = 80
    lr: float = 0.05
    batch_size: int = 32
    hidden_dim: int = 24
    seed: int = 0

    def validate(self) -> None:
        if self.mode not in MODES:
            raise InvalidInputError(f"mode must be one of {MODES}")
        check_finite(self.ib_weight, "ib_weight", positive=False)
        check_finite(self.lr, "lr", positive=True)
        if min(self.epochs, self.batch_size, self.hidden_dim) < 1:
            raise InvalidInputError("epochs, batch_size and hidden_dim must be at least 1")
        check_seed(self.seed)


def train_phase(batch: Batch, n_classes: int, config: TrainConfig) -> ClassifierParams:
    """Fresh seeded initialization, then minibatch descent on the total loss.

    A function of (batch, config) alone; phase history enters only through
    the batch, which is what makes equal final replay sets give equal
    classifiers.  The batch is checked once per phase, and every class in
    range(n_classes) must have a row; each step then computes only the
    gradients the update reads, and no loss values.
    """
    config.validate()
    batch.validate(n_classes)
    x, labels, raw = batch.arrays()
    missing = sorted(set(range(n_classes)) - set(np.unique(labels).tolist()))
    if missing:
        raise InvalidInputError(f"replay set is missing classes {missing}")
    if raw is not None:
        pair_of_row = np.full(len(labels), -1, dtype=np.int64)
        pair_of_row[np.asarray(batch.pair_rows, dtype=np.int64)] = np.arange(len(raw))
        # the pair rows are distinct and in range, so this pairs every row
        every_row_paired = len(raw) == len(labels)

    params = init_classifier(x.shape[1], config.hidden_dim, n_classes, config.seed)
    rng = np.random.default_rng(config.seed)
    for _ in range(config.epochs):
        order = rng.permutation(len(labels))
        for start in range(0, len(order), config.batch_size):
            rows = order[start:start + config.batch_size]
            raw_features, pair_rows = None, slice(None)
            if raw is not None:
                raw_rows = pair_of_row[rows]
                if not every_row_paired:
                    hit = raw_rows >= 0
                    raw_rows, pair_rows = raw_rows[hit], np.flatnonzero(hit)
                if len(raw_rows):
                    raw_features = features(params, raw[raw_rows])
            grads = _gradients(params, x[rows], labels[rows], config.ib_weight,
                               raw_features, pair_rows)[0]
            params.w1 -= config.lr * grads.w1
            params.b1 -= config.lr * grads.b1
            params.w2 -= config.lr * grads.w2
            params.b2 -= config.lr * grads.b2
    return params


def evaluate(params: ClassifierParams, images: np.ndarray, labels: np.ndarray) -> float:
    labels = np.asarray(labels)
    if len(labels) == 0:
        raise InvalidInputError("empty test set")
    x = np.asarray(images, dtype=np.float64).reshape(len(labels), -1)
    return float(np.mean(predict(params, x) == labels))


@dataclass
class PhaseResults:
    """Accuracies A_0..A_N; the average skips the initial phase."""

    accuracies: list[float]

    def __post_init__(self):
        if not self.accuracies:
            raise InvalidInputError("need at least the initial phase accuracy")

    @property
    def average(self) -> float | None:
        if len(self.accuracies) < 2:
            return None
        return float(np.mean(self.accuracies[1:]))

    @property
    def last(self) -> float:
        return self.accuracies[-1]


# -- schedules and experiments ---------------------------------------------------

@dataclass
class PhaseSchedule:
    total_classes: int
    initial_classes: int
    n_phases: int
    classes_per_phase: int
    seed: int = 0

    def validate(self) -> None:
        if self.initial_classes < 1 or self.classes_per_phase < 1 or self.n_phases < 0:
            raise InvalidInputError("schedule sizes must be positive")
        if self.initial_classes + self.n_phases * self.classes_per_phase != self.total_classes:
            raise InvalidInputError(
                "initial + phases x per-phase must equal total classes")
        check_seed(self.seed)

    def classes_for_phase(self, phase: int) -> list[int]:
        self.validate()
        if not 0 <= phase <= self.n_phases:
            raise InvalidInputError(f"phase {phase} outside the schedule")
        if phase == 0:
            return list(range(self.initial_classes))
        start = self.initial_classes + (phase - 1) * self.classes_per_phase
        return list(range(start, start + self.classes_per_phase))


@dataclass
class LatentSpec:
    """Geometry and fitting knobs for the per-level chain models."""

    alphabets: tuple[int, ...] = (8, 6)
    block_len: int = 16
    precision: int = DEFAULT_PRECISION
    initial_bits: int = DEFAULT_INITIAL_BITS
    fit_iterations: int = 8


@dataclass
class ExperimentConfig:
    schedule: PhaseSchedule
    codec: CodecConfig
    train: TrainConfig
    latent: LatentSpec = field(default_factory=LatentSpec)
    exemplars_per_class: int = 20


@dataclass
class PhaseRecord:
    phase: int
    classes_seen: int
    accuracy: float
    model_version: int
    buffer_report: MemoryReport
    raw_report: MemoryReport | None
    ingest: dict[int, IngestReport]


@dataclass
class ExperimentResult:
    records: list[PhaseRecord]
    results: PhaseResults
    final_params: ClassifierParams


def make_toy_dataset(n_classes: int, per_class: int, side: int = 16,
                     channels: int = 3, seed: int = 0, salt: int = 0):
    """Seeded striped color patterns, one frequency/color signature per class.

    `salt` separates draws, so train and test splits never share samples.
    """
    if n_classes < 1 or per_class < 1:
        raise InvalidInputError("need at least one class and one sample")
    for name, value in (("side", side), ("channels", channels)):
        if value < 1:
            raise InvalidInputError(f"{name} must be positive, got {value!r}")
    check_seed(seed)
    check_seed(salt, "salt")
    yy, xx = np.mgrid[0:side, 0:side] / side
    images = np.empty((n_classes * per_class, side, side, channels))
    labels = np.repeat(np.arange(n_classes), per_class)
    for c in range(n_classes):
        crng = np.random.default_rng([seed, 101, c])
        fx, fy = crng.uniform(0.6, 2.4, size=2)
        color = crng.uniform(0.0, 2.0 * np.pi, size=channels)
        for j in range(per_class):
            srng = np.random.default_rng([seed, 7 + salt, c, j])
            jitter = srng.uniform(0.0, 2.0 * np.pi)
            noise = srng.normal(0.0, 0.04, size=(side, side, channels))
            wave = 2.0 * np.pi * (fx * xx + fy * yy) + jitter
            img = 0.5 + 0.4 * np.sin(wave[:, :, None] + color[None, None, :])
            images[c * per_class + j] = np.clip(img + noise, 0.0, 1.0)
    return images, labels


def _dataset_by_class(images: np.ndarray, labels: np.ndarray) -> dict[int, np.ndarray]:
    return {int(c): images[labels == c] for c in np.unique(labels)}


def _assemble_phase_data(buffer: ReplayBuffer, raw_store: RawExemplarStore | None,
                         new_labels: list[int], train_by_class, mode: str) -> Batch:
    recons = buffer.reconstruct_all()
    images = np.concatenate([recons[label] for label in sorted(recons)])
    labels = np.concatenate([np.full(len(recons[label]), label, dtype=np.int64)
                             for label in sorted(recons)])
    if mode == "drr":
        return Batch(recon=images, labels=labels)

    if mode == "ib-drr":
        raw_labels = sorted(recons)  # stored raws exist for every seen class
        raw_images = np.concatenate([raw_store.get(label) for label in raw_labels])
    else:  # ib-drr-star: only this phase's raws are available, none are kept
        raw_labels = sorted(new_labels)
        raw_images = np.concatenate([
            class_exemplars(train_by_class[label], buffer.exemplars_per_class, buffer.seed, label)
            for label in raw_labels])
    # rows are concatenated in label order, as the raw views are
    return Batch(recon=images, labels=labels, raw=raw_images,
                 pair_rows=np.flatnonzero(np.isin(labels, raw_labels)))


def run_experiment(train_images: np.ndarray, train_labels: np.ndarray,
                   test_images: np.ndarray, test_labels: np.ndarray,
                   config: ExperimentConfig) -> ExperimentResult:
    """Full phased protocol.

    Phase 0 trains and freezes the codec on the initial classes, seeds the
    chain models, ingests those classes, and trains/evaluates the first
    classifier.  Every later phase ingests its classes (refitting the chain
    models), rebuilds the training set from buffer reconstructions, trains
    a fresh classifier, and evaluates on raw test images of all seen
    classes.
    """
    schedule = config.schedule
    schedule.validate()
    config.train.validate()
    train_by_class = _dataset_by_class(np.asarray(train_images), np.asarray(train_labels))
    test_by_class = _dataset_by_class(np.asarray(test_images), np.asarray(test_labels))
    want = list(range(schedule.total_classes))
    if sorted(train_by_class) != want or sorted(test_by_class) != want:
        raise InvalidInputError(
            f"dataset classes must be exactly 0..{schedule.total_classes - 1}")

    initial = schedule.classes_for_phase(0)
    codec = freeze(train_codec(
        np.concatenate([train_by_class[label] for label in initial]), config.codec))
    pair = LatentModelPair.seeded(config.codec.codebook_size, config.latent.alphabets,
                                  config.latent.block_len, schedule.seed)
    buffer = ReplayBuffer(codec, pair,
                          exemplars_per_class=config.exemplars_per_class,
                          precision=config.latent.precision,
                          initial_bits=config.latent.initial_bits,
                          seed=schedule.seed)
    raw_store = (RawExemplarStore(config.exemplars_per_class, seed=schedule.seed)
                 if config.train.mode == "ib-drr" else None)

    records = []
    accuracies = []
    params = None
    for phase in range(schedule.n_phases + 1):
        new_labels = schedule.classes_for_phase(phase)
        ingest = buffer.ingest_phase({label: train_by_class[label] for label in new_labels},
                                     FitConfig(iterations=config.latent.fit_iterations))
        if raw_store is not None:
            for label in new_labels:
                raw_store.add_class(label, train_by_class[label])
        seen = buffer.class_labels
        batch = _assemble_phase_data(buffer, raw_store, new_labels, train_by_class,
                                     config.train.mode)
        params = train_phase(batch, n_classes=len(seen), config=config.train)
        test_x = np.concatenate([test_by_class[label] for label in seen])
        test_y = np.concatenate([np.full(len(test_by_class[label]), label, dtype=np.int64)
                                 for label in seen])
        accuracy = evaluate(params, test_x, test_y)
        accuracies.append(accuracy)
        records.append(PhaseRecord(
            phase=phase, classes_seen=len(seen), accuracy=accuracy,
            model_version=buffer.pair.version,
            buffer_report=buffer.account(),
            raw_report=raw_store.account() if raw_store is not None else None,
            ingest=ingest))
    return ExperimentResult(records=records, results=PhaseResults(accuracies),
                            final_params=params)
