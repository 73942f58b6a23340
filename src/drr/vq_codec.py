"""Two-level vector-quantized image codec.

Images are cut into non-overlapping patches.  Each patch is linearly mapped
to an embedding and snapped to its nearest bottom-codebook row; the
pre-quantization embeddings are additionally average-pooled, mapped through
a second linear layer, and snapped to the top codebook.  The decoder is
linear: the top embedding is mapped back, upsampled, summed with the bottom
embedding, and projected back to pixel space.  So each output patch is the
sum of one row per level of two (K, patch_dim) patch tables, and decoding
stored codes is a table lookup (`decode_indices`); training runs the
decoder's two maps (`_decode_embeddings`), whose hidden grid it needs for
gradients.

Quantization is not differentiable, so training uses the usual surgery:
the reconstruction gradient is copied straight through the quantizer to the
encoder output, the codebook term pulls codebook rows toward encoder
outputs (and nothing else), and the commitment term pulls encoder outputs
toward their codebook rows (and nothing else).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .container import pack_array, seal, unpack_array, unseal
from .errors import (
    DataCorruptionError,
    DegenerateInputError,
    InvalidInputError,
    check_finite,
    check_seed,
)

CODEC_MAGIC = b"DRRC"
CODEC_FORMAT_VERSION = 4
# Codec geometry: patch, pool, channels, codebook size, embed dim, frozen
# flag, beta; the packed weights follow, float32 if the codec is frozen.
CODEC_GEOMETRY = struct.Struct("<IIIIIBd")
_GRID_HEAD = struct.Struct("<IIII")  # top grid shape, bottom grid shape

DEFAULT_CODEBOOK_SIZE = 512
DEFAULT_EMBED_DIM = 64
DEFAULT_BETA = 0.25
DEFAULT_LR = 3e-4


@dataclass
class CodecConfig:
    """Geometry and training knobs for `train_codec`."""

    patch: int = 4
    pool: int = 2
    channels: int = 3
    codebook_size: int = DEFAULT_CODEBOOK_SIZE
    embed_dim: int = DEFAULT_EMBED_DIM
    beta: float = DEFAULT_BETA
    lr: float = DEFAULT_LR
    epochs: int = 100
    seed: int = 0

    def validate(self) -> None:
        """InvalidInputError unless the training knobs are in their domain;
        0 epochs is legal and trains nothing."""
        if self.epochs < 0:
            raise InvalidInputError(f"codec epochs must be nonnegative, got {self.epochs!r}")
        check_finite(self.lr, "codec lr", positive=True)
        check_finite(self.beta, "beta", positive=False)


def weight_shapes(patch_dim: int, embed_dim: int, codebook_size: int) -> dict:
    """Shape of every weight field of a codec, in serialization order;
    patch_dim is patch * patch * channels."""
    d, p, k = embed_dim, patch_dim, codebook_size
    return {"enc_bottom_w": (d, p), "enc_bottom_b": (d,), "enc_top_w": (d, d), "enc_top_b": (d,),
            "dec_top_w": (d, d), "dec_top_b": (d,), "dec_bottom_w": (p, d), "dec_bottom_b": (p,),
            "codebook_top": (k, d), "codebook_bottom": (k, d)}


def _check_geometry(patch, pool, channels, codebook_size, embed_dim, error=InvalidInputError):
    """`error` unless every geometry field is positive."""
    if min(patch, pool, channels, codebook_size, embed_dim) < 1:
        raise error("patch, pool, channels, codebook size and embed dim must be positive")


@dataclass
class CodecParams:
    """All learnable state of the codec plus its fixed geometry; the
    weights are shaped as `weight_shapes` gives them."""

    patch: int
    pool: int
    channels: int
    enc_bottom_w: np.ndarray
    enc_bottom_b: np.ndarray
    enc_top_w: np.ndarray
    enc_top_b: np.ndarray
    dec_top_w: np.ndarray
    dec_top_b: np.ndarray
    dec_bottom_w: np.ndarray
    dec_bottom_b: np.ndarray
    codebook_top: np.ndarray
    codebook_bottom: np.ndarray
    beta: float = DEFAULT_BETA
    frozen: bool = False

    @property
    def codebook_size(self) -> int:
        return self.codebook_top.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.codebook_top.shape[1]

    @property
    def patch_dim(self) -> int:
        return self.patch * self.patch * self.channels

    def weight_fields(self) -> tuple[str, ...]:
        return tuple(weight_shapes(self.patch_dim, self.embed_dim, self.codebook_size))


@dataclass
class CodeGrid:
    """Discrete codes for one image: a coarse top grid and a fine bottom grid."""

    top: np.ndarray     # int32, shape (H_t, W_t)
    bottom: np.ndarray  # int32, shape (H_b, W_b)

    @property
    def code_count(self) -> int:
        return self.top.size + self.bottom.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, CodeGrid):
            return NotImplemented
        return np.array_equal(self.top, other.top) and np.array_equal(self.bottom, other.bottom)


def code_shapes(image_shape, codec: CodecParams):
    """The (top, bottom) grid shapes `codec` gives an image of
    `image_shape`, or None if the codec cannot code such an image: it must
    be H x W x channels, with H and W positive multiples of patch * pool."""
    if len(image_shape) != 3:
        return None
    h, w, c = image_shape
    cell = codec.patch * codec.pool
    if c != codec.channels or h % cell or w % cell or not h * w:
        return None
    return (h // cell, w // cell), (h // codec.patch, w // codec.patch)


def validate_image(image: np.ndarray, params: CodecParams | None = None) -> np.ndarray:
    """Check value range and, given a codec, that `code_shapes` fits the
    image; returns the image as float64."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3:
        raise InvalidInputError(f"image must be H x W x C, got shape {img.shape}")
    if img.size == 0:
        raise InvalidInputError(f"image has an empty axis: shape {img.shape}")
    if not np.all(np.isfinite(img)) or img.min() < 0.0 or img.max() > 1.0:
        raise InvalidInputError("image values must lie in [0, 1]")
    if params is not None and code_shapes(img.shape, params) is None:
        raise InvalidInputError(
            f"image of shape {img.shape} does not fit the codec: it needs {params.channels} "
            f"channels, and height and width divisible by patch*pool = "
            f"{params.patch * params.pool}")
    return img


def _validated_batch(images, params: CodecParams) -> np.ndarray:
    """The images as one float64 (n, H, W, C) array, each checked by
    `validate_image`; InvalidInputError unless there is at least one and
    all share one shape."""
    images = [validate_image(img, params) for img in images]
    if not images:
        raise InvalidInputError("need at least one image")
    if len({img.shape for img in images}) != 1:
        raise InvalidInputError("images must all have one shape")
    return np.stack(images)


# Rows per distance buffer in `_nearest_indices`: at K=512 the buffer is
# 2 MB, where the whole (N, K) distance matrix of 120 paper-shaped images
# is 31 MB.
_SEARCH_ROWS = 512


def _row_chunks(n: int) -> list[tuple[int, int]]:
    """(start, stop) of near-equal row chunks covering range(n), each at
    most _SEARCH_ROWS rows long.

    Beyond one chunk, every chunk has at least _SEARCH_ROWS // 2 rows.  No
    chunk is tiny because BLAS runs other kernels for one- or two-row
    products (gemv for one row), which round differently from the same rows
    inside a larger product; larger chunks give the whole-batch product's
    bits.
    """
    count = max(1, -(-n // _SEARCH_ROWS))
    bounds = [i * n // count for i in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def _nearest_indices(z: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    """Row-wise nearest codebook indices for a (N, d) batch.

    The distance is (|z|^2 - 2 z.c) + |c|^2, evaluated in place in one
    (rows, K) buffer reused across row chunks.  Ties break toward the
    lowest index.
    """
    n = z.shape[0]
    z_sq = (z ** 2).sum(axis=1, keepdims=True)
    z2 = 2.0 * z
    c_sq = (codebook ** 2).sum(axis=1)
    chunks = _row_chunks(n)
    buf = np.empty((max(stop - start for start, stop in chunks), codebook.shape[0]))
    out = np.empty(n, dtype=np.intp)
    for start, stop in chunks:
        d2 = buf[:stop - start]
        np.matmul(z2[start:stop], codebook.T, out=d2)
        np.subtract(z_sq[start:stop], d2, out=d2)
        d2 += c_sq
        out[start:stop] = d2.argmin(axis=1)
    return out


def _extract_patches(images: np.ndarray, patch: int) -> np.ndarray:
    """(n, H, W, C) -> (n, H_b, W_b, patch*patch*C), row-major cells."""
    n, h, w, c = images.shape
    hb, wb = h // patch, w // patch
    cells = images.reshape(n, hb, patch, wb, patch, c).transpose(0, 1, 3, 2, 4, 5)
    return cells.reshape(n, hb, wb, patch * patch * c)


def _assemble_patches(patches: np.ndarray, patch: int, channels: int) -> np.ndarray:
    """Inverse of `_extract_patches`."""
    n, hb, wb, _ = patches.shape
    cells = patches.reshape(n, hb, wb, patch, patch, channels)
    return cells.transpose(0, 1, 3, 2, 4, 5).reshape(n, hb * patch, wb * patch, channels)


def _cells(grid: np.ndarray, t: int) -> np.ndarray:
    """(n, H, W, d) -> (n, H/t, t, W/t, t, d): the t x t cells under each
    top position; a view of a contiguous grid, so writes reach the grid."""
    n, h, w, d = grid.shape
    return grid.reshape(n, h // t, t, w // t, t, d)


def _embed_patches(patches: np.ndarray, params: CodecParams):
    """Encoder outputs of a patch batch: (z_bottom, pooled, z_top)."""
    z_bottom = patches @ params.enc_bottom_w.T
    z_bottom += params.enc_bottom_b
    pooled = _cells(z_bottom, params.pool).mean(axis=(2, 4))
    z_top = pooled @ params.enc_top_w.T
    z_top += params.enc_top_b
    return z_bottom, pooled, z_top


def _quantize_grids(z_bottom: np.ndarray, z_top: np.ndarray, params: CodecParams):
    d = params.embed_dim
    idx_b = _nearest_indices(z_bottom.reshape(-1, d), params.codebook_bottom)
    idx_t = _nearest_indices(z_top.reshape(-1, d), params.codebook_top)
    return (
        idx_b.reshape(z_bottom.shape[:-1]).astype(np.int32),
        idx_t.reshape(z_top.shape[:-1]).astype(np.int32),
    )


def encode_indices(images, params: CodecParams) -> tuple[np.ndarray, np.ndarray]:
    """The stacked int32 (top, bottom) index arrays, of shapes (n, H_t, W_t)
    and (n, H_b, W_b), of a batch of images of one shape, from one encoder
    pass and one code search per level: the mirror of `decode_indices`.

    Each image's rows are bit-identical to its own `encode_image`, the
    one-image case: the stacked matmuls keep every image's sub-matrices,
    never one 2-D product over the batch, and the code search's chunks are
    never tiny (see `_row_chunks`).
    """
    batch = _validated_batch(images, params)
    z_bottom, _, z_top = _embed_patches(_extract_patches(batch, params.patch), params)
    idx_b, idx_t = _quantize_grids(z_bottom, z_top, params)
    return idx_t, idx_b


def encode_image(image: np.ndarray, params: CodecParams) -> CodeGrid:
    """Deterministically map an image to its two code grids."""
    top, bottom = encode_indices([image], params)
    return CodeGrid(top=top[0], bottom=bottom[0])


def _decode_embeddings(emb_top: np.ndarray, emb_bottom: np.ndarray, params: CodecParams):
    """The decoder's forward pass in training: top map, upsample, sum,
    bottom map.  Training needs the summed hidden grid for its gradients;
    stored codes are decoded through the patch tables (`decode_indices`).

    The sum is made in place in `emb_bottom`, which must be a fresh array
    the caller hands over (a codebook gather), never a codebook itself.
    Returns (patch reconstructions, summed hidden grid); the hidden grid is
    `emb_bottom`.
    """
    u = emb_top @ params.dec_top_w.T
    u += params.dec_top_b
    upsampled = _cells(emb_bottom, params.pool)
    upsampled += u[:, :, None, :, None, :]
    patches = emb_bottom @ params.dec_bottom_w.T
    patches += params.dec_bottom_b
    return patches, emb_bottom


def _build_patch_tables(params: CodecParams) -> tuple[np.ndarray, np.ndarray]:
    """The decoder folded into two (K, patch_dim) patch tables, (top,
    bottom).  Every step of the decoder is linear, so the patch it gives
    bottom code b under top code t is bottom[b] + top[t]: the bottom table
    holds the codebook rows through the bottom map and its bias, the top
    table the top rows through the top map, its bias and the bottom map."""
    top = params.codebook_top @ params.dec_top_w.T
    top += params.dec_top_b
    bottom = params.codebook_bottom @ params.dec_bottom_w.T
    bottom += params.dec_bottom_b
    return top @ params.dec_bottom_w.T, bottom


def _patch_tables(params: CodecParams) -> tuple[np.ndarray, np.ndarray]:
    """`_build_patch_tables` of the codec, built on a frozen codec's first
    decode and kept, read-only, for its later ones; an unfrozen codec,
    which training may still change, builds them on every call.

    The tables are an attribute, not a dataclass field, so `replace`
    and serialization leave them out: `freeze` of an unfrozen
    codec and a deserialized codec build their own.
    """
    if not params.frozen:
        return _build_patch_tables(params)
    tables = vars(params).get("_tables")
    if tables is None:
        tables = _build_patch_tables(params)
        for table in tables:
            table.flags.writeable = False
        params._tables = tables
    return tables


def decode_indices(top, bottom, params: CodecParams) -> np.ndarray:
    """Reconstruct the (n, H, W, C) images of stacked index grids, top of
    shape (n, H_t, W_t) and bottom (n, H_b, W_b), clamped to [0, 1], by
    table lookup.

    The one decoder of code indices.  Each patch is its bottom code's row
    of the bottom patch table plus its top code's row of the top table
    (`_patch_tables`): one gather, one upsampled add in place, then the
    patches are assembled and clipped in place.  Every value is one add of
    two table entries, so each image depends only on its own grids and a
    single-image decode is its row of a batch decode, bit for bit.
    """
    k = params.codebook_size
    top, bottom = np.asarray(top), np.asarray(bottom)
    for name, idx in (("top", top), ("bottom", bottom)):
        # np.integer excludes bool, which a gather would read as a mask.
        if (not np.issubdtype(idx.dtype, np.integer) or idx.ndim != 3 or idx.size == 0
                or idx.min() < 0 or idx.max() >= k):
            raise InvalidInputError(f"{name} indices must be stacked 2-d grids of integers "
                                    f"in [0, {k})")
    n, ht, wt = top.shape
    if bottom.shape != (n, ht * params.pool, wt * params.pool):
        raise InvalidInputError("grid shapes do not match the pooling factor")
    top_table, bottom_table = _patch_tables(params)
    patches = bottom_table[bottom]
    upsampled = _cells(patches, params.pool)
    upsampled += top_table[top][:, :, None, :, None, :]
    images = _assemble_patches(patches, params.patch, params.channels)
    return np.clip(images, 0.0, 1.0, out=images)


def decode_codes(grid: CodeGrid, params: CodecParams) -> np.ndarray:
    """Reconstruct an image from its code grids, clamped to [0, 1]."""
    return decode_indices(grid.top[None], grid.bottom[None], params)[0]


def _codebook_grad(idx: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """(k, d) sums of `rows` by codebook index `idx`.

    One bincount over the flat bins idx * d + column.  It adds each row in
    input order, as `np.add.at` into zeros would, so the sums are
    bit-identical to that.
    """
    d = rows.shape[1]
    bins = (idx.reshape(-1, 1) * d + np.arange(d)).ravel()
    return np.bincount(bins, weights=rows.ravel(), minlength=k * d).reshape(k, d)


def _patch_grads(patches: np.ndarray, params: CodecParams):
    """Gradients for every weight field of the mean loss over a patch batch.

    The three terms: squared reconstruction error (straight-through through
    both quantizers), codebook pull (gradient to codebooks only), and the
    beta-weighted commitment pull (gradient to encoder outputs only).
    Returns (grads, (err, diff_b, diff_t)): the residuals the loss value is
    read from, which training never reads.

    Every patch-sized intermediate is overwritten in place or dropped (with
    the views of it) at its last use, so a step holds about five of them at
    once.
    """
    n = patches.shape[0]
    t = params.pool
    d = params.embed_dim
    k = params.codebook_size
    z_bottom, pooled, z_top = _embed_patches(patches, params)
    idx_b, idx_t = _quantize_grids(z_bottom, z_top, params)
    q_top = params.codebook_top[idx_t]
    diff_t = z_top - q_top
    # z_bottom turns into diff_b in place, against a throwaway gather.
    diff_b = np.subtract(z_bottom, params.codebook_bottom[idx_b], out=z_bottom)
    del z_bottom, z_top

    # Straight-through: decode from codebook rows, but route reconstruction
    # gradients into z_bottom / z_top as if they had been decoded directly.
    # The decoder sums into its own gather; the reconstruction turns into
    # err in place.
    err, hidden = _decode_embeddings(q_top, params.codebook_bottom[idx_b], params)
    err -= patches

    d_recon = 2.0 * err
    d_recon /= n
    flat_dr = d_recon.reshape(-1, params.patch_dim)
    g_dec_bottom_w = flat_dr.T @ hidden.reshape(-1, d)
    g_dec_bottom_b = flat_dr.sum(axis=0)
    del hidden

    d_hidden = d_recon @ params.dec_bottom_w
    del d_recon, flat_dr
    d_u = _cells(d_hidden, t).sum(axis=(2, 4))
    flat_du = d_u.reshape(-1, d)
    g_dec_top_w = flat_du.T @ q_top.reshape(-1, d)
    g_dec_top_b = flat_du.sum(axis=0)

    # Encoder-output gradients: straight-through plus commitment.  The top
    # one and its weight gradients come first, so their operands are gone
    # before the bottom one is built in d_hidden.
    d_z_top = d_u @ params.dec_top_w + (2.0 * params.beta / n) * diff_t
    del q_top, d_u, flat_du
    flat_dzt = d_z_top.reshape(-1, d)
    g_enc_top_w = flat_dzt.T @ pooled.reshape(-1, d)
    g_enc_top_b = flat_dzt.sum(axis=0)
    d_pooled = d_z_top @ params.enc_top_w
    del pooled, d_z_top, flat_dzt

    d_z_bottom = d_hidden
    d_z_bottom += (2.0 * params.beta / n) * diff_b
    # Average pooling spreads each pooled gradient evenly over its cell.
    spread = _cells(d_z_bottom, t)
    spread += (d_pooled / (t * t))[:, :, None, :, None, :]

    flat_dzb = d_z_bottom.reshape(-1, d)
    g_enc_bottom_w = flat_dzb.T @ patches.reshape(-1, params.patch_dim)
    g_enc_bottom_b = flat_dzb.sum(axis=0)
    del d_hidden, d_z_bottom, spread, flat_dzb

    # Codebook term: pulls selected rows toward the (stopped) encoder outputs.
    g_cb_bottom = _codebook_grad(idx_b, (-2.0 / n) * diff_b.reshape(-1, d), k)
    g_cb_top = _codebook_grad(idx_t, (-2.0 / n) * diff_t.reshape(-1, d), k)

    grads = {
        "enc_bottom_w": g_enc_bottom_w,
        "enc_bottom_b": g_enc_bottom_b,
        "enc_top_w": g_enc_top_w,
        "enc_top_b": g_enc_top_b,
        "dec_top_w": g_dec_top_w,
        "dec_top_b": g_dec_top_b,
        "dec_bottom_w": g_dec_bottom_w,
        "dec_bottom_b": g_dec_bottom_b,
        "codebook_top": g_cb_top,
        "codebook_bottom": g_cb_bottom,
    }
    return grads, (err, diff_b, diff_t)


def _patch_loss_and_grads(patches: np.ndarray, params: CodecParams):
    """Mean loss over a patch batch and gradients for every weight field."""
    grads, (err, diff_b, diff_t) = _patch_grads(patches, params)
    loss_rec = (err ** 2).sum()
    loss_codebook = (diff_b ** 2).sum() + (diff_t ** 2).sum()
    return (loss_rec + (1.0 + params.beta) * loss_codebook) / patches.shape[0], grads


def vq_loss_and_grads(image: np.ndarray, params: CodecParams):
    """Training loss and analytic gradients for a single image."""
    img = validate_image(image, params)
    return _patch_loss_and_grads(_extract_patches(img[None], params.patch), params)


def init_codec_params(config: CodecConfig) -> CodecParams:
    """Seeded initialization, drawn field by field in `weight_shapes` order:
    weight matrices uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)], biases
    zero, codebook rows uniform in [-1/K, 1/K]."""
    _check_geometry(config.patch, config.pool, config.channels, config.codebook_size,
                    config.embed_dim)
    check_seed(config.seed)
    rng = np.random.default_rng(config.seed)
    k = config.codebook_size
    weights = {}
    for name, shape in weight_shapes(config.patch * config.patch * config.channels,
                                     config.embed_dim, k).items():
        if len(shape) == 1:
            weights[name] = np.zeros(shape)
        else:
            bound = 1.0 / k if name.startswith("codebook") else 1.0 / np.sqrt(shape[1])
            weights[name] = rng.uniform(-bound, bound, size=shape)
    return CodecParams(patch=config.patch, pool=config.pool, channels=config.channels,
                       beta=config.beta, **weights)


def train_codec(dataset, config: CodecConfig) -> CodecParams:
    """Plain full-batch gradient descent on the three-term loss, from
    `init_codec_params(config)`.

    With `epochs=0` the returned params equal the seeded initialization.
    Deterministic: the same dataset, config and seed give identical weights.
    """
    config.validate()
    if len(dataset) == 0:
        raise InvalidInputError("training dataset is empty")
    params = init_codec_params(config)
    # The images never change, so their patches are cut once.
    patches = _extract_patches(_validated_batch(dataset, params), params.patch)
    # A diverging run overflows on the way to non-finite weights; that is
    # reported once, below, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.epochs):
            grads = _patch_grads(patches, params)[0]
            for name in params.weight_fields():
                arr = getattr(params, name)
                arr -= config.lr * grads[name]
    if not all(np.all(np.isfinite(getattr(params, name))) for name in params.weight_fields()):
        raise DegenerateInputError(
            "codec training diverged to non-finite weights; lower the learning rate")
    return params


def freeze(params: CodecParams) -> CodecParams:
    """Mark the codec immutable and round each weight to the nearest float32
    value (still in float64 arrays), which its file stores exactly in 4
    bytes.  Idempotent.  The rounding moves reconstructions and may move a
    near-tie code, so encoding can change: freeze before coding.
    InvalidInputError if a finite weight overflows float32."""
    if params.frozen:
        return params
    with np.errstate(over="ignore"):
        rounded = {name: getattr(params, name).astype(np.float32).astype(np.float64)
                   for name in params.weight_fields()}
    for name, arr in rounded.items():
        if np.any(np.isinf(arr) & np.isfinite(getattr(params, name))):
            raise InvalidInputError(f"codec weight {name} overflows float32")
    return replace(params, frozen=True, **rounded)


def mean_reconstruction_error(dataset, indices, params: CodecParams) -> float:
    """Mean squared pixel error of a dataset's reconstructions from its
    `encode_indices` arrays `indices`: image means summed in order."""
    if len(dataset) == 0:
        raise InvalidInputError("dataset is empty")
    recons = decode_indices(*indices, params)
    total = 0.0
    for rec, img in zip(recons, dataset):
        total += float(((rec - img) ** 2).mean())
    return total / len(dataset)


# -- serialization ----------------------------------------------------------

def stored_weight_dtype(frozen: bool) -> np.dtype:
    """The dtype of a codec file's weights: float32 if frozen, else float64."""
    return np.dtype("<f4" if frozen else "<f8")


def serialize_codec(params: CodecParams) -> bytes:
    """Codec file: the container, then the geometry, then every weight in
    `weight_shapes` order, codebooks last, in `stored_weight_dtype`, as
    one `pack_array`.  InvalidInputError for a frozen codec whose weights
    are not float32 values.

    A frozen codec is a value, so its file is built once: the codec keeps
    the bytes it was serialized to or read from, as an attribute outside
    its dataclass fields, and returns them on every later call."""
    kept = vars(params).get("_file")
    if kept is not None:
        return kept
    dtype = stored_weight_dtype(params.frozen)
    head = CODEC_GEOMETRY.pack(params.patch, params.pool, params.channels,
                               params.codebook_size, params.embed_dim,
                               1 if params.frozen else 0, params.beta)
    weights = []
    for name in params.weight_fields():
        values = np.asarray(getattr(params, name), dtype=np.float64).ravel()
        with np.errstate(over="ignore"):
            stored = values.astype(dtype)
        if not np.array_equal(stored, values, equal_nan=True):
            raise InvalidInputError(f"frozen codec weight {name} holds values that are not "
                                    f"float32; freeze rounds them")
        weights.append(stored)
    data = seal(CODEC_MAGIC, CODEC_FORMAT_VERSION, head + pack_array(np.concatenate(weights)))
    if params.frozen:
        params._file = data
    return data


def deserialize_codec(data: bytes) -> CodecParams:
    """The codec of a codec file; a frozen one keeps `data` as its file.
    DataCorruptionError on a bad container, geometry or packed weights."""
    body = unseal(data, CODEC_MAGIC, CODEC_FORMAT_VERSION, "codec")
    if len(body) < CODEC_GEOMETRY.size:
        raise DataCorruptionError("codec file too short for its geometry")
    patch, pool, channels, k, d, frozen, beta = CODEC_GEOMETRY.unpack_from(body)
    if frozen not in (0, 1):
        raise DataCorruptionError(f"codec frozen flag is {frozen}, expected 0 or 1")
    _check_geometry(patch, pool, channels, k, d, DataCorruptionError)
    shapes = weight_shapes(patch * patch * channels, d, k)
    counts = [math.prod(shape) for shape in shapes.values()]
    weights = unpack_array(body[CODEC_GEOMETRY.size:], stored_weight_dtype(frozen),
                           sum(counts), "codec weights")
    fields, offset = {}, 0
    for (name, shape), count in zip(shapes.items(), counts):
        fields[name] = weights[offset:offset + count].reshape(shape).astype(np.float64)
        offset += count
    params = CodecParams(patch=patch, pool=pool, channels=channels,
                         beta=beta, frozen=bool(frozen), **fields)
    if params.frozen:
        params._file = bytes(data)
    return params


def serialize_code_grid(grid: CodeGrid) -> bytes:
    """Grid file: both grid shapes, then indices as unsigned 16-bit
    little-endian, top grid first.  Exactly 16 bits per code."""
    if grid.top.max(initial=0) >= 1 << 16 or grid.bottom.max(initial=0) >= 1 << 16:
        raise InvalidInputError("code indices do not fit in 16 bits")
    head = _GRID_HEAD.pack(*grid.top.shape, *grid.bottom.shape)
    body = grid.top.astype("<u2").tobytes() + grid.bottom.astype("<u2").tobytes()
    return head + body
