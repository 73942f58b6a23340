"""Two-level vector-quantized image codec.

Images are cut into non-overlapping patches.  Each patch is linearly mapped
to an embedding and snapped to its nearest bottom-codebook row; the
pre-quantization embeddings are additionally average-pooled, mapped through
a second linear layer, and snapped to the top codebook.  Decoding mirrors
the two maps: the top embedding is mapped back, upsampled, summed with the
bottom embedding, and projected back to pixel space.

Quantization is not differentiable, so training uses the usual surgery:
the reconstruction gradient is copied straight through the quantizer to the
encoder output, the codebook term pulls codebook rows toward encoder
outputs (and nothing else), and the commitment term pulls encoder outputs
toward their codebook rows (and nothing else).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataCorruptionError, InvalidInputError, StateError

CODEC_MAGIC = b"DRRC"
CODEC_FORMAT_VERSION = 1

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


@dataclass
class CodecParams:
    """All learnable state of the codec plus its fixed geometry.

    Weight shapes (d = embed_dim, D = patch * patch * channels):
      enc_bottom_w (d, D)   enc_top_w (d, d)
      dec_top_w    (d, d)   dec_bottom_w (D, d)
    Codebooks are (K, d), one per level.
    """

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
        return (
            "enc_bottom_w", "enc_bottom_b", "enc_top_w", "enc_top_b",
            "dec_top_w", "dec_top_b", "dec_bottom_w", "dec_bottom_b",
            "codebook_top", "codebook_bottom",
        )

    def copy(self) -> "CodecParams":
        kwargs = {name: getattr(self, name).copy() for name in self.weight_fields()}
        return replace(self, **kwargs)


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


def validate_image(image: np.ndarray, params: CodecParams | None = None) -> np.ndarray:
    """Check value range and geometry; returns the image as float64."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3:
        raise InvalidInputError(f"image must be H x W x C, got shape {img.shape}")
    if not np.all(np.isfinite(img)) or img.min() < 0.0 or img.max() > 1.0:
        raise InvalidInputError("image values must lie in [0, 1]")
    if params is not None:
        h, w, c = img.shape
        cell = params.patch * params.pool
        if c != params.channels:
            raise InvalidInputError(f"expected {params.channels} channels, got {c}")
        if h % cell != 0 or w % cell != 0:
            raise InvalidInputError(
                f"image size {h}x{w} not divisible by patch*pool = {cell}")
    return img


def quantize(z: np.ndarray, codebook: np.ndarray) -> tuple[int, np.ndarray]:
    """Nearest codebook row to `z` under Euclidean distance.

    Returns (index, row).  Ties break toward the lowest index.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or codebook.ndim != 2 or z.shape[0] != codebook.shape[1]:
        raise InvalidInputError("z must be a vector matching the codebook width")
    d2 = ((codebook - z) ** 2).sum(axis=1)
    k = int(np.argmin(d2))
    return k, codebook[k].copy()


def _nearest_indices(z: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    """Row-wise nearest codebook indices for a (N, d) batch."""
    d2 = (
        (z ** 2).sum(axis=1, keepdims=True)
        - 2.0 * z @ codebook.T
        + (codebook ** 2).sum(axis=1)
    )
    return np.argmin(d2, axis=1)


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


def _encode_features(images: np.ndarray, params: CodecParams):
    """Forward pass up to the quantizers for a batch of images."""
    t = params.pool
    patches = _extract_patches(images, params.patch)
    z_bottom = patches @ params.enc_bottom_w.T + params.enc_bottom_b
    n, hb, wb, d = z_bottom.shape
    pooled = z_bottom.reshape(n, hb // t, t, wb // t, t, d).mean(axis=(2, 4))
    z_top = pooled @ params.enc_top_w.T + params.enc_top_b
    return patches, z_bottom, pooled, z_top


def _quantize_grids(z_bottom: np.ndarray, z_top: np.ndarray, params: CodecParams):
    d = params.embed_dim
    idx_b = _nearest_indices(z_bottom.reshape(-1, d), params.codebook_bottom)
    idx_t = _nearest_indices(z_top.reshape(-1, d), params.codebook_top)
    return (
        idx_b.reshape(z_bottom.shape[:-1]).astype(np.int32),
        idx_t.reshape(z_top.shape[:-1]).astype(np.int32),
    )


def encode_image(image: np.ndarray, params: CodecParams) -> CodeGrid:
    """Deterministically map an image to its two code grids."""
    img = validate_image(image, params)
    _, z_bottom, _, z_top = _encode_features(img[None], params)
    idx_b, idx_t = _quantize_grids(z_bottom, z_top, params)
    return CodeGrid(top=idx_t[0], bottom=idx_b[0])


def _decode_embeddings(emb_top: np.ndarray, emb_bottom: np.ndarray, params: CodecParams):
    """Shared decoder path: top map, upsample, sum, bottom map.

    Returns (patch reconstructions, summed hidden grid).
    """
    t = params.pool
    u = emb_top @ params.dec_top_w.T + params.dec_top_b
    u_up = u.repeat(t, axis=1).repeat(t, axis=2)
    hidden = emb_bottom + u_up
    patches = hidden @ params.dec_bottom_w.T + params.dec_bottom_b
    return patches, hidden


def decode_codes(grid: CodeGrid, params: CodecParams) -> np.ndarray:
    """Reconstruct an image from its code grids, clamped to [0, 1]."""
    k = params.codebook_size
    for name, idx in (("top", grid.top), ("bottom", grid.bottom)):
        if idx.ndim != 2 or idx.min() < 0 or idx.max() >= k:
            raise InvalidInputError(f"{name} indices must be a 2-d grid in [0, {k})")
    ht, wt = grid.top.shape
    hb, wb = grid.bottom.shape
    if (hb, wb) != (ht * params.pool, wt * params.pool):
        raise InvalidInputError("grid shapes do not match the pooling factor")
    emb_t = params.codebook_top[grid.top][None]
    emb_b = params.codebook_bottom[grid.bottom][None]
    patches, _ = _decode_embeddings(emb_t, emb_b, params)
    images = _assemble_patches(patches, params.patch, params.channels)
    return np.clip(images[0], 0.0, 1.0)


def _batch_loss_and_grads(images: np.ndarray, params: CodecParams):
    """Mean loss over a batch and gradients for every weight field.

    The three terms: squared reconstruction error (straight-through through
    both quantizers), codebook pull (gradient to codebooks only), and the
    beta-weighted commitment pull (gradient to encoder outputs only).
    """
    n = images.shape[0]
    t = params.pool
    d = params.embed_dim
    patches, z_bottom, pooled, z_top = _encode_features(images, params)
    idx_b, idx_t = _quantize_grids(z_bottom, z_top, params)
    q_bottom = params.codebook_bottom[idx_b]
    q_top = params.codebook_top[idx_t]

    # Straight-through: decode from codebook rows, but route reconstruction
    # gradients into z_bottom / z_top as if they had been decoded directly.
    recon, hidden = _decode_embeddings(q_top, q_bottom, params)

    err = recon - patches
    loss_rec = (err ** 2).sum()
    diff_b = z_bottom - q_bottom
    diff_t = z_top - q_top
    loss_codebook = (diff_b ** 2).sum() + (diff_t ** 2).sum()
    loss = (loss_rec + (1.0 + params.beta) * loss_codebook) / n

    d_recon = 2.0 * err / n
    flat_dr = d_recon.reshape(-1, params.patch_dim)
    flat_hidden = hidden.reshape(-1, d)
    g_dec_bottom_w = flat_dr.T @ flat_hidden
    g_dec_bottom_b = flat_dr.sum(axis=0)

    d_hidden = d_recon @ params.dec_bottom_w
    d_u = d_hidden.reshape(n, idx_t.shape[1], t, idx_t.shape[2], t, d).sum(axis=(2, 4))
    flat_du = d_u.reshape(-1, d)
    g_dec_top_w = flat_du.T @ q_top.reshape(-1, d)
    g_dec_top_b = flat_du.sum(axis=0)

    # Encoder-output gradients: straight-through plus commitment.
    d_z_top = d_u @ params.dec_top_w + (2.0 * params.beta / n) * diff_t
    d_z_bottom = d_hidden + (2.0 * params.beta / n) * diff_b

    flat_dzt = d_z_top.reshape(-1, d)
    g_enc_top_w = flat_dzt.T @ pooled.reshape(-1, d)
    g_enc_top_b = flat_dzt.sum(axis=0)

    d_pooled = d_z_top @ params.enc_top_w
    d_z_bottom = d_z_bottom + (
        d_pooled[:, :, None, :, None, :] / (t * t)
    ).repeat(t, axis=2).repeat(t, axis=4).reshape(z_bottom.shape)

    flat_dzb = d_z_bottom.reshape(-1, d)
    g_enc_bottom_w = flat_dzb.T @ patches.reshape(-1, params.patch_dim)
    g_enc_bottom_b = flat_dzb.sum(axis=0)

    # Codebook term: pulls selected rows toward the (stopped) encoder outputs.
    g_cb_bottom = np.zeros_like(params.codebook_bottom)
    np.add.at(g_cb_bottom, idx_b.ravel(), (-2.0 / n) * diff_b.reshape(-1, d))
    g_cb_top = np.zeros_like(params.codebook_top)
    np.add.at(g_cb_top, idx_t.ravel(), (-2.0 / n) * diff_t.reshape(-1, d))

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
    return loss, grads


def vq_loss_and_grads(image: np.ndarray, params: CodecParams):
    """Training loss and analytic gradients for a single image."""
    img = validate_image(image, params)
    return _batch_loss_and_grads(img[None], params)


def init_codec_params(config: CodecConfig) -> CodecParams:
    """Seeded initialization; codebook rows i.i.d. uniform in [-1/K, 1/K]."""
    if min(config.patch, config.pool, config.channels, config.codebook_size, config.embed_dim) < 1:
        raise InvalidInputError("patch, pool, channels, codebook size and embed dim must be positive")
    rng = np.random.default_rng(config.seed)
    d = config.embed_dim
    patch_dim = config.patch * config.patch * config.channels
    k = config.codebook_size

    def linear(out_dim, in_dim):
        bound = 1.0 / np.sqrt(in_dim)
        return rng.uniform(-bound, bound, size=(out_dim, in_dim))

    return CodecParams(
        patch=config.patch,
        pool=config.pool,
        channels=config.channels,
        enc_bottom_w=linear(d, patch_dim),
        enc_bottom_b=np.zeros(d),
        enc_top_w=linear(d, d),
        enc_top_b=np.zeros(d),
        dec_top_w=linear(d, d),
        dec_top_b=np.zeros(d),
        dec_bottom_w=linear(patch_dim, d),
        dec_bottom_b=np.zeros(patch_dim),
        codebook_top=rng.uniform(-1.0 / k, 1.0 / k, size=(k, d)),
        codebook_bottom=rng.uniform(-1.0 / k, 1.0 / k, size=(k, d)),
        beta=config.beta,
    )


def train_codec(dataset, config: CodecConfig, params: CodecParams | None = None) -> CodecParams:
    """Plain full-batch gradient descent on the three-term loss.

    With `epochs=0` the returned params equal the seeded initialization.
    Deterministic: the same dataset, config and seed give identical weights.
    """
    if params is not None and params.frozen:
        raise StateError("codec is frozen; training is not allowed")
    if len(dataset) == 0:
        raise InvalidInputError("training dataset is empty")
    if params is None:
        params = init_codec_params(config)
    else:
        params = params.copy()
    images = [validate_image(img, params) for img in dataset]
    if len({img.shape for img in images}) != 1:
        raise InvalidInputError("training images must all have one shape")
    images = np.stack(images)
    for _ in range(config.epochs):
        _, grads = _batch_loss_and_grads(images, params)
        for name in params.weight_fields():
            arr = getattr(params, name)
            arr -= config.lr * grads[name]
    return params


def freeze(params: CodecParams) -> CodecParams:
    """Mark the codec immutable.  Idempotent; encoding is unaffected."""
    if params.frozen:
        return params
    out = params.copy()
    out.frozen = True
    return out


def mean_reconstruction_error(dataset, params: CodecParams) -> float:
    """Mean squared pixel error of encode-then-decode over a dataset."""
    if len(dataset) == 0:
        raise InvalidInputError("dataset is empty")
    total = 0.0
    for img in dataset:
        rec = decode_codes(encode_image(img, params), params)
        total += float(((rec - img) ** 2).mean())
    return total / len(dataset)


# -- serialization ----------------------------------------------------------

def _pack_array(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def serialize_codec(params: CodecParams) -> bytes:
    """Codec file: magic, format version, geometry header, weights,
    codebooks last.  Matrices are little-endian float64."""
    head = CODEC_MAGIC + struct.pack(
        "<HIIIIIBd",
        CODEC_FORMAT_VERSION,
        params.patch,
        params.pool,
        params.channels,
        params.codebook_size,
        params.embed_dim,
        1 if params.frozen else 0,
        params.beta,
    )
    body = b"".join(_pack_array(getattr(params, name)) for name in params.weight_fields()
                    if not name.startswith("codebook"))
    body += _pack_array(params.codebook_top) + _pack_array(params.codebook_bottom)
    return head + body


def deserialize_codec(data: bytes) -> CodecParams:
    head_len = 4 + struct.calcsize("<HIIIIIBd")
    if len(data) < head_len or data[:4] != CODEC_MAGIC:
        raise DataCorruptionError("bad codec magic")
    version, patch, pool, channels, k, d, frozen, beta = struct.unpack(
        "<HIIIIIBd", data[4:head_len])
    if version != CODEC_FORMAT_VERSION:
        raise DataCorruptionError(f"unsupported codec format version {version}")
    patch_dim = patch * patch * channels
    shapes = [
        ("enc_bottom_w", (d, patch_dim)), ("enc_bottom_b", (d,)),
        ("enc_top_w", (d, d)), ("enc_top_b", (d,)),
        ("dec_top_w", (d, d)), ("dec_top_b", (d,)),
        ("dec_bottom_w", (patch_dim, d)), ("dec_bottom_b", (patch_dim,)),
        ("codebook_top", (k, d)), ("codebook_bottom", (k, d)),
    ]
    expected = head_len + sum(int(np.prod(s)) for _, s in shapes) * 8
    if len(data) != expected:
        raise DataCorruptionError("codec file length mismatch")
    offset = head_len
    fields = {}
    for name, shape in shapes:
        count = int(np.prod(shape))
        arr = np.frombuffer(data, dtype="<f8", count=count, offset=offset)
        fields[name] = arr.reshape(shape).astype(np.float64)
        offset += count * 8
    return CodecParams(
        patch=patch, pool=pool, channels=channels,
        beta=beta, frozen=bool(frozen), **fields)


def serialize_code_grid(grid: CodeGrid) -> bytes:
    """Grid file: both grid shapes, then indices as unsigned 16-bit
    little-endian, top grid first.  Exactly 16 bits per code."""
    if grid.top.max(initial=0) >= 1 << 16 or grid.bottom.max(initial=0) >= 1 << 16:
        raise InvalidInputError("code indices do not fit in 16 bits")
    head = struct.pack("<IIII", *grid.top.shape, *grid.bottom.shape)
    body = grid.top.astype("<u2").tobytes() + grid.bottom.astype("<u2").tobytes()
    return head + body


def deserialize_code_grid(data: bytes) -> CodeGrid:
    head_len = struct.calcsize("<IIII")
    if len(data) < head_len:
        raise DataCorruptionError("code grid header truncated")
    ht, wt, hb, wb = struct.unpack("<IIII", data[:head_len])
    expected = head_len + 2 * (ht * wt + hb * wb)
    if len(data) != expected:
        raise DataCorruptionError("code grid length mismatch")
    top = np.frombuffer(data, dtype="<u2", count=ht * wt, offset=head_len)
    bottom = np.frombuffer(data, dtype="<u2", count=hb * wb, offset=head_len + 2 * ht * wt)
    return CodeGrid(
        top=top.reshape(ht, wt).astype(np.int32),
        bottom=bottom.reshape(hb, wb).astype(np.int32),
    )
