"""Codec unit tests.

The gradient oracle reimplements the forward pass from scratch with the
quantizer assignments and every stopped value frozen at the base point.
That frozen surrogate is an ordinary differentiable function whose true
gradient is exactly what the straight-through / stop-gradient rules are
supposed to produce, so central differences on it are a valid oracle.
"""

import struct
from dataclasses import replace

import numpy as np
import pytest

from conftest import packed, plain_body, repacked, resealed
from drr.errors import InvalidInputError
from drr.vq_codec import (
    CodecConfig,
    CodecParams,
    CodeGrid,
    _nearest_indices,
    code_shapes,
    decode_codes,
    deserialize_codec,
    encode_image,
    encode_indices,
    freeze,
    init_codec_params,
    mean_reconstruction_error,
    serialize_code_grid,
    serialize_codec,
    train_codec,
    validate_image,
    vq_loss_and_grads,
)


def tiny_config(**kw):
    base = dict(patch=2, pool=2, channels=1, codebook_size=5,
                embed_dim=3, beta=0.25, lr=0.01, epochs=0, seed=0)
    base.update(kw)
    return CodecConfig(**base)


def random_image(rng, h=8, w=8, c=1):
    return rng.random((h, w, c))


def nearest(z, codebook):
    """Index of the codebook row nearest to vector `z`, by exhaustive scan;
    ties go to the lowest index."""
    return int(np.argmin(((codebook - z) ** 2).sum(axis=1)))


class TestQuantize:
    def test_exact_row_maps_to_itself(self):
        codebook = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]])
        assert _nearest_indices(np.array([[1.0, 2.0]]), codebook).tolist() == [1]

    def test_tie_breaks_to_lowest_index(self):
        codebook = np.array([[1.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
        assert _nearest_indices(np.array([[0.0, 0.0]]), codebook).tolist() == [0]

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            kk = int(rng.integers(1, 30))
            d = int(rng.integers(1, 8))
            codebook = rng.normal(size=(kk, d))
            z = rng.normal(size=d)
            assert _nearest_indices(z[None], codebook).tolist() == [nearest(z, codebook)]


class TestEncode:
    def test_geometry_of_code_grids(self):
        params = init_codec_params(CodecConfig(patch=4, pool=2, channels=3,
                                               codebook_size=8, embed_dim=4))
        img = np.random.default_rng(0).random((16, 16, 3))
        grid = encode_image(img, params)
        assert grid.bottom.shape == (4, 4)
        assert grid.top.shape == (2, 2)
        assert grid.code_count == 20
        assert grid.bottom.max() < 8 and grid.bottom.min() >= 0

    def test_encode_is_deterministic(self):
        params = init_codec_params(tiny_config())
        img = random_image(np.random.default_rng(1))
        a = encode_image(img, params)
        b = encode_image(img, params)
        assert a == b

    def test_encode_agrees_with_quantize_on_each_cell(self):
        rng = np.random.default_rng(2)
        params = init_codec_params(tiny_config(seed=3))
        img = random_image(rng)
        grid = encode_image(img, params)
        # Recompute the bottom embedding of cell (0, 0) by hand.
        patch = img[:2, :2, :].reshape(-1)
        z = params.enc_bottom_w @ patch + params.enc_bottom_b
        assert grid.bottom[0, 0] == nearest(z, params.codebook_bottom)

    def test_bad_images_rejected(self):
        params = init_codec_params(tiny_config())
        with pytest.raises(InvalidInputError):
            encode_image(np.full((8, 8, 1), 1.5), params)
        with pytest.raises(InvalidInputError):
            encode_image(np.zeros((7, 8, 1)), params)
        with pytest.raises(InvalidInputError):
            encode_image(np.zeros((8, 8, 2)), params)
        for shape in [(0, 8, 1), (8, 0, 1), (8, 8, 0)]:
            with pytest.raises(InvalidInputError, match="empty axis"):
                encode_image(np.zeros(shape), params)


class TestGeometryRule:
    @pytest.mark.parametrize("patch,pool,channels", [(2, 2, 1), (4, 2, 3), (3, 1, 2), (1, 3, 1)])
    def test_validate_image_rejects_exactly_the_shapes_code_shapes_cannot_code(
            self, patch, pool, channels):
        codec = init_codec_params(tiny_config(patch=patch, pool=pool, channels=channels))
        for h in range(1, 14):
            for w in (1, 6, 12):
                for c in range(1, 5):
                    shapes = code_shapes((h, w, c), codec)
                    if shapes is None:
                        with pytest.raises(InvalidInputError, match="does not fit the codec"):
                            validate_image(np.zeros((h, w, c)), codec)
                        continue
                    validate_image(np.zeros((h, w, c)), codec)
                    grid = encode_image(np.zeros((h, w, c)), codec)
                    assert (grid.top.shape, grid.bottom.shape) == shapes

    def test_message_names_both_requirements(self):
        codec = init_codec_params(tiny_config(patch=4, pool=2, channels=3))
        with pytest.raises(InvalidInputError) as info:
            validate_image(np.zeros((8, 12, 1)), codec)
        assert "3 channels" in str(info.value) and "patch*pool = 8" in str(info.value)


class TestDecode:
    def test_output_shape_and_range(self):
        params = init_codec_params(tiny_config(seed=4))
        rng = np.random.default_rng(4)
        grid = CodeGrid(top=rng.integers(0, 5, (2, 2)).astype(np.int32),
                        bottom=rng.integers(0, 5, (4, 4)).astype(np.int32))
        img = decode_codes(grid, params)
        assert img.shape == (8, 8, 1)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_zero_codec_decodes_to_zero_image(self):
        params = init_codec_params(tiny_config())
        for name in params.weight_fields():
            getattr(params, name)[:] = 0.0
        grid = CodeGrid(top=np.zeros((2, 2), np.int32), bottom=np.zeros((4, 4), np.int32))
        assert np.all(decode_codes(grid, params) == 0.0)

    def test_out_of_range_index_rejected(self):
        params = init_codec_params(tiny_config())
        grid = CodeGrid(top=np.full((2, 2), 7, np.int32), bottom=np.zeros((4, 4), np.int32))
        with pytest.raises(InvalidInputError):
            decode_codes(grid, params)

    def test_mismatched_grid_shapes_rejected(self):
        params = init_codec_params(tiny_config())
        grid = CodeGrid(top=np.zeros((2, 2), np.int32), bottom=np.zeros((3, 4), np.int32))
        with pytest.raises(InvalidInputError):
            decode_codes(grid, params)

    def test_training_improves_reconstruction(self):
        rng = np.random.default_rng(5)
        dataset = [random_image(rng), random_image(rng)]
        config = tiny_config(epochs=0, seed=6)
        fresh = init_codec_params(config)
        before = mean_reconstruction_error(dataset, encode_indices(dataset, fresh), fresh)
        config.epochs = 300
        trained = train_codec(dataset, config)
        after = mean_reconstruction_error(dataset, encode_indices(dataset, trained), trained)
        assert after < before


# -- frozen-surrogate gradient oracle ---------------------------------------

def reference_encoder(img, p, patch, pool):
    """Independent encoder pass over one image with weights `p`: its
    patches and the bottom and top encoder outputs, cell by cell."""
    h, w, c = img.shape
    hb, wb = h // patch, w // patch
    ht, wt = hb // pool, wb // pool
    patches = np.zeros((hb, wb, patch * patch * c))
    for i in range(hb):
        for j in range(wb):
            patches[i, j] = img[i * patch:(i + 1) * patch,
                                j * patch:(j + 1) * patch, :].reshape(-1)
    zb = patches @ p["enc_bottom_w"].T + p["enc_bottom_b"]
    pooled = np.zeros((ht, wt, zb.shape[-1]))
    for i in range(ht):
        for j in range(wt):
            pooled[i, j] = zb[i * pool:(i + 1) * pool,
                              j * pool:(j + 1) * pool].mean(axis=(0, 1))
    zt = pooled @ p["enc_top_w"].T + p["enc_top_b"]
    return patches, zb, zt


def surrogate_forward(img, p, patch, pool, beta, frozen):
    """Independent loss evaluation with indices and stopped values frozen."""
    patches, zb, zt = reference_encoder(img, p, patch, pool)
    hb, wb = zb.shape[:2]

    # Straight-through: decode input is the live embedding plus the frozen
    # offset to the selected codebook row.
    dec_in_b = zb + frozen["offset_b"]
    dec_in_t = zt + frozen["offset_t"]
    u = dec_in_t @ p["dec_top_w"].T + p["dec_top_b"]
    u_up = np.zeros_like(dec_in_b)
    for i in range(hb):
        for j in range(wb):
            u_up[i, j] = u[i // pool, j // pool]
    recon = (dec_in_b + u_up) @ p["dec_bottom_w"].T + p["dec_bottom_b"]

    loss = ((recon - patches) ** 2).sum()
    # Codebook term: live codebook rows, frozen encoder outputs.
    rows_b = p["codebook_bottom"][frozen["idx_b"]]
    rows_t = p["codebook_top"][frozen["idx_t"]]
    loss += ((frozen["zb"] - rows_b) ** 2).sum() + ((frozen["zt"] - rows_t) ** 2).sum()
    # Commitment term: frozen codebook rows, live encoder outputs.
    loss += beta * (((frozen["rows_b"] - zb) ** 2).sum()
                    + ((frozen["rows_t"] - zt) ** 2).sum())
    return loss


def frozen_state(img, params):
    """Capture quantizer assignments and stopped values at the base point."""
    from drr.vq_codec import _embed_patches, _extract_patches, _quantize_grids
    zb, _, zt = _embed_patches(_extract_patches(img[None], params.patch), params)
    idx_b, idx_t = _quantize_grids(zb, zt, params)
    zb, zt, idx_b, idx_t = zb[0], zt[0], idx_b[0], idx_t[0]
    rows_b = params.codebook_bottom[idx_b]
    rows_t = params.codebook_top[idx_t]
    return {
        "idx_b": idx_b, "idx_t": idx_t,
        "zb": zb.copy(), "zt": zt.copy(),
        "rows_b": rows_b.copy(), "rows_t": rows_t.copy(),
        "offset_b": rows_b - zb, "offset_t": rows_t - zt,
    }


def check_gradients(img, params, h=1e-5, tol=1e-4):
    loss, grads = vq_loss_and_grads(img, params)
    frozen = frozen_state(img, params)
    base = {name: getattr(params, name).copy() for name in params.weight_fields()}
    assert loss == pytest.approx(
        surrogate_forward(img, base, params.patch, params.pool, params.beta, frozen),
        rel=1e-12)
    for name in params.weight_fields():
        fd = np.zeros_like(base[name])
        flat = fd.reshape(-1)
        for i in range(flat.size):
            for sign in (+1, -1):
                p = {k: v.copy() for k, v in base.items()}
                p[name].reshape(-1)[i] += sign * h
                flat[i] += sign * surrogate_forward(
                    img, p, params.patch, params.pool, params.beta, frozen)
        fd /= 2 * h
        num = np.linalg.norm(grads[name] - fd)
        den = max(np.linalg.norm(grads[name]), np.linalg.norm(fd), 1e-10)
        assert num / den <= tol, f"gradient mismatch for {name}: {num / den:.2e}"


class TestGradients:
    def test_loss_zero_when_fixed_point(self):
        # All-zero image with an all-zero codec: embeddings coincide with
        # codebook row 0 and the reconstruction is exact.
        params = init_codec_params(tiny_config())
        for name in params.weight_fields():
            getattr(params, name)[:] = 0.0
        img = np.zeros((8, 8, 1))
        loss, grads = vq_loss_and_grads(img, params)
        assert loss == 0.0
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for seed in range(3):
            params = init_codec_params(tiny_config(seed=seed, beta=0.25))
            # Spread the codebooks out so assignments are stable.
            params.codebook_bottom += rng.normal(scale=0.3, size=params.codebook_bottom.shape)
            params.codebook_top += rng.normal(scale=0.3, size=params.codebook_top.shape)
            check_gradients(random_image(rng), params)

    def test_beta_zero_drops_commitment(self):
        rng = np.random.default_rng(8)
        img = random_image(rng)
        p0 = init_codec_params(tiny_config(seed=9, beta=0.0))
        check_gradients(img, p0)

    def test_codebook_term_never_reaches_encoder(self):
        # Zero decoder and beta=0: reconstruction and commitment gradients
        # through the encoder vanish, so any encoder gradient would have to
        # leak from the codebook term.
        rng = np.random.default_rng(10)
        params = init_codec_params(tiny_config(seed=11, beta=0.0))
        params.dec_bottom_w[:] = 0.0
        params.dec_top_w[:] = 0.0
        params.dec_bottom_b[:] = 0.0
        params.dec_top_b[:] = 0.0
        img = random_image(rng)
        _, grads = vq_loss_and_grads(img, params)
        for name in ("enc_bottom_w", "enc_bottom_b", "enc_top_w", "enc_top_b"):
            assert np.all(grads[name] == 0.0), name
        # while the codebook rows do receive their pull
        assert np.any(grads["codebook_bottom"] != 0.0)

    def test_commitment_never_reaches_codebooks(self):
        rng = np.random.default_rng(12)
        img = random_image(rng)
        pa = init_codec_params(tiny_config(seed=13, beta=0.0))
        pb = replace(pa, beta=2.5)
        _, ga = vq_loss_and_grads(img, pa)
        _, gb = vq_loss_and_grads(img, pb)
        assert np.array_equal(ga["codebook_bottom"], gb["codebook_bottom"])
        assert np.array_equal(ga["codebook_top"], gb["codebook_top"])


class TestTraining:
    def test_zero_epochs_equals_seeded_init(self):
        rng = np.random.default_rng(14)
        config = tiny_config(epochs=0, seed=15)
        trained = train_codec([random_image(rng)], config)
        fresh = init_codec_params(config)
        for name in fresh.weight_fields():
            assert np.array_equal(getattr(trained, name), getattr(fresh, name))

    def test_same_seed_is_bitwise_identical(self):
        rng = np.random.default_rng(16)
        dataset = [random_image(rng) for _ in range(3)]
        config = tiny_config(epochs=25, seed=17)
        a = train_codec(dataset, config)
        b = train_codec(dataset, config)
        for name in a.weight_fields():
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidInputError):
            train_codec([], tiny_config())

    def test_loss_decreases(self):
        rng = np.random.default_rng(18)
        dataset = [random_image(rng) for _ in range(2)]
        config = tiny_config(epochs=0, seed=19)
        params = init_codec_params(config)
        images = np.stack(dataset)
        from drr.vq_codec import _extract_patches, _patch_loss_and_grads
        patches = _extract_patches(images, params.patch)
        before, _ = _patch_loss_and_grads(patches, params)
        config.epochs = 200
        after, _ = _patch_loss_and_grads(patches, train_codec(dataset, config))
        assert after < before

    @pytest.mark.parametrize("field, value, name", [
        ("epochs", -5, "codec epochs"), ("lr", 0.0, "codec lr"), ("lr", -0.005, "codec lr"),
        ("lr", float("nan"), "codec lr"), ("lr", float("inf"), "codec lr"),
        ("beta", -1.0, "beta"), ("beta", float("nan"), "beta"), ("beta", float("inf"), "beta")])
    def test_out_of_domain_settings_rejected(self, field, value, name):
        rng = np.random.default_rng(20)
        with pytest.raises(InvalidInputError, match=name):
            train_codec([random_image(rng)], tiny_config(**{"epochs": 1, field: value}))


class TestWorkingSet:
    """A training step drops each patch-sized intermediate at its last use."""

    def test_one_epoch_peak_at_the_benchmark_set_up_shape(self):
        import tracemalloc
        from drr.learner import make_toy_dataset
        images, labels = make_toy_dataset(20, 24, side=32, seed=0, salt=0)
        first = images[labels < 5]
        config = CodecConfig(epochs=1)
        patches = len(first) * (32 // config.patch) ** 2
        patch_array = patches * config.embed_dim * 8  # one (n, d) float64 array
        tracemalloc.start()
        try:
            train_codec(first, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # About 5.3 arrays; holding every intermediate to the end was 13.
        assert peak < 8 * patch_array


class TestFreeze:
    def test_freeze_is_idempotent(self):
        params = freeze(init_codec_params(tiny_config()))
        assert params.frozen
        assert freeze(params) is params

    def test_frozen_weights_are_their_float32_rounding(self):
        params = init_codec_params(tiny_config(seed=25))
        frozen = freeze(params)
        assert not params.frozen
        for name in params.weight_fields():
            weights = getattr(frozen, name)
            assert weights.dtype == np.float64
            assert np.array_equal(weights, getattr(params, name).astype(np.float32))

    def test_freeze_rejects_a_weight_that_overflows_float32(self):
        params = init_codec_params(tiny_config())
        params.dec_bottom_b[0] = 1e39
        with pytest.raises(InvalidInputError, match="dec_bottom_b overflows float32"):
            freeze(params)
        # The largest float32 itself, and a value that rounds down to it, fit.
        params.dec_bottom_b[0] = 3.4028235e38
        assert freeze(params).dec_bottom_b[0] == np.finfo(np.float32).max

    def test_frozen_codes_are_nearest_rows_under_rounded_weights(self):
        # Rounding to float32 may move a near-tie code away from the
        # unfrozen codec's, so what `freeze` keeps is the rule: each code is
        # a nearest codebook row to the encoder output under the frozen
        # codec's own weights, computed here cell by cell.
        rng = np.random.default_rng(20)
        frozen = freeze(init_codec_params(tiny_config(seed=21)))
        weights = {name: getattr(frozen, name) for name in frozen.weight_fields()}
        for img in (random_image(rng) for _ in range(4)):
            grid = encode_image(img, frozen)
            _, zb, zt = reference_encoder(img, weights, frozen.patch, frozen.pool)
            for z, codes, codebook in ((zb, grid.bottom, frozen.codebook_bottom),
                                       (zt, grid.top, frozen.codebook_top)):
                assert codes.shape == z.shape[:2]
                for vector, code in zip(z.reshape(-1, z.shape[-1]), codes.reshape(-1)):
                    distances = ((codebook - vector) ** 2).sum(axis=1)
                    assert distances[code] <= distances.min() + 1e-12


class TestSerialization:
    def test_codec_round_trip(self):
        params = freeze(init_codec_params(tiny_config(seed=22)))
        blob = serialize_codec(params)
        back = deserialize_codec(blob)
        assert back.frozen == params.frozen
        assert back.beta == params.beta
        assert (back.patch, back.pool, back.channels) == (2, 2, 1)
        for name in params.weight_fields():
            assert np.array_equal(getattr(back, name), getattr(params, name))
        assert serialize_codec(back) is serialize_codec(back) == blob  # the kept file
        assert serialize_codec(replace(back)) == blob  # built again from the weights

    # The geometry (29 B) comes before the packed weights.
    GEOMETRY = struct.calcsize("<IIIIIBd")

    def test_frozen_codec_stores_float32_weights(self):
        params = train_codec([random_image(np.random.default_rng(26))], tiny_config(epochs=3))
        frozen = freeze(params)
        blob = serialize_codec(frozen)
        weights = sum(getattr(params, name).size for name in params.weight_fields())
        assert len(plain_body(blob)) == self.GEOMETRY + 4 * weights
        assert len(plain_body(serialize_codec(params))) == self.GEOMETRY + 8 * weights
        assert plain_body(blob)[self.GEOMETRY:] == np.concatenate(
            [getattr(frozen, name).ravel() for name in params.weight_fields()]).astype("<f4").tobytes()
        back = deserialize_codec(blob)
        assert back.frozen
        for name in params.weight_fields():
            assert getattr(back, name).dtype == np.float64
            assert getattr(back, name).tobytes() == getattr(frozen, name).tobytes()
        assert serialize_codec(replace(back)) == blob

    def test_unfrozen_codec_keeps_float64_weights(self):
        params = train_codec([random_image(np.random.default_rng(27))], tiny_config(epochs=3))
        back = deserialize_codec(serialize_codec(params))
        assert not back.frozen
        # Training leaves weights that float32 cannot hold; the file keeps them.
        assert any(not np.array_equal(getattr(params, name).astype(np.float32),
                                      getattr(params, name)) for name in params.weight_fields())
        for name in params.weight_fields():
            assert getattr(back, name).tobytes() == getattr(params, name).tobytes()

    def test_frozen_codec_with_unrounded_weights_rejected(self):
        # A frozen codec built by hand can hold weights float32 cannot: its
        # file would not read back the codec, so none is written.
        init = init_codec_params(tiny_config())
        with pytest.raises(InvalidInputError,
                           match="enc_bottom_w holds values that are not float32"):
            serialize_codec(CodecParams(**{**vars(init), "frozen": True}))
        params = freeze(init)
        for value in (0.1, 1e39):  # not a float32 value; beyond float32
            params.enc_top_b[1] = value
            with pytest.raises(InvalidInputError, match="enc_top_b holds values"):
                serialize_codec(params)
        params.enc_top_b[1] = np.float32(0.1)
        assert deserialize_codec(serialize_codec(params)).enc_top_b[1] == np.float32(0.1)

    def test_grid_layout_and_size(self):
        rng = np.random.default_rng(23)
        grid = CodeGrid(top=rng.integers(0, 500, (2, 3)).astype(np.int32),
                        bottom=rng.integers(0, 500, (4, 6)).astype(np.int32))
        blob = serialize_code_grid(grid)
        assert len(blob) == 16 + 2 * grid.code_count  # 16 bits per code
        assert struct.unpack("<IIII", blob[:16]) == (2, 3, 4, 6)
        codes = np.frombuffer(blob, dtype="<u2", offset=16)
        assert np.array_equal(codes, np.concatenate([grid.top.ravel(), grid.bottom.ravel()]))

    def test_corrupt_codec_rejected(self):
        from drr.container import seal
        from drr.errors import DataCorruptionError
        from drr.vq_codec import CODEC_FORMAT_VERSION, CODEC_MAGIC
        blob = serialize_codec(init_codec_params(tiny_config()))
        with pytest.raises(DataCorruptionError, match="checksum"):
            deserialize_codec(blob[:40])
        bad = b"XXXX" + blob[4:]
        with pytest.raises(DataCorruptionError, match="magic"):
            deserialize_codec(bad)
        import struct
        from drr.vq_codec import weight_shapes
        for field in ["patch", "pool", "channels", "codebook_size", "embed_dim"]:
            g = {"patch": 2, "pool": 2, "channels": 1, "codebook_size": 5, "embed_dim": 3,
                 field: 0}
            shapes = weight_shapes(g["patch"] ** 2 * g["channels"], g["embed_dim"],
                                   g["codebook_size"])
            # Float32 weights fill what the geometry and the frozen flag imply:
            # only the geometry is wrong.
            zero = seal(CODEC_MAGIC, CODEC_FORMAT_VERSION,
                        struct.pack("<IIIIIBd", *g.values(), 1, 0.25)
                        + packed(bytes(4 * sum(int(np.prod(s)) for s in shapes.values())), 4))
            with pytest.raises(DataCorruptionError, match="must be positive"):
                deserialize_codec(zero)

        def flag(body):
            body[struct.calcsize("<IIIII")] = 7  # the frozen flag, which must be 0 or 1

        with pytest.raises(DataCorruptionError, match="frozen flag"):
            deserialize_codec(resealed(blob, flag))
        def short(body):
            del body[-8:]  # one float64 weight short

        def cut_in_geometry(body):
            del body[struct.calcsize("<IIIII"):]

        weights = len(plain_body(blob)) - struct.calcsize("<IIIIIBd")
        with pytest.raises(DataCorruptionError, match=f"^codec weights inflate to "
                                                      f"{weights - 8} bytes, not the {weights}"):
            deserialize_codec(repacked(blob, short))
        with pytest.raises(DataCorruptionError, match="too short for its geometry"):
            deserialize_codec(resealed(blob, cut_in_geometry))


def format_2_digest(blob):
    """sha256 of an unfrozen codec's file in format 2: the container at
    version 2 around the geometry and the float64 weights, unpacked.
    Format 3 changed only what a frozen codec stores and format 4 only how
    the weights are stored, so the pins keep their format-2 digests."""
    import hashlib
    from drr.container import seal
    from drr.vq_codec import CODEC_MAGIC
    assert blob[:6] == CODEC_MAGIC + (4).to_bytes(2, "little") and not deserialize_codec(blob).frozen
    return hashlib.sha256(seal(CODEC_MAGIC, 2, plain_body(blob))).hexdigest()


def codec_digest(dataset, config):
    return format_2_digest(serialize_codec(train_codec(dataset, config)))


class TestTrainingPins:
    """Fixed-seed codec files, pinned to the bytes the image-batch training
    loop wrote before training moved to patch batches.  Float64 weights
    depend on BLAS rounding, so another BLAS build may need new digests.
    Re-taken for codec format 2, the checked container: with the format-1
    header put back, the same files give the earlier digests.  Held through
    formats 3 and 4 (`format_2_digest`)."""

    def test_acceptance_toy_config(self):
        from drr.learner import make_toy_dataset
        images, labels = make_toy_dataset(8, 14, side=16, seed=123, salt=0)
        config = CodecConfig(patch=4, pool=2, channels=3, codebook_size=32,
                             embed_dim=8, epochs=300, lr=0.005, seed=0)
        assert codec_digest(images[labels < 4], config) == (
            "48fb923960b958bc26a42cd756677642572a5bdce73edea96cc9f00924caffa7")

    def test_paper_shaped_two_epochs(self):
        from drr.learner import make_toy_dataset
        images, _ = make_toy_dataset(5, 24, side=32, seed=0)
        assert codec_digest(images, CodecConfig(epochs=2)) == (
            "f6a4247c33dee027804c875d11088760393ccfa8b29ea05d7def8ea224b5dfc2")

    def test_buffer_churn_set_up_codec(self):
        from drr.learner import make_toy_dataset
        images, labels = make_toy_dataset(20, 24, side=32, seed=0, salt=0)
        assert codec_digest(images[labels < 5], CodecConfig(epochs=20)) == (
            "065e4fec1a4db648b2c7e27b97a7c481a65a33d692fe361d25d7aadc15798b27")

    def test_divergence_is_rejected(self):
        from drr.errors import DegenerateInputError
        rng = np.random.default_rng(24)
        with pytest.raises(DegenerateInputError), np.errstate(over="ignore", invalid="ignore"):
            train_codec([random_image(rng) for _ in range(2)],
                        tiny_config(lr=1e4, epochs=40))


class TestNearestIndices:
    """The batched code search agrees with an exhaustive scan row by row, in
    every chunk of its distance buffer."""

    @staticmethod
    def rowwise(z, codebook):
        return np.array([nearest(row, codebook) for row in z])

    def test_random_rows(self):
        rng = np.random.default_rng(30)
        for k, d, n in [(1, 3, 5), (7, 2, 40), (32, 8, 300), (512, 64, 64)]:
            codebook = rng.normal(size=(k, d))
            z = rng.normal(size=(n, d))
            assert np.array_equal(_nearest_indices(z, codebook), self.rowwise(z, codebook))

    def test_exact_ties_go_to_the_lowest_index(self):
        # Small integers: both distance formulas are exact, so ties are real.
        codebook = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        z = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [1.0, 1.0], [0.0, -2.0], [-1.0, -1.0]])
        expected = np.array([0, 0, 1, 0, 4, 1])
        assert np.array_equal(self.rowwise(z, codebook), expected)
        assert np.array_equal(_nearest_indices(z, codebook), expected)

    @pytest.mark.parametrize("offset", [None, -1, 0, 1])
    def test_sizes_around_the_chunk(self, offset):
        from drr.vq_codec import _SEARCH_ROWS
        n = 1 if offset is None else _SEARCH_ROWS + offset
        rng = np.random.default_rng(31 + n)
        codebook = rng.normal(size=(24, 6))
        z = rng.normal(size=(n, 6))
        z[::3] = codebook[rng.integers(0, 24, size=len(z[::3]))]  # exact hits
        got = _nearest_indices(z, codebook)
        assert got.shape == (n,)
        assert np.array_equal(got, self.rowwise(z, codebook))


    @pytest.mark.parametrize("n", [0, 1, 2, 3, 511, 512, 513, 514, 1023, 1024, 1025,
                                   1537, 7680, 261121, 10 ** 6 + 1])
    def test_row_chunks_cover_without_tiny_chunks(self, n):
        from drr.vq_codec import _SEARCH_ROWS, _row_chunks
        chunks = _row_chunks(n)
        assert chunks[0][0] == 0 and chunks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        sizes = [stop - start for start, stop in chunks]
        assert max(sizes) <= _SEARCH_ROWS
        if n > _SEARCH_ROWS:
            assert min(sizes) >= _SEARCH_ROWS // 2


class TestCodebookGrad:
    def test_matches_add_at_bit_for_bit(self):
        from drr.vq_codec import _codebook_grad
        rng = np.random.default_rng(32)
        for k, d, n in [(1, 1, 1), (5, 3, 40), (32, 8, 900), (512, 64, 2000)]:
            idx = rng.integers(0, max(1, k // 2), size=n).astype(np.int32)
            rows = rng.normal(size=(n, d)) * np.exp(rng.uniform(-20, 20, size=(n, 1)))
            reference = np.zeros((k, d))
            np.add.at(reference, idx, rows)
            got = _codebook_grad(idx, rows, k)
            assert got.shape == (k, d)
            assert np.array_equal(got, reference)


def acceptance_toy_codec():
    """The codec of the acceptance-13 config, trained on its first phase."""
    from drr.learner import make_toy_dataset
    images, labels = make_toy_dataset(8, 14, side=16, seed=123, salt=0)
    return train_codec(images[labels < 4], CodecConfig(
        patch=4, pool=2, channels=3, codebook_size=32, embed_dim=8, epochs=300,
        lr=0.005, seed=0))


def paper_shaped_codec(epochs=2, seed=0):
    """A K=512, d=64 codec trained on 120 toy 32x32 images."""
    from drr.learner import make_toy_dataset
    images, _ = make_toy_dataset(5, 24, side=32, seed=0)
    return train_codec(images, CodecConfig(epochs=epochs, seed=seed))


def batch_digests(images, codec):
    """sha256 of the code grids `encode_indices` gives, grid by grid, and of
    the images `decode_indices` rebuilds from them."""
    import hashlib
    from drr.vq_codec import decode_indices, encode_indices
    top, bottom = encode_indices(images, codec)
    recon = decode_indices(top, bottom, codec)
    codes = b"".join(t.tobytes() + b.tobytes() for t, b in zip(top, bottom))
    return hashlib.sha256(codes).hexdigest(), hashlib.sha256(recon.tobytes()).hexdigest()


class TestBatchCoding:
    """Batched encode and decode against the bits of one image at a time,
    pinned from the per-image `encode_image` / `decode_codes` loop.  The
    reconstruction digests were re-taken when decoding moved to the patch
    tables, which move reconstructions by a few ulps (`TestPatchTables`);
    the code-grid digests did not change."""

    def test_acceptance_toy_codec_is_pinned(self):
        from drr.learner import make_toy_dataset
        images, _ = make_toy_dataset(8, 14, side=16, seed=123, salt=0)
        assert batch_digests(images, acceptance_toy_codec()) == (
            "318934d56a7dd6483611ba4783b25045bd6bdb4abc2ce6aea0fe069581f0c3d5",
            "e7cfc804119f8be654d64426800904dc44e3a5bce7e72f99f1a5168068198527")

    @pytest.mark.parametrize("epochs, seed, pinned", [
        (2, 0, ("78911db4928463112bfada38e504f7feac224c39d6a9d752eb4c12d7008fe378",
                "354623a6773afbc9330a4c2ca6fffe5720d2943b2a863d63c0133522c91085a4")),
        (0, 4, ("0c0a1be13622488bcf6a61885cafb1819f8cfdee90f68cb26446185a919c4757",
                "c7384a6f637e166e6e564a20ec45e6be4ceecf44e00c0b09eff8b5cb7ab1f8f4")),
    ])
    def test_paper_shaped_codec_is_pinned(self, epochs, seed, pinned):
        # 120 images: 7,680 bottom rows, searched in 15 chunks
        from drr.learner import make_toy_dataset
        images, _ = make_toy_dataset(5, 24, side=32, seed=0)
        assert batch_digests(images, paper_shaped_codec(epochs, seed)) == pinned

    def test_batch_equals_one_at_a_time(self):
        from drr.vq_codec import decode_indices, encode_indices
        rng = np.random.default_rng(12)
        params = train_codec([random_image(rng) for _ in range(4)],
                             tiny_config(epochs=5, codebook_size=6))
        images = [random_image(rng) for _ in range(9)]
        top, bottom = encode_indices(images, params)
        assert top.dtype == bottom.dtype == np.int32
        grids = [CodeGrid(top=t, bottom=b) for t, b in zip(top, bottom)]
        assert grids == [encode_image(x, params) for x in images]
        recon = decode_indices(top, bottom, params)
        assert recon.shape == (9, 8, 8, 1)
        assert all(np.array_equal(r, decode_codes(g, params)) for r, g in zip(recon, grids))

    def test_bad_batches_rejected(self):
        from drr.vq_codec import decode_indices, encode_indices
        rng = np.random.default_rng(13)
        params = init_codec_params(tiny_config())
        grid = encode_image(random_image(rng), params)
        small = encode_image(random_image(rng, h=4, w=4), params)
        top, bottom = grid.top[None], grid.bottom[None]
        for call in (lambda: encode_indices([], params),
                     lambda: encode_indices([random_image(rng), random_image(rng, h=4)], params),
                     lambda: decode_indices(np.zeros((0, 2, 2), np.int32),
                                            np.zeros((0, 4, 4), np.int32), params),
                     lambda: decode_indices(top, small.bottom[None], params),
                     lambda: decode_indices(top.astype(np.float64), bottom, params),
                     lambda: decode_indices(top, bottom > 0, params),
                     lambda: decode_indices(top, (bottom * 1.0).tolist(), params)):
            with pytest.raises(InvalidInputError):
                call()
        # A nested list of integers is an index array like any other.
        assert np.array_equal(decode_indices(top.tolist(), bottom.tolist(), params),
                              decode_indices(top, bottom, params))


def gemm_decode(top, bottom, params):
    """Stacked index grids decoded through the decoder's two maps, as two
    stacked GEMMs: top rows through the top map, upsampled and summed with
    the bottom rows, then the bottom map, patch assembly and the clip.  The
    reference the patch-table lookup of `decode_indices` must match."""
    n, hb, wb = bottom.shape
    t, p, c, d = params.pool, params.patch, params.channels, params.embed_dim
    u = params.codebook_top[top] @ params.dec_top_w.T + params.dec_top_b
    hidden = params.codebook_bottom[bottom].reshape(n, hb // t, t, wb // t, t, d)
    hidden = (hidden + u[:, :, None, :, None, :]).reshape(n, hb, wb, d)
    patches = hidden @ params.dec_bottom_w.T + params.dec_bottom_b
    images = patches.reshape(n, hb, wb, p, p, c).transpose(0, 1, 3, 2, 4, 5)
    return np.clip(images.reshape(n, hb * p, wb * p, c), 0.0, 1.0)


def covering_grids(params, n, side, seed):
    """Stacked (top, bottom) index grids of n side x side images in which
    every code of both levels appears, in a seeded order."""
    rng = np.random.default_rng(seed)
    k = params.codebook_size
    top_shape, bottom_shape = code_shapes((side, side, params.channels), params)
    grids = []
    for shape in (top_shape, bottom_shape):
        size = n * shape[0] * shape[1]
        assert size >= k
        grids.append(rng.permutation(np.resize(np.arange(k, dtype=np.int32), size))
                     .reshape(n, *shape))
    return grids


class TestPatchTables:
    """`decode_indices` looks patches up in two tables folded from the
    decoder's linear maps.  It matches the maps run as GEMMs to within
    rounding, on every code of both levels, and the tables a frozen codec
    keeps never go stale."""

    @pytest.mark.parametrize("make_codec, side, n", [
        (acceptance_toy_codec, 16, 8),     # K=32: 32 top codes, 128 bottom
        (paper_shaped_codec, 32, 40),      # K=512: 640 top codes, 2,560 bottom
    ])
    def test_matches_the_gemm_decoder_on_every_code(self, make_codec, side, n):
        from drr.vq_codec import decode_indices
        codec = freeze(make_codec())
        top, bottom = covering_grids(codec, n, side, seed=40)
        recon = decode_indices(top, bottom, codec)
        reference = gemm_decode(top, bottom, codec)
        assert recon.shape == reference.shape == (n, side, side, 3)
        assert np.abs(recon - reference).max() <= 1e-12
        # Every value is one add of two table entries: a single-image
        # decode is its row of the batch decode, bit for bit.
        assert all(np.array_equal(decode_indices(t[None], b[None], codec)[0], r)
                   for t, b, r in zip(top, bottom, recon))

    def test_frozen_codec_keeps_its_first_build(self):
        from drr.vq_codec import _build_patch_tables, _patch_tables, decode_indices
        codec = freeze(train_codec([random_image(np.random.default_rng(41))],
                                   tiny_config(epochs=3)))
        grids = covering_grids(codec, 2, 8, seed=41)
        first = decode_indices(*grids, codec)
        tables = vars(codec)["_tables"]
        assert _patch_tables(codec) is tables
        assert all(np.array_equal(a, b) for a, b in zip(tables, _build_patch_tables(codec)))
        assert not any(table.flags.writeable for table in tables)
        assert np.array_equal(decode_indices(*grids, codec), first)
        # The tables are no field: copies and codec files leave them out.
        blob = serialize_codec(codec)
        arrays = {name: getattr(codec, name).copy() for name in codec.weight_fields()}
        for other in (replace(codec, **arrays), replace(codec), deserialize_codec(blob)):
            assert "_tables" not in vars(other)
            assert serialize_codec(other) == blob

    def test_unfrozen_codec_decodes_with_its_current_weights(self):
        from drr.vq_codec import decode_indices
        rng = np.random.default_rng(42)
        image = random_image(rng)
        params = train_codec([image], tiny_config(epochs=3))
        grids = covering_grids(params, 2, 8, seed=42)
        before = decode_indices(*grids, params)
        train_step(params, image)
        after = decode_indices(*grids, params)
        assert "_tables" not in vars(params)
        assert not np.array_equal(after, before)
        assert np.abs(after - gemm_decode(*grids, params)).max() <= 1e-12

    def test_freeze_of_a_further_trained_codec_builds_its_own(self):
        from drr.vq_codec import _build_patch_tables, decode_indices
        rng = np.random.default_rng(43)
        image = random_image(rng)
        params = train_codec([image], tiny_config(epochs=3))
        grids = covering_grids(params, 2, 8, seed=43)
        early = freeze(params)
        early_recon = decode_indices(*grids, early)
        train_step(params, image)
        late = freeze(params)
        late_recon = decode_indices(*grids, late)
        assert np.array_equal(decode_indices(*grids, early), early_recon)
        assert not np.array_equal(late_recon, early_recon)
        # The late codec's tables are its own rounded weights', not those of
        # the unfrozen params it was frozen from.
        assert all(np.array_equal(a, b)
                   for a, b in zip(vars(late)["_tables"], _build_patch_tables(late)))
        assert np.abs(late_recon - gemm_decode(*grids, late)).max() <= 1e-12


def train_step(params, image, lr=0.05):
    """One in-place gradient step on one image, as `train_codec` takes it."""
    grads = vq_loss_and_grads(image, params)[1]
    for name in params.weight_fields():
        getattr(params, name)[...] -= lr * grads[name]


class TestCodecLayout:
    # Taken before the weight layout was declared once, in `weight_shapes`.
    # Re-taken for codec format 2, the checked container, and held through
    # formats 3 and 4, as the training pins were.
    def test_init_codec_is_pinned(self):
        config = CodecConfig(patch=2, pool=2, channels=3, codebook_size=16, embed_dim=6, seed=11)
        assert format_2_digest(serialize_codec(init_codec_params(config))) == (
            "7689c210a312375accd0727e9be65a06a4824501c1b8194c5662adc809acc2b8")

    def test_weights_follow_weight_shapes(self):
        from drr.vq_codec import weight_shapes
        params = init_codec_params(tiny_config(channels=3))
        shapes = weight_shapes(12, 3, 5)
        assert params.weight_fields() == tuple(shapes)
        assert {name: getattr(params, name).shape for name in shapes} == shapes
        assert shapes["enc_bottom_w"] == (3, 12) and shapes["codebook_top"] == (5, 3)
