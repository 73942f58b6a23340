"""The three benchmark workloads, driven through drr's public calls only.

Each workload prepares its inputs from the workload seed in `setup`, then
runs *units* of work: a unit is one or more operations, timed as a whole,
each operation checked for correct output.  A workload reports its
end-to-end metrics from the timed units and its quality numbers from what
the checks saw.

toy-phases    one unit = one in-process `drr run-phases` plus `drr report`
              on the acceptance-13 config; the unit rotates through the
              gate's ten config seeds.
buffer-churn  one unit = four phases of five classes (0 -> 20 classes) of a
              paper-shaped buffer: ingest_phase, save, account per phase.
replay-read   one unit = ReplayBuffer.load of the saved 20-class buffer plus
              reconstruct_all.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import statistics
import time

import numpy as np

# -- toy-phases: the acceptance-13 config ------------------------------------------

# The acceptance gate runs this config for config seeds 0..9.  Every key is
# written out, so a change to the CLI's defaults cannot change the workload.
TOY_CONFIG = """\
mode = ib-drr
ib_weight = 0.5
seed = {seed}
epochs = 200
lr = 0.08
batch_size = 16
hidden_dim = 24
total_classes = 8
initial_classes = 4
n_phases = 2
classes_per_phase = 2
train_per_class = 14
test_per_class = 8
side = 16
channels = 3
data_seed = 123
patch = 4
pool = 2
codebook_size = 32
embed_dim = 8
codec_epochs = 300
codec_lr = 0.005
beta = 0.25
alphabets = 6,4
block_len = 8
precision = 12
initial_bits = 256
fit_iterations = 3
exemplars_per_class = 10
"""
TOY_CONFIG_SEEDS = tuple(range(10))

# -- buffer-churn and replay-read: a paper-shaped buffer -------------------------

# The classes' frequency and colour signatures are fixed; the workload seed
# draws the images (make_toy_dataset's `salt`).  Codec, chain models and
# exemplar choice use the package's default seeds, so a seed changes the
# inputs and not the program's configuration.
PAPER_DATA_SEED = 0
PAPER_BUFFER_SEED = 0
PAPER_CLASSES = 20
PAPER_CLASSES_PER_PHASE = 5
PAPER_TRAIN_PER_CLASS = 24
PAPER_SIDE = 32
PAPER_EXEMPLARS = 20
# Eight levels of alphabet 8: at the declared 8 x 64 geometry, table building
# hides the coder (68% of an ingest, 98% of a read).
PAPER_ALPHABETS = (8,) * 8
PAPER_BLOCK_LEN = 16
PAPER_FIT_ITERATIONS = 8
# CodecConfig defaults (K=512, embed 64, lr 3e-4) apart from the epoch count:
# 100 epochs take ~11 s per set-up on a 2-CPU x86 host, and set-up runs three
# times per benchmark run.
PAPER_CODEC_EPOCHS = 20


def codec_is_finite(codec) -> bool:
    return all(np.all(np.isfinite(getattr(codec, name))) for name in codec.weight_fields())


def dir_digest(directory: str) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for base, _, files in sorted(os.walk(directory)):
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, directory).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def read_index(drr, directory: str):
    """A saved buffer's index: its options line as a dict, and per class the
    `class` line's fields with the `stream` lines under it."""
    with open(os.path.join(directory, drr.replay_store.INDEX_NAME)) as f:
        lines = [line.split() for line in f if line.strip()]
    options = dict(part.split("=", 1) for part in lines[1])
    classes = []
    for kind, *parts in lines[2:]:
        fields = dict(part.split("=", 1) for part in parts)
        if kind == "class":
            classes.append({**fields, "streams": []})
        else:
            classes[-1]["streams"].append(fields)
    return options, classes


def byte_split(drr, directory: str) -> dict:
    """Split a saved buffer's bytes into net coded content, seeded initial
    bits, framing (stream header, coder header, coder state), model file and
    codec file.  Reads only the files and the index."""
    options, classes = read_index(drr, directory)
    initial_bytes = int(options["initial_bits"]) // 8
    split = {"net_coded_bytes": 0, "initial_bits_bytes": 0, "framing_bytes": 0}
    for entry in (stream for shelf in classes for stream in shelf["streams"]):
        data = _read(directory, entry["file"])
        stream = drr.deserialize_stream(data)
        coder = drr.AnsCoder.deserialize(stream.payload)
        stream_header = len(data) - len(stream.payload)
        coder_header = len(stream.payload) - 8 - len(coder.stack)
        split["framing_bytes"] += stream_header + coder_header + 8
        split["initial_bits_bytes"] += initial_bytes
        split["net_coded_bytes"] += len(coder.stack) - initial_bytes
    for part, name in (("model_bytes", drr.replay_store.MODELS_NAME),
                       ("codec_bytes", drr.replay_store.CODEC_NAME)):
        split[part] = os.path.getsize(os.path.join(directory, name))
    return split


def saved_grids(drr, directory: str) -> dict:
    """Per class, the code grids `decompress_grid` decodes from a saved
    buffer's stream files under its saved models."""
    pair = drr.LatentModelPair.deserialize(_read(directory, drr.replay_store.MODELS_NAME))
    tables = pair.tables()
    _, classes = read_index(drr, directory)
    grids = {}
    for shelf in classes:
        top = tuple(int(v) for v in shelf["top"].split(","))
        bottom = tuple(int(v) for v in shelf["bottom"].split(","))
        grids[int(shelf["label"])] = [
            drr.decompress_grid(drr.deserialize_stream(_read(directory, entry["file"])),
                                pair, top, bottom, tables=tables)
            for entry in shelf["streams"]]
    return grids


def _read(directory: str, name: str) -> bytes:
    with open(os.path.join(directory, name), "rb") as f:
        return f.read()


def split_matches(split: dict, account) -> bool:
    """The parts sum exactly to the buffer's own accounting."""
    streams = split["net_coded_bytes"] + split["initial_bits_bytes"] + split["framing_bytes"]
    return (streams == account.stream_bytes
            and split["model_bytes"] == account.model_bytes
            and split["codec_bytes"] == account.codec_bytes
            and sum(split.values()) == account.total_bytes)


def codec_quality(drr, codec, chosen_by_label: dict) -> dict:
    """Distinct codes used per level as a share of K, and the mean squared
    pixel error of encode-then-decode over the stored exemplars."""
    top, bottom, errors = set(), set(), []
    for images in chosen_by_label.values():
        for image in images:
            grid = drr.encode_image(image, codec)
            top.update(np.unique(grid.top).tolist())
            bottom.update(np.unique(grid.bottom).tolist())
            errors.append(float(((drr.decode_codes(grid, codec) - image) ** 2).mean()))
    k = codec.codebook_size
    return {"vq_codec.codes_used_top": len(top) / k,
            "vq_codec.codes_used_bottom": len(bottom) / k,
            "vq_codec.recon_mse": float(np.mean(errors))}


class Workload:
    """Base: `setup`, `unit(i) -> (seconds, [ok per operation])`, metrics."""

    name = ""
    op_metric = ""  # the metric that is seconds per operation
    ops_per_unit = 1
    min_units = 3

    def __init__(self, drr, workdir: str, seed: int):
        self.drr = drr
        self.workdir = workdir
        self.seed = seed
        self.tracer = None  # set by the runner for a traced run
        self.unit_seconds: list[float] = []
        self.late_failures = 0  # operations found wrong after their unit ended

    @contextlib.contextmanager
    def checking(self):
        """Spans opened while checking outputs belong to no operation."""
        if self.tracer is None:
            yield
            return
        op, self.tracer.op = self.tracer.op, "check"
        try:
            yield
        finally:
            self.tracer.op = op

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self, i: int) -> tuple[float, list[bool]]:
        raise NotImplementedError

    def metrics(self) -> dict:
        """End-to-end metrics of this workload: name -> (value, unit)."""
        raise NotImplementedError

    def quality(self, tracer) -> dict:
        """Per-layer numbers after a traced run: byte split, codes used,
        reconstruction error and coding quality; name -> value."""
        raise NotImplementedError


class ToyPhases(Workload):
    name = "toy-phases"
    op_metric = "experiment_s"
    min_units = len(TOY_CONFIG_SEEDS)  # every config seed runs at least once

    def __init__(self, drr, workdir, seed):
        super().__init__(drr, workdir, seed)
        start = seed % len(TOY_CONFIG_SEEDS)
        self.order = TOY_CONFIG_SEEDS[start:] + TOY_CONFIG_SEEDS[:start]
        self.first_results: dict[int, bytes] = {}
        self.records: dict[int, dict] = {}
        self.finite: dict[int, bool] = {}

    def _config_path(self, config_seed: int) -> str:
        return os.path.join(self.workdir, "configs", f"seed{config_seed}.conf")

    def _run(self, config_seed: int, out: str) -> tuple[int, int | None]:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = self.drr.cli.main(["run-phases", "--config", self._config_path(config_seed),
                                    "--out", out])
            report_rc = (self.drr.cli.main(["report", "--results", out])
                         if rc == 0 else None)
        return rc, report_rc

    def setup(self):
        """Write the ten configs and run one warm-up operation."""
        shutil.rmtree(os.path.join(self.workdir, "configs"), ignore_errors=True)
        os.makedirs(os.path.join(self.workdir, "configs"))
        for config_seed in TOY_CONFIG_SEEDS:
            with open(self._config_path(config_seed), "w") as f:
                f.write(TOY_CONFIG.format(seed=config_seed))
        out = os.path.join(self.workdir, "warmup.txt")
        self._run(self.order[0], out)
        os.remove(out)

    def unit(self, i):
        # A traced run repeats one config, so its operations do equal work.
        order = self.order if self.tracer is None else self.order[:1]
        config_seed = order[i % len(order)]
        out = os.path.join(self.workdir, f"results_{i}.txt")
        start = time.perf_counter()
        rc, report_rc = self._run(config_seed, out)
        seconds = time.perf_counter() - start
        with self.checking():
            ok = rc == 0 and report_rc == 0 and self._check(config_seed, out)
        if os.path.exists(out):
            os.remove(out)
        return seconds, [ok]

    def _check(self, config_seed: int, out: str) -> bool:
        with open(out, "rb") as f:
            data = f.read()
        if data != self.first_results.setdefault(config_seed, data):
            return False
        if config_seed not in self.records:
            self.records[config_seed] = self._parse(data.decode())
        return self._codec_finite(config_seed)

    @staticmethod
    def _parse(text: str) -> dict:
        records: dict[str, list[dict]] = {"config": [], "phase": [], "summary": []}
        for line in text.splitlines():
            kind, _, rest = line.partition(" ")
            if kind in records:
                records[kind].append(dict(part.split("=", 1) for part in rest.split()))
        config, phases, summary = records["config"][0], records["phase"], records["summary"][0]
        last = phases[-1]
        return {
            "final_accuracy": float(summary["last"]),
            "exemplars": int(last["classes_seen"]) * int(config["exemplars_per_class"]),
            "total_bytes": int(last["total_bytes"]),
            "stream_bytes": int(last["stream_bytes"]),
            "net_bits": sum(float(p["ingest_net_bits"]) for p in phases),
            "symbols": sum(int(p["ingest_symbols"]) for p in phases),
        }

    def _train_data(self, config_seed: int):
        """The run's config and training split, rebuilt through the public API."""
        drr = self.drr
        values = drr.cli.parse_config_file(self._config_path(config_seed))
        images, labels = drr.make_toy_dataset(
            values["total_classes"], values["train_per_class"], side=values["side"],
            channels=values["channels"], seed=values["data_seed"], salt=0)
        return drr.cli.experiment_config_from_values(values), images, labels

    def _codec_finite(self, config_seed: int) -> bool:
        """Retrain the run's codec through the public API and check every
        weight is finite; run-phases accepts NaN weights silently."""
        if config_seed not in self.finite:
            config, images, labels = self._train_data(config_seed)
            initial = config.schedule.classes_for_phase(0)
            codec = self.drr.train_codec(
                np.concatenate([images[labels == c] for c in initial]), config.codec)
            self.finite[config_seed] = codec_is_finite(codec)
        return self.finite[config_seed]

    def metrics(self):
        records = [self.records[s] for s in sorted(self.records)]
        return {
            "experiment_s": (statistics.median(self.unit_seconds), "s"),
            "bytes_per_exemplar": (
                statistics.fmean(r["total_bytes"] / r["exemplars"] for r in records), "B"),
            "stream_bytes_per_exemplar": (
                statistics.fmean(r["stream_bytes"] / r["exemplars"] for r in records), "B"),
            "net_bits_per_code": (self._net_bits_per_code(), "bits"),
            "final_accuracy": (self._final_accuracy(), "fraction"),
        }

    def _net_bits_per_code(self) -> float:
        records = self.records.values()
        return sum(r["net_bits"] for r in records) / sum(r["symbols"] for r in records)

    def _final_accuracy(self) -> float:
        """Mean over the config seeds run of the last phase's accuracy."""
        return statistics.fmean(r["final_accuracy"] for r in self.records.values())

    def quality(self, tracer):
        """From the buffer of the last traced run-phases, caught at its
        final `account` call, and the exemplars it selected."""
        drr = self.drr
        buffer = tracer.last_args["replay_store.account"][0]
        target = os.path.join(self.workdir, "traced_buffer")
        buffer.save(target)
        split = byte_split(drr, target)
        if not split_matches(split, buffer.account()):
            self.late_failures += 1
        _, images, labels = self._train_data(buffer.seed)
        chosen = {label: drr.select_exemplars(images[labels == label], buffer.exemplars_per_class,
                                              np.random.default_rng([buffer.seed, label]))
                  for label in buffer.class_labels}
        out = {f"replay_store.{k}": v for k, v in split.items()}
        out.update(codec_quality(drr, buffer.codec, chosen))
        out["bits_back.net_bits_per_code"] = self._net_bits_per_code()
        out["learner.final_accuracy"] = self._final_accuracy()
        return out


class PaperBuffer(Workload):
    """Shared set-up of the paper-shaped workloads: data, codec, models."""

    def _prepare(self):
        drr = self.drr
        images, labels = drr.make_toy_dataset(
            PAPER_CLASSES, PAPER_TRAIN_PER_CLASS, side=PAPER_SIDE, seed=PAPER_DATA_SEED,
            salt=self.seed)
        self.by_class = {c: images[labels == c] for c in range(PAPER_CLASSES)}
        first = np.concatenate([self.by_class[c] for c in self._phase_labels(0)])
        self.codec = drr.freeze(drr.train_codec(
            first, drr.CodecConfig(epochs=PAPER_CODEC_EPOCHS)))
        k = self.codec.codebook_size
        self.pair = drr.LatentModelPair(
            drr.random_model(k, PAPER_ALPHABETS, block_len=PAPER_BLOCK_LEN, seed=1),
            drr.random_model(k, PAPER_ALPHABETS, block_len=PAPER_BLOCK_LEN, seed=2))
        self._reference = None

    @staticmethod
    def _phase_labels(phase: int) -> list[int]:
        start = phase * PAPER_CLASSES_PER_PHASE
        return list(range(start, start + PAPER_CLASSES_PER_PHASE))

    def _new_buffer(self):
        return self.drr.ReplayBuffer(self.codec, self.pair.copy(),
                                     exemplars_per_class=PAPER_EXEMPLARS,
                                     seed=PAPER_BUFFER_SEED)

    def _ingest(self, buffer, phase: int):
        return buffer.ingest_phase(
            {c: self.by_class[c] for c in self._phase_labels(phase)},
            self.drr.FitConfig(iterations=PAPER_FIT_ITERATIONS))

    def reference(self) -> dict:
        """Per class: the exemplars `select_exemplars` picks under the buffer's
        seed, their code grids, and decode_codes(encode_image(x))."""
        if self._reference is None:
            drr = self.drr
            self._reference = {}
            for label, images in self.by_class.items():
                chosen = drr.select_exemplars(images, PAPER_EXEMPLARS,
                                              np.random.default_rng([PAPER_BUFFER_SEED, label]))
                grids = [drr.encode_image(x, self.codec) for x in chosen]
                recon = np.stack([drr.decode_codes(g, self.codec) for g in grids])
                self._reference[label] = (chosen, grids, recon)
        return self._reference

    def quality(self, tracer):
        out = {f"replay_store.{name}": value for name, value in self.split.items()}
        out.update(codec_quality(self.drr, self.codec,
                                 {c: ref[0] for c, ref in self.reference().items()}))
        return out


class BufferChurn(PaperBuffer):
    name = "buffer-churn"
    op_metric = "phase_ingest_s"
    phases = PAPER_CLASSES // PAPER_CLASSES_PER_PHASE
    ops_per_unit = phases

    def __init__(self, drr, workdir, seed):
        super().__init__(drr, workdir, seed)
        self.digests: list[str] | None = None
        self.coded_per_unit = 0
        self.final = None

    def setup(self):
        self._prepare()

    def unit(self, i):
        buffer = self._new_buffer()
        seconds = 0.0
        oks, digests, coded = [], [], 0
        for phase in range(self.phases):
            target = os.path.join(self.workdir, f"unit{i}_phase{phase}")
            start = time.perf_counter()
            reports = self._ingest(buffer, phase)
            buffer.save(target)
            account = buffer.account()
            seconds += time.perf_counter() - start
            coded += account.exemplar_count
            with self.checking():
                digests.append(dir_digest(target))
                if self.digests is None:
                    ok = self._check_first(buffer, phase, reports, account, target)
                else:  # a copy of a wrong first unit is wrong too
                    ok = digests[-1] == self.digests[phase] and self.first_oks[phase]
                ok = ok and codec_is_finite(buffer.codec)
            shutil.rmtree(target)
            oks.append(ok)
        if self.digests is None:
            self.digests = digests
            self.first_oks = oks
            self.coded_per_unit = coded
        return seconds, oks

    def _check_first(self, buffer, phase, reports, account, target) -> bool:
        """Full check of the first unit; later units must match it bytewise.

        Every phase: the saved streams decode to the reference grids, so
        every reconstruction is decode_codes(encode_image(x)); the fresh
        encodes' net bits are compared with -ELBO from `mean_elbo` on the
        dyadic models.  Last phase: the byte split sums to the account."""
        drr = self.drr
        reference = self.reference()
        if phase == 0:
            self.coding = {"net_bits": 0.0, "neg_elbo_bits": 0.0, "symbols": 0}
        saved = saved_grids(drr, target)
        ok = sorted(saved) == buffer.class_labels and all(
            grids == reference[label][1] for label, grids in saved.items())
        top_model, bottom_model = (t.dyadic for t in buffer.pair.tables())
        for label, report in reports.items():
            grids = reference[label][1]
            top = [b for g in grids for b in drr.bits_back.chunk_symbols(
                g.top.ravel(), top_model.block_len)]
            bottom = [b for g in grids for b in drr.bits_back.chunk_symbols(
                g.bottom.ravel(), bottom_model.block_len)]
            elbo_bits = (drr.mean_elbo(top, top_model) * len(top)
                         + drr.mean_elbo(bottom, bottom_model) * len(bottom))
            ok = ok and report.symbol_count == sum(g.code_count for g in grids)
            self.coding["net_bits"] += report.net_bits
            self.coding["neg_elbo_bits"] -= elbo_bits
            self.coding["symbols"] += report.symbol_count
        if phase == self.phases - 1:
            self.split = byte_split(drr, target)
            self.final = account
            ok = ok and split_matches(self.split, account)
        return ok

    def metrics(self):
        per_phase = [s / self.phases for s in self.unit_seconds]
        final = self.final
        return {
            "phase_ingest_s": (statistics.median(per_phase), "s"),
            "ingest_exemplars_per_s": (
                statistics.median(self.coded_per_unit / s for s in self.unit_seconds), "1/s"),
            "bytes_per_exemplar": (final.total_bytes / final.exemplar_count, "B"),
            "stream_bytes_per_exemplar": (final.stream_bytes / final.exemplar_count, "B"),
            **self._coding(),
        }

    def _coding(self) -> dict:
        """Net bits per code of the fresh encodes in a unit, and its gap to
        the bound: -ELBO per code from `mean_elbo` on the dyadic models."""
        symbols = self.coding["symbols"]
        net = self.coding["net_bits"] / symbols
        return {"net_bits_per_code": (net, "bits"),
                "elbo_gap_bits_per_code": (net - self.coding["neg_elbo_bits"] / symbols,
                                           "bits")}

    def quality(self, tracer):
        out = super().quality(tracer)
        out.update({f"bits_back.{name}": value for name, (value, _) in self._coding().items()})
        return out


class ReplayRead(PaperBuffer):
    name = "replay-read"
    op_metric = "replay_pass_s"

    def __init__(self, drr, workdir, seed):
        super().__init__(drr, workdir, seed)
        self.directory = os.path.join(workdir, "buffer")
        self.first_pass = None
        self.exemplars = 0
        self.account = None

    def setup(self):
        """Train the codec, ingest every phase, save the buffer."""
        self._prepare()
        buffer = self._new_buffer()
        for phase in range(PAPER_CLASSES // PAPER_CLASSES_PER_PHASE):
            self._ingest(buffer, phase)
        shutil.rmtree(self.directory, ignore_errors=True)
        buffer.save(self.directory)

    def unit(self, i):
        start = time.perf_counter()
        buffer = self.drr.ReplayBuffer.load(self.directory)
        recon = buffer.reconstruct_all()
        seconds = time.perf_counter() - start
        with self.checking():
            if self.first_pass is None:
                self.account = buffer.account()
                self.exemplars = self.account.exemplar_count
                self.split = byte_split(self.drr, self.directory)
                reference = self.reference()
                self.first_ok = (split_matches(self.split, self.account)
                                 and sorted(recon) == sorted(reference)
                                 and all(np.array_equal(recon[c], reference[c][2])
                                         for c in recon))
                self.first_pass = recon
            ok = (self.first_ok and codec_is_finite(buffer.codec)
                  and sorted(recon) == sorted(self.first_pass)
                  and all(np.array_equal(recon[c], self.first_pass[c]) for c in recon))
        return seconds, [ok]

    def metrics(self):
        account = self.account
        return {
            "replay_pass_s": (statistics.median(self.unit_seconds), "s"),
            "replay_exemplars_per_s": (
                statistics.median(self.exemplars / s for s in self.unit_seconds), "1/s"),
            "bytes_per_exemplar": (account.total_bytes / account.exemplar_count, "B"),
            "stream_bytes_per_exemplar": (account.stream_bytes / account.exemplar_count, "B"),
        }


WORKLOADS = {w.name: w for w in (ToyPhases, BufferChurn, ReplayRead)}
