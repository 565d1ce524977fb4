"""Mini-batch training: shuffled epochs, mean negative log-likelihood,
global-norm gradient clipping, Adam updates, epoch-level validation
selection, and a manifest-plus-flat-arrays checkpoint format that holds
the parameters only: the optimizer state is not saved.

The embedding's gradient arrives as a `tensor.RowGrad` over the rows the
batch touched; clipping reads and scales only those rows, and Adam applies
the full update to them plus a zero-gradient pass that decays the moments of
the warm rows, those some earlier step touched. A cold row's moments are
zero, so the dense formula leaves it as it is, and the result is the dense
Adam update bit for bit. The moments live in private anonymous mappings
that decline transparent huge pages, so a cold row's moments, never written,
take no memory until a step warms the row.

The answer distribution comes out of two stacked softmaxes, so every
document word has strictly positive probability and the log-likelihood is
always finite on finite inputs; divergence can still happen through the
parameters themselves. Each epoch's steps and its validation run with numpy
raising on overflow, division by zero and invalid operations (underflow
stays quiet), and `clip_gradients` raises `NumericError` on a gradient whose
norm is not finite. Either aborts the run with the best checkpoint so far
(`TrainResult.aborted`), or raises `NumericError` when no epoch has
completed yet.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import time
from contextlib import nullcontext, suppress
from dataclasses import asdict, dataclass, field, fields
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import reader
from . import tensor as T
from .errors import (
    ConfigurationError,
    CorruptionError,
    NumericError,
    ParseError,
    UsageError,
    read_text,
    replacing,
)
from .reader import HEAD_MODES, ModelParams
from .tensor import Tensor
from .vocab import DEFAULT_SHORTLIST, EncodedSample, Vocabulary, load_vocab, write_vocab

Array = np.ndarray

_MANIFEST_FORMAT = "casreader-checkpoint-v2"
# v1 checkpoints also held the Adam step and moments; they are not read, so a
# v1 checkpoint loads as the v2 one with the same parameters.
_READABLE_FORMATS = ("casreader-checkpoint-v1", _MANIFEST_FORMAT)


@dataclass
class TrainConfig:
    embed_dim: int = 16
    hidden_dim: int = 16
    dropout_rate: float = 0.0
    merge_mode: str = "avg"
    lr: float = 0.0005
    batch_size: int = 32
    clip_threshold: float = 10.0
    epochs: int = 10
    seed: int = 0
    # Recorded in the manifest only: training never reads it, since `train` sizes
    # the model by the vocabulary it is given (`build-vocab --shortlist`).
    shortlist_size: int | None = DEFAULT_SHORTLIST
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        """Each field must have its default's type (an int is taken for a
        float; only an `| None` field takes None). The model's fields are
        checked before the training fields."""
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            if value is None and "None" in str(f.type):
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
                raise ConfigurationError(f"{f.name} must be of type {kind.__name__}, got {value!r}")
            if kind is float:
                try:
                    setattr(self, f.name, float(value))
                except OverflowError:
                    raise ConfigurationError(f"{f.name} is out of range") from None
        if self.embed_dim < 1 or self.hidden_dim < 1:
            raise ConfigurationError("embed_dim and hidden_dim must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigurationError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.merge_mode not in HEAD_MODES:
            raise ConfigurationError(f"merge_mode must be one of {HEAD_MODES}, got {self.merge_mode!r}")
        if min(self.batch_size, self.epochs) < 1:
            raise ConfigurationError("batch_size and epochs must be positive")
        for name in ("lr", "clip_threshold", "epsilon"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be finite and positive, got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")

    def reader_config(self) -> TrainConfig:
        return self  # The model reads this config itself; the one caller left is perfbench/inputs.py:143.


# The paper's full-corpus news setting; a `--config` file names it with
# `"preset"` and may override any field next to it.
PRESETS = {
    "news-full": TrainConfig(embed_dim=256, hidden_dim=256, dropout_rate=0.1),
}


def make_batches(
    samples: list[EncodedSample], batch_size: int, rng: np.random.Generator
) -> list[list[EncodedSample]]:
    """Shuffle and group; `reader.forward` pads each batch."""
    if batch_size < 1:
        raise UsageError(f"batch_size must be >= 1, got {batch_size}")
    order = rng.permutation(len(samples))
    return [[samples[i] for i in order[start : start + batch_size]] for start in range(0, len(samples), batch_size)]


def nll_loss(output: reader.ReaderOutput, answer_ids) -> Tensor:
    """Mean negative log-likelihood of the gold answers."""
    answer_ids = np.asarray(answer_ids, dtype=np.int64)
    if len(output) != answer_ids.shape[0]:
        raise UsageError("one answer id per sample output required")
    gold = T.gather_rows(output.words.probs, output.words.slots(answer_ids))
    return T.mul(T.reduce_sum(T.log(gold)), -1.0 / len(answer_ids))


Grad = Array | T.RowGrad


def clip_gradients(grads: dict[str, Grad], threshold: float) -> tuple[dict[str, Grad], float]:
    """Scale all gradients jointly so the global L2 norm is at most `threshold`.

    Returns the gradients and the pre-clip global norm. Under the threshold
    the input dict itself comes back; above it, rescaled copies. A `RowGrad`
    contributes its stored rows only; its squares are summed in another
    order than over the dense array, so the norm agrees with the dense one
    to rounding (1e-12 relative), not bit for bit. A non-finite entry, or
    squares that overflow, make the norm non-finite: `NumericError` names
    the parameter where the running sum stopped being finite.
    """
    if threshold <= 0:
        raise UsageError(f"clip threshold must be positive, got {threshold}")
    total = 0.0
    with np.errstate(over="ignore"):
        for name, g in grads.items():
            values = g.values if isinstance(g, T.RowGrad) else g
            total += float((values * values).sum())
            if not math.isfinite(total):
                raise NumericError(f"non-finite gradient norm at parameter {name!r}")
    norm = math.sqrt(total)
    if norm <= threshold:
        return grads, norm
    scale = threshold / norm
    return {
        name: T.RowGrad(g.rows, g.values * scale, g.shape) if isinstance(g, T.RowGrad) else g * scale
        for name, g in grads.items()
    }, norm


def _moment_zeros(shape: tuple[int, ...]) -> Array:
    """Zeros in a private anonymous mapping that declines huge pages (plain zeros where Linux's advice is missing)."""
    nbytes = math.prod(shape) * 8
    if not nbytes or not hasattr(mmap, "MADV_NOHUGEPAGE"):
        return np.zeros(shape)
    try:
        buf = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    except OSError as e:  # refused, as np.zeros would be
        raise MemoryError(f"cannot map {nbytes} bytes for Adam moments: {e}") from e
    with suppress(OSError):  # EINVAL from a kernel built without huge pages
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=np.float64).reshape(shape)


@dataclass
class AdamState:
    """First/second-moment accumulators plus the shared step counter.

    Each moment is its own `_moment_zeros` mapping, so on Linux a row that no
    step has written holds no memory; numpy's zeros would advise huge pages,
    and one warm row would then make its whole 2 MB region resident.
    """

    m: dict[str, Array]
    v: dict[str, Array]
    t: int
    lr: float
    beta1: float
    beta2: float
    epsilon: float
    warm: dict[str, Array] = field(default_factory=dict)  # per `RowGrad` parameter, the rows a step touched

    @classmethod
    def init(cls, params: dict[str, Tensor], lr: float, beta1=0.9, beta2=0.999, epsilon=1e-8):
        return cls(
            m={name: _moment_zeros(p.data.shape) for name, p in params.items()},
            v={name: _moment_zeros(p.data.shape) for name, p in params.items()},
            t=0,
            lr=lr,
            beta1=beta1,
            beta2=beta2,
            epsilon=epsilon,
        )


# Elements per Adam block: the block's slices of the parameter, gradient and
# moments, and the two scratch blocks, stay in cache through all fourteen
# operations, so each large array crosses memory once per step.
_ADAM_BLOCK = 1 << 14


def adam_step(params: dict[str, Tensor], grads: dict[str, Grad], state: AdamState) -> None:
    """Bias-corrected Adam update, in place on the parameter tensors.

    Each parameter is updated in blocks of leading-axis rows. Every
    operation writes into the moments, the parameter or one of two small
    scratch arrays, in the order of the textbook formula

        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * (g * g)
        p -= lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + epsilon)

    so the result is bit-identical to evaluating it with temporaries.

    A `RowGrad` still gets the dense update: the touched rows of p, m and v
    are set aside, the warm rows take the update with g = 0 (the formula's
    operations minus the five that would only add zeros), and the set-aside
    rows then take the full update, are written back and become warm. A cold
    row has m = v = +0.0, for which the formula's step is +0.0 and
    `p - 0.0` is p, so skipping it changes no bit.
    """
    state.t += 1
    c1, c2 = 1 - state.beta1 ** state.t, 1 - state.beta2 ** state.t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ConfigurationError(
                f"gradient shape {g.shape} does not match parameter {name!r} shape {p.data.shape}"
            )
        m, v = state.m[name], state.v[name]
        if isinstance(g, T.RowGrad):
            warm = state.warm.get(name)
            if warm is None:  # any earlier step was dense and touched every row
                warm = state.warm[name] = np.full(len(p.data), state.t > 1)
            w_rows, m_rows, v_rows = p.data[g.rows], m[g.rows], v[g.rows]
            _adam_blocks(p.data, None, m, v, state, c1, c2, np.flatnonzero(warm))
            _adam_blocks(w_rows, g.values, m_rows, v_rows, state, c1, c2)
            p.data[g.rows], m[g.rows], v[g.rows] = w_rows, m_rows, v_rows
            warm[g.rows] = True
        else:
            _adam_blocks(p.data, g, m, v, state, c1, c2)
            state.warm.pop(name, None)


def _adam_blocks(
    p: Array, g: Array | None, m: Array, v: Array, state: AdamState, c1: float, c2: float, rows: Array | None = None
) -> None:
    """`adam_step`'s formula over blocks of rows, in place; `g=None` means a zero gradient.

    `rows`, sorted, limits a zero-gradient pass to those rows, `per` of them
    at a time: a block whose rows lie within `2 * per` table rows is updated
    in place over that span (the cold rows in it take the exact zero
    update), any other block is gathered and written back.
    """
    b1, b2 = state.beta1, state.beta2
    per = max(1, _ADAM_BLOCK // math.prod(p.shape[1:]))
    if rows is None:
        blocks = [slice(lo, lo + per) for lo in range(0, len(p), per)]
    else:
        blocks = [rows[lo : lo + per] for lo in range(0, len(rows), per)]
        blocks = [slice(b[0], b[-1] + 1) if b[-1] - b[0] < 2 * per else b for b in blocks]
    step_buf = np.empty((min(2 * per, len(p)),) + p.shape[1:])
    denom_buf = np.empty_like(step_buf)
    for block in blocks:
        w, mb, vb = p[block], m[block], v[block]
        step, denom = step_buf[: len(w)], denom_buf[: len(w)]
        np.multiply(mb, b1, out=mb)
        if g is not None:
            gb = g[block]
            np.multiply(gb, 1 - b1, out=step)
            np.add(mb, step, out=mb)
            np.multiply(gb, gb, out=step)
            np.multiply(step, 1 - b2, out=step)
        np.multiply(vb, b2, out=vb)
        if g is not None:
            np.add(vb, step, out=vb)
        np.divide(mb, c1, out=step)
        np.multiply(step, state.lr, out=step)
        np.divide(vb, c2, out=denom)
        np.sqrt(denom, out=denom)
        np.add(denom, state.epsilon, out=denom)
        np.divide(step, denom, out=step)
        np.subtract(w, step, out=w)
        if not isinstance(block, slice):  # a gathered block is a copy
            p[block], m[block], v[block] = w, mb, vb


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    valid_accuracy: float
    wall_time_s: float
    grad_norm_max: float  # largest pre-clip global gradient norm of the epoch
    clip_rate: float  # share of the epoch's steps whose norm exceeded the clip threshold


@dataclass
class TrainResult:
    params: ModelParams  # the best-by-validation epoch's: a snapshot, or the trained tensors if it was the last
    best_epoch: int
    best_accuracy: float
    history: list[EpochRecord]
    aborted: bool = False


def _validation_accuracy(params: ModelParams, samples: list[EncodedSample]) -> float:
    correct = sum(
        int((predicted == [s.answer_id for s in group]).sum()) for group, _, predicted in reader.score(samples, params)
    )
    return correct / len(samples)


def _snapshot(params: ModelParams) -> ModelParams:
    named = {name: Tensor(p.data.copy(), requires_grad=True) for name, p in params.named().items()}
    return ModelParams.from_named(named, params.config)


def train(
    config: TrainConfig,
    train_samples: list[EncodedSample],
    valid_samples: list[EncodedSample],
    vocab_size: int,
    log_path=None,
) -> TrainResult:
    """Full training loop; keeps the checkpoint with the best validation
    accuracy (ties resolve to the earlier epoch). An earlier best epoch is
    kept as a snapshot; a best last epoch hands over the trained tensors.
    `log_path` gets one JSON line per epoch, flushed as the epoch ends: it is streamed,
    not written by replace, so a run cut short keeps the epochs it finished."""
    if not train_samples or not valid_samples:
        raise UsageError("train and validation sets must be non-empty")
    rng = np.random.default_rng(config.seed)
    params = reader.init_model_params(config, vocab_size, rng)
    named = params.named()
    state = AdamState.init(named, config.lr, config.beta1, config.beta2, config.epsilon)
    best: ModelParams | None = None
    best_accuracy = -1.0
    best_epoch = -1
    history: list[EpochRecord] = []
    aborted = False
    with (
        open(log_path, "w", encoding="utf-8") if log_path else nullcontext() as log_fh,
        np.errstate(over="raise", divide="raise", invalid="raise"),
    ):
        try:
            for epoch in range(1, config.epochs + 1):
                started = time.perf_counter()
                losses, norms = [], []
                for batch in make_batches(train_samples, config.batch_size, rng):
                    output = reader.forward(batch, params, training=True, rng=rng)
                    loss = nll_loss(output, [s.answer_id for s in batch])
                    loss.backward()
                    clipped, norm = clip_gradients({name: p.grad for name, p in named.items()}, config.clip_threshold)
                    adam_step(named, clipped, state)
                    for p in named.values():
                        p.zero_grad()
                    losses.append(float(loss.data))
                    norms.append(norm)
                    del output, loss, clipped  # so the next forward starts with no graph or gradient alive
                accuracy = _validation_accuracy(params, valid_samples)
                record = EpochRecord(
                    epoch=epoch,
                    mean_loss=float(np.mean(losses)),
                    valid_accuracy=accuracy,
                    wall_time_s=time.perf_counter() - started,
                    grad_norm_max=max(norms),
                    clip_rate=sum(n > config.clip_threshold for n in norms) / len(norms),
                )
                history.append(record)
                if log_fh:
                    json.dump(asdict(record), log_fh)
                    log_fh.write("\n")
                    log_fh.flush()
                if accuracy > best_accuracy:
                    best_accuracy = accuracy
                    best_epoch = epoch
                    best = params if epoch == config.epochs else _snapshot(params)
        except (FloatingPointError, NumericError):
            aborted = True
    if best is None:
        raise NumericError("training diverged before completing the first epoch")
    return TrainResult(params=best, best_epoch=best_epoch, best_accuracy=best_accuracy, history=history, aborted=aborted)


# ---------------------------------------------------------------------------
# checkpoint persistence: text manifest + little-endian float64 arrays
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    params: ModelParams  # its config is `params.config`
    vocab: Vocabulary


def save_checkpoint(
    params: ModelParams, unused_state: AdamState | None, config: TrainConfig, path, vocab: Vocabulary
) -> None:
    """Write vocab.txt, params.bin and manifest.txt, all or none.

    Arrays are stored flat, little-endian float64, in manifest order; the
    round trip is bit-exact. The three files are written through `errors.replacing`:
    each goes to a temporary in the same directory, and only once all three are
    written and fsynced is the old manifest.txt removed and the temporaries renamed
    over vocab.txt, params.bin and then manifest.txt, the commit point. A save that
    fails while writing leaves an earlier checkpoint as it was; one cut short
    between renames leaves no manifest, which `load_checkpoint` reports, never new
    files under an old manifest. No file is rewritten in place, so a process that
    has an earlier params.bin mapped keeps its bytes. `unused_state` is never read:
    it is the slot where the optimizer state was passed when checkpoints held it,
    kept so that positional callers (the benchmark's `perfbench/inputs.py`) still fit.
    Parameters whose layout is not `reader.param_layout(config, vocab.total_size)`,
    which `load_checkpoint` would reject, are a ConfigurationError and write nothing, as
    is a `config` other than `params.config` (its `merge_mode` is the head `eval` reads by
    default); a vocabulary `vocab.write_vocab` refuses is a ValidationError and writes nothing.
    """
    named = params.named()
    layout = reader.param_layout(config, vocab.total_size)
    for got, want in zip_longest([(name, p.data.shape) for name, p in named.items()], layout):
        if got != want:
            raise ConfigurationError(f"parameter {got} does not fit the config and vocabulary, which need {want}")
    if config != params.config:
        raise ConfigurationError(f"config {config} is not the parameters' config {params.config}")
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    lines = [_MANIFEST_FORMAT] + _manifest_lines(config, vocab.total_size, layout)
    files = (out / "vocab.txt", "w"), (out / "params.bin", "wb"), (out / "manifest.txt", "w")
    with replacing(*files) as [vocab_fh, params_fh, manifest_fh]:
        write_vocab(vocab, vocab_fh)  # first, so an unsaveable vocabulary is refused before params.bin is written
        for p in named.values():
            params_fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
        manifest_fh.write("\n".join(lines) + "\n")


def _manifest_lines(config: TrainConfig, vocab_size: int, shapes) -> list[str]:
    """Every manifest line after the format line: `vocab_size`, the config fields and one
    `param<TAB>name<TAB>d0,d1` line per (name, shape). `load_checkpoint` accepts no other body."""
    lines = [f"vocab_size\t{vocab_size}"]
    lines += [f"{f.name}\t{_format_value(getattr(config, f.name))}" for f in fields(TrainConfig)]
    lines += [f"param\t{name}\t{','.join(str(d) for d in shape)}" for name, shape in shapes]
    return lines


def _format_value(value) -> str:
    if value is None:
        return "none"
    return repr(value) if isinstance(value, float) else str(value)


def _parse_value(values: dict[str, str], name: str, kind: type, nullable: bool = False):
    """Inverse of `_format_value`; `none` parses only where `nullable`."""
    text = values[name]
    if nullable and text == "none":
        return None
    try:
        return kind(text)
    except ValueError:
        raise CorruptionError(f"manifest field {name!r} has malformed value {text!r}") from None


def _checkpoint_file(read, path: Path, *args):
    """`read(path, *args)`, with a missing file, or a ParseError in it, raised as the
    CorruptionError that names the file."""
    try:
        return read(path, *args)
    except FileNotFoundError:
        raise CorruptionError(f"no {path.name} under {path.parent}") from None
    except ParseError as bad:
        raise CorruptionError(f"{path.name}: {bad}") from None


def _read_params(path: Path, layout: list[tuple[str, tuple[int, ...]]]) -> dict[str, Tensor]:
    """Map params.bin copy-on-write and hand out one view of the mapping per layout
    entry, in layout order: pages are read when first touched, and writing into an
    array never reaches the file. Its size is checked before anything is mapped."""
    with _checkpoint_file(open, path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        want = 0
        for name, shape in layout:
            want += 8 * math.prod(shape)
            if want > size:
                raise CorruptionError(f"{path.name}: truncated at parameter {name!r} ({size} bytes)")
        if size > want:
            raise CorruptionError(f"{path.name}: trailing bytes beyond manifest contents ({size} > {want} bytes)")
        flat = np.frombuffer(mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_COPY), dtype="<f8")
    named: dict[str, Tensor] = {}
    start = 0
    for name, shape in layout:
        end = start + math.prod(shape)
        named[name] = Tensor(flat[start:end].reshape(shape), requires_grad=True)
        start = end
    return named


def load_checkpoint(path) -> Checkpoint:
    """Read what `save_checkpoint` wrote, or a v1 checkpoint, whose `adam_t` line and `adam.bin` go unread.
    The config is the returned `params.config` and the vocabulary size is `vocab.txt`'s. Any manifest but
    the one `save_checkpoint` writes for them, an unparseable `vocab.txt`, a wrong-size `params.bin` or a
    missing file is `CorruptionError`. `manifest.txt` and `vocab.txt` are read through `errors.read_text`,
    as text mode reads them, so a checkpoint saved with CRLF line ends (as Windows writes them) loads too.

    The parameters are views of one copy-on-write mapping of params.bin, so loading costs what the caller
    touches, and writing into them changes only this process's copy. `save_checkpoint` replaces files and
    never rewrites them. Anything that rewrites params.bin in place while a process holds its parameters
    (`cp` or `rsync --inplace` over it, a truncation, a casreader version that saved in place) changes what
    that process reads: pages it has not touched yet show the new bytes, mixing two sets of weights, and a
    page cut off by a truncation kills it with SIGBUS, with no Python error and no exit code 5. Copy a
    checkpoint under a temporary name and rename it into place instead."""
    src = Path(path)
    lines = _checkpoint_file(read_text, src / "manifest.txt").split("\n")
    if lines[0] not in _READABLE_FORMATS:
        raise CorruptionError(f"unsupported checkpoint format: {lines[0][:80]!r}")
    body = lines[1:]
    if lines[0] != _MANIFEST_FORMAT:
        body = [line for line in body if not line.startswith("adam_t\t")]
    vocab = _checkpoint_file(load_vocab, src / "vocab.txt")
    values = dict(line.split("\t") for line in body if line.count("\t") == 1)
    try:
        config = TrainConfig(**{
            f.name: _parse_value(values, f.name, type(f.default), nullable="None" in str(f.type))
            for f in fields(TrainConfig)
        })
    except KeyError as missing:
        raise CorruptionError(f"manifest missing field {missing}") from None
    except ConfigurationError as bad:
        raise CorruptionError(f"manifest value rejected: {bad}") from None
    layout = reader.param_layout(config, vocab.total_size)
    expected = _manifest_lines(config, vocab.total_size, layout) + [""]  # "" after the final newline
    for got, want in zip_longest(body, expected, fillvalue="<end>"):
        if got != want:
            raise CorruptionError(
                f"manifest has {got!r} where save_checkpoint writes {want!r} for its config, "
                f"vocabulary and model layout"
            )
    params = ModelParams.from_named(_read_params(src / "params.bin", layout), config)
    return Checkpoint(params=params, vocab=vocab)
