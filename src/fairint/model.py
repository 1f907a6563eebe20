"""The fairness-aware interaction network and its vanilla MLP baseline.

The fair model runs in five stages, each exposed as its own method so
they can be tested and inspected separately:

  1. embed_features: every non-sensitive column becomes a small dense
     embedding (a table column for categoricals, a learned direction
     scaled by the standardized value); one scaled gather from all the
     tables forms the (B, |C| * d) tensor, in ``feature_names`` order.
     The gather reads the rows' encoding (:meth:`encode`: a category id
     and a scale per feature, with the category range check); a training
     run encodes its train split once and each step slices its rows.
  2. sar_forward: a four-layer MLP reads all embeddings and reconstructs
     a pseudo-sensitive embedding, plus a scalar probability that the row
     belongs to group 1.
  3. bid_attention: the pseudo-sensitive embedding is the only attention
     query; one head scores every feature once (|C| scores per row, not
     |C| squared) and normalizes with a softmax, all in one graph node.
  4. interaction_embedding + residual_fuse: the attention-weighted sum of
     the features' value projections, plus a residual projection of the
     pseudo-sensitive embedding, through a ReLU.
  5. predict: one sigmoid layer maps the fused embedding to a probability.

Weight matrices are stored in (input, output) orientation so the forward
pass is plain right-multiplication.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import KIND_CATEGORICAL, KIND_NUMERICAL, ROLE_NON_SENSITIVE, columns_without, parse_schema, schema_entry
from .errors import ConfigError, DataError, Settings, UsageError, check_int, check_number, is_finite_number, located

__all__ = [
    "ModelConfig",
    "EncodedRows",
    "ForwardTrace",
    "FairIntModel",
    "VanillaModel",
    "score_rows",
    "attention_summary",
    "save_model",
    "load_model",
]


@dataclass(frozen=True)
class ModelConfig(Settings):
    """Architecture sizes. Defaults follow the reference setting.

    ``embed_dim`` is also the width of the attention's query, key and
    value projections. ``sar_hidden`` lists the reconstructor's hidden
    widths; together with its linear output projection to ``embed_dim``
    the default makes a four-layer MLP. Widths given as a list are kept
    as a tuple.
    """

    embed_dim: int = 4
    sar_hidden: tuple = (16, 16, 8)
    baseline_hidden: tuple = (64, 32)

    what = "model"

    def __post_init__(self):
        check_int("embed_dim", self.embed_dim, 1)
        for name in ("sar_hidden", "baseline_hidden"):
            widths = getattr(self, name)
            if not isinstance(widths, (list, tuple)):
                raise ConfigError(f"{name} must be a list of widths, got {widths!r}")
            for i, width in enumerate(widths):
                check_int(f"{name}[{i}]", width, 1)
            object.__setattr__(self, name, tuple(widths))  # how a frozen dataclass sets its own field


@dataclass
class EncodedRows:
    """Rows as the embedding reads them: per row and feature, in ``feature_names`` order,
    a category id (0 for a numerical feature) and a scale (the value of a numerical
    feature, 1 for a categorical one). Both are (n, |C|); a slice selects rows of both."""

    ids: np.ndarray     # int64
    scales: np.ndarray  # float64

    def __getitem__(self, rows: slice) -> "EncodedRows":
        return EncodedRows(self.ids[rows], self.scales[rows])

    def take(self, positions: np.ndarray) -> "EncodedRows":
        """The rows at the integer ``positions``, copied (several times faster than fancy indexing)."""
        return EncodedRows(np.take(self.ids, positions, axis=0), np.take(self.scales, positions, axis=0))


@dataclass
class ForwardTrace:
    """Everything one forward pass computed, kept for losses and reports."""

    embeddings: Tensor        # (B, |C| * d): one block of width d per feature, in feature_names order
    pseudo_embed: Tensor      # (B, d)
    pseudo_scalar: Tensor     # (B, 1), in (0, 1)
    attention: Tensor         # (B, |C|), rows sum to 1, columns in feature_names order
    interaction: Tensor       # (B, d)
    fused: Tensor             # (B, d)
    prediction: Tensor        # (B, 1), in (0, 1)


# numpy raises ValueError, not MemoryError, for a shape whose float64 byte count does not fit in intp
_MAX_PARAMETER_SIZE = np.iinfo(np.intp).max // 8


def _drawable(name: str, *shape: int) -> tuple:
    """``shape``, or MemoryError naming parameter ``name`` if numpy cannot represent a float64 array of that shape."""
    shape = tuple(map(int, shape))  # python ints: a product of numpy ints could wrap
    if math.prod(shape) > _MAX_PARAMETER_SIZE:
        raise MemoryError(f"parameter {name} of shape {shape} exceeds the largest array numpy can represent")
    return shape


class _EmbeddingBase:
    """Embedding tables, the embedding of a batch and MLP plumbing; subclasses add layers in ``_add_layers``.

    ``dropout`` is the rate a training forward applies to every hidden MLP
    layer; it is a training setting, so it is not part of ``config``.
    """

    def __init__(self, input_columns, config: ModelConfig, seed: int, dropout: float = 0.0):
        if not input_columns:
            raise ConfigError("model needs at least one non-sensitive input feature")
        for col in input_columns:
            if col.role != "non_sensitive":
                raise UsageError(f"column {col.name!r} with role {col.role!r} cannot be a model input")
        self.input_columns = list(input_columns)
        self.feature_names = [c.name for c in self.input_columns]
        self.config = config
        self.dropout = check_number("dropout", dropout, "[0, 1)")
        self._rng = np.random.default_rng(check_int("seed", seed))
        self._mlp_layers: dict[str, int] = {}
        self._initial: dict[str, np.ndarray] = {}
        d = config.embed_dim
        self._categorical = np.array([col.kind == KIND_CATEGORICAL for col in self.input_columns])
        self._vocab = np.array([c.table_size if cat else 1 for c, cat in zip(self.input_columns, self._categorical)])
        for col, cat, vocab in zip(self.input_columns, self._categorical, self._vocab):
            name = f"embed.{col.name}"
            self._initial[name] = self._rng.normal(0.0, 0.1, size=_drawable(name, d, vocab) if cat else (1, d))
        self._add_layers()
        self.param_values, self.param_grads, self.params = ad.pack_parameters(self._initial)
        del self._initial
        # the tables lead the buffer; a numerical (1, d) row is laid out like a (d, 1)
        # table, so element k of feature c is at offset_c + k * vocab_c + id (id 0 if numerical)
        offsets = np.cumsum(d * self._vocab) - d * self._vocab
        self._table_index = (offsets[:, None] + np.arange(d) * self._vocab[:, None]).reshape(-1)
        n_tables = d * self._vocab.sum()
        self._tables = Tensor(self.param_values[:n_tables], grad_tracked=True, grad=self.param_grads[:n_tables])

    def _add_mlp(self, prefix: str, widths: list[int]):
        # widths = [in, h1, ..., out]; biases start at zero
        self._mlp_layers[prefix] = len(widths) - 1
        for i in range(len(widths) - 1):
            self._add_glorot(f"{prefix}.layer{i}.w", widths[i], widths[i + 1])
            self._initial[f"{prefix}.layer{i}.b"] = np.zeros(widths[i + 1])

    def _add_glorot(self, name: str, fan_in: int, fan_out: int):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        self._initial[name] = self._rng.uniform(-limit, limit, size=_drawable(name, fan_in, fan_out))

    def _run_mlp(self, prefix: str, x: Tensor, training: bool, rng, output: str | None = None) -> Tensor:
        # ReLU plus dropout on every layer except the last, which applies ``output``
        # (None for linear, or "sigmoid") and no dropout
        n_layers = self._mlp_layers[prefix]
        rate = self.dropout if training else 0.0
        for i in range(n_layers):
            hidden = i < n_layers - 1
            w, b = self.params[f"{prefix}.layer{i}.w"], self.params[f"{prefix}.layer{i}.b"]
            x = ad.dense(x, w, b, "relu" if hidden else output, rate=rate if hidden else 0.0, rng=rng)
        return x

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.values for name, p in self.params.items()}

    def freeze(self) -> None:
        """Make the buffer and every view into it read-only."""
        for values in (self.param_values, self._tables.values, *self.parameter_arrays().values()):
            values.setflags(write=False)

    def load_arrays(self, arrays: dict) -> None:
        """Overwrite every parameter from a name -> array mapping."""
        missing = set(self.params) - set(arrays)
        extra = set(arrays) - set(self.params)
        if missing or extra:
            raise DataError(
                f"parameter names do not match this architecture"
                f" (missing {sorted(missing)}, unexpected {sorted(extra)})"
            )
        for name, p in self.params.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != p.values.shape:
                raise DataError(f"parameter {name!r} has shape {arr.shape}, expected {p.values.shape}")
            p.values[...] = arr

    def encode(self, features: dict) -> EncodedRows:
        """Encode a mapping of raw feature columns for :meth:`embed_features`.

        DataError if a feature column is missing, or if a category id lies
        outside its table.
        """
        for name in self.feature_names:
            if name not in features:
                raise DataError(f"batch is missing feature column {name!r}")
        columns = [np.asarray(features[name], dtype=np.float64) for name in self.feature_names]
        n = len(columns[0])
        rows = EncodedRows(np.zeros((n, len(columns)), dtype=np.int64), np.ones((n, len(columns))))
        for c, (column, categorical, vocab) in enumerate(zip(columns, self._categorical, self._vocab)):
            if not categorical:
                rows.scales[:, c] = column
            elif ((column >= 0) & (column < vocab)).all():
                rows.ids[:, c] = column  # to int64: a fractional id truncates
            else:
                raise DataError(f"category id out of range [0, {vocab}) for feature {self.feature_names[c]!r}")
        return rows

    def embed_features(self, features) -> Tensor:
        """Map a batch's feature columns, or its rows already encoded by :meth:`encode`,
        to one (B, |C| * d) embedding tensor.

        Feature c's embedding is the block of columns [c*d, (c+1)*d), in
        ``feature_names`` order. A categorical id selects one column of its
        table; a numerical value scales its (1, d) row, so 0 embeds to zeros.
        """
        rows = features if isinstance(features, EncodedRows) else self.encode(features)
        index = np.repeat(rows.ids, self.config.embed_dim, axis=1)
        index += self._table_index  # in place: a broadcast add into a new array is several times slower
        return ad.gather_scale(self._tables, index, rows.scales)


class FairIntModel(_EmbeddingBase):
    """Interaction model with pseudo-sensitive attention and residual fusion."""

    def _add_layers(self):
        d = self.config.embed_dim
        self._add_mlp("sar", [len(self.input_columns) * d, *self.config.sar_hidden, d])
        self._add_glorot("sar_scalar.w", d, 1)
        for role in ("query", "key", "value"):
            self._add_glorot(f"bid.h0.{role}", d, d)
        self._add_glorot("fuse.w_res", d, d)
        self._add_mlp("head", [d, 1])

    def sar_forward(self, embeddings: Tensor, training: bool = False, rng=None):
        """Reconstruct the sensitive attribute from all feature embeddings.

        Returns (pseudo_embed (B, d), pseudo_scalar (B, 1)). The scalar is
        a separate linear readout of the pseudo embedding through a
        sigmoid, so zero weights give exactly 0.5.
        """
        pseudo = self._run_mlp("sar", embeddings, training, rng)
        scalar = ad.dense(pseudo, self.params["sar_scalar.w"], activation="sigmoid")
        return pseudo, scalar

    def bid_attention(self, pseudo_embed: Tensor, embeddings: Tensor) -> Tensor:
        """Attention of the pseudo-sensitive embedding over the features.

        One dot-product score per feature per row (the pseudo embedding is
        the only query), then a softmax across features. Returns (B, |C|)
        with columns in ``feature_names`` order.
        """
        key, query = self.params["bid.h0.key"], self.params["bid.h0.query"]
        return ad.feature_attention(embeddings, key, pseudo_embed, query)

    def interaction_embedding(self, attention: Tensor, embeddings: Tensor) -> Tensor:
        """Attention-weighted sum of the features' value projections, (B, d)."""
        return ad.feature_pool(embeddings, self.params["bid.h0.value"], attention)

    def residual_fuse(self, interaction: Tensor, pseudo_embed: Tensor) -> Tensor:
        """ReLU of the interaction embedding plus a projection of the pseudo embedding."""
        return ad.dense(pseudo_embed, self.params["fuse.w_res"], interaction, activation="relu")

    def predict(self, fused: Tensor) -> Tensor:
        """Probability of the positive class: one sigmoid layer over the fused embedding."""
        return ad.dense(fused, self.params["head.layer0.w"], self.params["head.layer0.b"], "sigmoid")

    def forward(self, features, training: bool = False, rng=None) -> ForwardTrace:
        """Full pass over a feature mapping or :class:`EncodedRows`; see the module
        docstring for the stage breakdown."""
        embeddings = self.embed_features(features)
        pseudo, scalar = self.sar_forward(embeddings, training, rng)
        attention = self.bid_attention(pseudo, embeddings)
        interaction = self.interaction_embedding(attention, embeddings)
        fused = self.residual_fuse(interaction, pseudo)
        return ForwardTrace(
            embeddings=embeddings,
            pseudo_embed=pseudo,
            pseudo_scalar=scalar,
            attention=attention,
            interaction=interaction,
            fused=fused,
            prediction=self.predict(fused),
        )


class VanillaModel(_EmbeddingBase):
    """Baseline: concatenated feature embeddings through a plain MLP."""

    def _add_layers(self):
        self._add_mlp("mlp", [len(self.input_columns) * self.config.embed_dim, *self.config.baseline_hidden, 1])

    def forward(self, features, training: bool = False, rng=None) -> Tensor:
        """Probability of the positive class, shape (B, 1), for a feature mapping or :class:`EncodedRows`."""
        return self._run_mlp("mlp", self.embed_features(features), training, rng, output="sigmoid")


# rows that one eval-mode forward scores at a time; bounds the activations it holds in memory
SCORE_BLOCK_ROWS = 2048


def _score_blocks(model, features: dict, read) -> None:
    """Eval-mode forward over blocks of rows, calling ``read(rows, output)``
    with each block's slice of rows and its forward output.

    Blocks start at multiples of B = :data:`SCORE_BLOCK_ROWS` (2048), and
    a remainder shorter than B rows joins the last block, so a block holds
    B to 2B - 1 rows, or all n of them when n < B. BLAS can round
    differently for a block of a few rows or one that starts off an
    aligned row; these blocks give each row the bits that one forward over
    all rows gives it. No block's output outlives its ``read``.
    """
    n = _row_count(features)
    bounds = [*range(0, max(n - n % SCORE_BLOCK_ROWS, 1), SCORE_BLOCK_ROWS), n]
    with ad.no_grad():
        for start, stop in zip(bounds, bounds[1:]):
            read(slice(start, stop), model.forward({name: column[start:stop] for name, column in features.items()}))


def _row_count(features: dict) -> int:
    return len(next(iter(features.values()), ()))  # a missing column fails in the forward


def score_rows(model, features: dict) -> tuple:
    """Score the rows in blocks (see :func:`_score_blocks`): ``(prediction, pseudo_scalar)``.

    ``prediction`` is (n,); ``pseudo_scalar`` is (n,) for a
    :class:`FairIntModel` and None for a :class:`VanillaModel`.
    """
    fair = isinstance(model, FairIntModel)
    prediction = np.empty(_row_count(features))
    pseudo = np.empty_like(prediction) if fair else None

    def read(rows, out):
        if fair:
            pseudo[rows] = out.pseudo_scalar.values[:, 0]
            out = out.prediction
        prediction[rows] = out.values[:, 0]

    _score_blocks(model, features, read)
    return prediction, pseudo


def attention_summary(model: FairIntModel, features: dict) -> list:
    """Per feature, the mean, variance, min and max of the attention weight over all rows,
    as the one entry of a per-head list.

    The rows are scored in blocks (see :func:`_score_blocks`); each
    statistic is taken over the weights of all rows at once.
    """
    if not isinstance(model, FairIntModel):
        return []  # the vanilla model has no attention
    attention = np.empty((_row_count(features), len(model.feature_names)))

    def read(rows, out):
        attention[rows] = out.attention.values

    _score_blocks(model, features, read)
    return [{"head": 0, "features": [
        {"feature": name, "mean": float(column.mean()), "variance": float(column.var()),
         "min": float(column.min()), "max": float(column.max())}
        for name, column in zip(model.feature_names, attention.T)
    ]}]


# -- persistence ---------------------------------------------------------------

_REQUIRED_META = ("kind", "model", "schema", "vocabularies", "standardize_stats")
# architecture sizes of older files, each dropped on load when it holds the one value the
# model now has: one attention head, value projections of width embed_dim, one predictor layer;
# older files also carry dropout, a training setting now, which is dropped whatever it holds
_RETIRED_SIZES = {"attention_heads": 1, "value_dim": None, "head_hidden": []}


def save_model(model, dataset, path, train_config) -> None:
    """Write the parameters plus everything needed to score new data.

    The metadata block carries the architecture, the full column schema,
    the dataset's encoder state (category vocabularies and numeric
    standardization statistics), so a saved model can evaluate a fresh
    CSV without the original experiment configuration, and the run's
    training settings (``train_config``, a ``TrainConfig``) as a record.
    """
    meta = {
        "kind": "fairint" if isinstance(model, FairIntModel) else "vanilla",
        "model": model.config.to_dict(),
        "schema": [schema_entry(c) for c in dataset.schema],
        "vocabularies": dataset.vocabularies,
        "standardize_stats": (
            None
            if dataset.standardize_stats is None
            else {k: list(v) for k, v in dataset.standardize_stats.items()}
        ),
        "train": train_config.to_dict(),
    }
    ad.save_parameters(path, model.parameter_arrays(), meta)


def load_model(path):
    """Rebuild a model saved by :func:`save_model`.

    Returns ``(model, schema, metadata)``: the model with its trained
    arrays loaded, the full column schema, and the raw metadata block
    (encoder state included) for re-encoding new data.
    """
    arrays, meta = ad.load_parameters(path)
    with located(path):
        missing = set(_REQUIRED_META) - set(meta)
        if missing:
            raise DataError(f"model file metadata is missing {sorted(missing)}")
        if meta["kind"] not in ("fairint", "vanilla"):
            raise DataError(f"unknown model kind {meta['kind']!r}")
        with located("metadata"):
            schema = parse_schema(meta["schema"])
        _check_encoder_state(meta, schema)
        with located("model file metadata", DataError):  # a bad architecture is a bad file, not a bad config
            architecture = meta["model"]
            if isinstance(architecture, dict):
                for key, default in _RETIRED_SIZES.items():
                    value = architecture.get(key, default)
                    if value != default or type(value) is not type(default):
                        raise DataError(f"{key} {json.dumps(value)} is no longer supported, only {json.dumps(default)}")
                architecture = {k: v for k, v in architecture.items() if k != "dropout" and k not in _RETIRED_SIZES}
            config = ModelConfig.from_dict(architecture)
        inputs = [c for c in schema if c.role == ROLE_NON_SENSITIVE]
        cls = FairIntModel if meta["kind"] == "fairint" else VanillaModel
        model = cls(inputs, config, seed=0)  # MemoryError for sizes the metadata asks for
        model.load_arrays(arrays)
    return model, schema, meta


def _check_encoder_state(meta: dict, schema) -> None:
    """Type-check the saved vocabularies and standardization statistics, and check that
    they cover every categorical and numerical column of the schema but the label; null
    statistics, a run without standardization, cover every column."""
    vocabs, stats = meta["vocabularies"], meta["standardize_stats"]
    if not isinstance(vocabs, dict) or not all(
        isinstance(v, list) and all(isinstance(t, str) for t in v) for v in vocabs.values()
    ):
        raise DataError("model file metadata 'vocabularies' is not an object of string lists")
    if stats is not None and not (isinstance(stats, dict) and all(map(_is_mean_std, stats.values()))):
        raise DataError("model file metadata 'standardize_stats' is not null or finite [mean, std > 0] pairs")
    for key, kind in (("vocabularies", KIND_CATEGORICAL), ("standardize_stats", KIND_NUMERICAL)):
        missing = [] if meta[key] is None else columns_without(schema, kind, meta[key])
        if missing:
            raise DataError(f"model file metadata {key!r} has no entry for {kind} columns {missing}")


def _is_mean_std(pair) -> bool:
    return (
        isinstance(pair, list) and len(pair) == 2
        and all(map(is_finite_number, pair))
        and pair[1] > 0
    )
