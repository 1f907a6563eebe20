"""The fairness-aware interaction network and its vanilla MLP baseline.

The fair model runs in five stages, each exposed as its own method so
they can be tested and inspected separately:

  1. embed_features: every non-sensitive column becomes a small dense
     embedding (a table column for categoricals, a learned direction
     scaled by the standardized value); one scaled gather from all the
     tables forms the (B, |C| * d) tensor, in ``feature_names`` order.
  2. sar_forward: a four-layer MLP reads all embeddings and reconstructs
     a pseudo-sensitive embedding, plus a scalar probability that the row
     belongs to group 1.
  3. bid_attention: the pseudo-sensitive embedding is the only attention
     query; each head scores every feature once (|C| scores per row, not
     |C| squared, in one fused op) and normalizes with a softmax.
  4. interaction_embedding + residual_fuse: attention-weighted value
     projections, concatenated across heads, plus a residual projection
     of the pseudo-sensitive embedding, through a ReLU.
  5. predict: a small head maps the fused embedding to a probability.

Weight matrices are stored in (input, output) orientation so the forward
pass is plain right-multiplication.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import KIND_CATEGORICAL, ROLE_NON_SENSITIVE, check_options, is_finite_number, parse_schema, schema_entry
from .errors import ConfigError, DataError, UsageError

__all__ = [
    "ModelConfig",
    "ForwardTrace",
    "FairIntModel",
    "VanillaModel",
    "attention_summary",
    "save_model",
    "load_model",
]


@dataclass(frozen=True)
class ModelConfig:
    """Architecture sizes. Defaults follow the reference setting.

    ``sar_hidden`` lists the reconstructor's hidden widths; together with
    its linear output projection to ``embed_dim`` the default makes a
    four-layer MLP. ``value_dim`` is the per-head width of the attention
    value space and defaults to ``embed_dim``. ``head_hidden`` is empty
    for a single-layer prediction head.
    """

    embed_dim: int = 4
    attention_heads: int = 1
    value_dim: int | None = None
    sar_hidden: tuple = (16, 16, 8)
    head_hidden: tuple = ()
    baseline_hidden: tuple = (64, 32)

    def __post_init__(self):
        for name in ("embed_dim", "attention_heads", "value_dim"):
            size = getattr(self, name)
            if not (size is None and name == "value_dim") and (type(size) is not int or size < 1):
                raise ConfigError(f"{name} must be a positive int, got {size!r}")
        for name in ("sar_hidden", "head_hidden", "baseline_hidden"):
            widths = getattr(self, name)
            if any(type(w) is not int or w < 1 for w in widths):
                raise ConfigError(f"{name} widths must be positive ints, got {widths}")

    @property
    def head_width(self) -> int:
        return self.value_dim if self.value_dim is not None else self.embed_dim

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelConfig":
        check_options(doc, cls.__dataclass_fields__, "model")
        kwargs = dict(doc)
        for name in ("sar_hidden", "head_hidden", "baseline_hidden"):
            if name in kwargs:
                if not isinstance(kwargs[name], (list, tuple)):
                    raise ConfigError(f"{name} must be a list of widths, got {kwargs[name]!r}")
                kwargs[name] = tuple(kwargs[name])
        return cls(**kwargs)


@dataclass
class ForwardTrace:
    """Everything one forward pass computed, kept for losses and reports."""

    embeddings: Tensor        # (B, |C| * d): one block of width d per feature, in feature_names order
    pseudo_embed: Tensor      # (B, d)
    pseudo_scalar: Tensor     # (B, 1), in (0, 1)
    attention: list           # per head: (B, |C|) Tensor, rows sum to 1, columns in feature_names order
    interaction: Tensor       # (B, head_width * heads)
    fused: Tensor             # (B, head_width * heads)
    prediction: Tensor        # (B, 1), in (0, 1)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


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
        self.dropout = dropout
        self._rng = np.random.default_rng(seed)
        self._mlp_layers: dict[str, int] = {}
        self._initial: dict[str, np.ndarray] = {}
        d = config.embed_dim
        self._categorical = np.array([col.kind == KIND_CATEGORICAL for col in self.input_columns])
        self._vocab = np.array([c.table_size if cat else 1 for c, cat in zip(self.input_columns, self._categorical)])
        for col, cat, vocab in zip(self.input_columns, self._categorical, self._vocab):
            self._initial[f"embed.{col.name}"] = self._rng.normal(0.0, 0.1, size=(d, vocab) if cat else (1, d))
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
            self._initial[f"{prefix}.layer{i}.w"] = _glorot(self._rng, widths[i], widths[i + 1])
            self._initial[f"{prefix}.layer{i}.b"] = np.zeros(widths[i + 1])

    def _run_mlp(self, prefix: str, x: Tensor, training: bool, rng) -> Tensor:
        # ReLU plus dropout on every layer except the last, which stays linear
        n_layers = self._mlp_layers[prefix]
        rate = self.dropout if training else 0.0
        for i in range(n_layers):
            hidden = i < n_layers - 1
            w, b = self.params[f"{prefix}.layer{i}.w"], self.params[f"{prefix}.layer{i}.b"]
            x = ad.dense(x, w, b, relu=hidden, rate=rate if hidden else 0.0, rng=rng)
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

    def embed_features(self, features: dict) -> Tensor:
        """Map a batch's raw feature arrays to one (B, |C| * d) embedding tensor.

        Feature c's embedding is the block of columns [c*d, (c+1)*d), in
        ``feature_names`` order. A categorical id selects one column of its
        table; a numerical value scales its (1, d) row, so 0 embeds to zeros.
        """
        for name in self.feature_names:
            if name not in features:
                raise DataError(f"batch is missing feature column {name!r}")
        x = np.column_stack([np.asarray(features[name], dtype=np.float64) for name in self.feature_names])
        ids = np.where(self._categorical, x, 0.0)
        outside = ~((ids >= 0) & (ids < self._vocab))
        if outside.any():
            c = int(outside.any(axis=0).argmax())
            raise DataError(f"category id out of range [0, {self._vocab[c]}) for feature {self.feature_names[c]!r}")
        index = np.repeat(ids.astype(np.int64), self.config.embed_dim, axis=1)
        index += self._table_index  # in place: a broadcast add into a new array is several times slower
        return ad.gather_scale(self._tables, index, np.where(self._categorical, 1.0, x))


class FairIntModel(_EmbeddingBase):
    """Interaction model with pseudo-sensitive attention and residual fusion."""

    def _add_layers(self):
        config = self.config
        d = config.embed_dim
        dv = config.head_width
        self._add_mlp("sar", [len(self.input_columns) * d, *config.sar_hidden, d])
        self._initial["sar_scalar.w"] = _glorot(self._rng, d, 1)
        for h in range(config.attention_heads):
            for role in ("query", "key", "value"):
                self._initial[f"bid.h{h}.{role}"] = _glorot(self._rng, d, dv)
        self._initial["fuse.w_res"] = _glorot(self._rng, d, dv * config.attention_heads)
        self._add_mlp("head", [dv * config.attention_heads, *config.head_hidden, 1])

    def sar_forward(self, embeddings: Tensor, training: bool = False, rng=None):
        """Reconstruct the sensitive attribute from all feature embeddings.

        Returns (pseudo_embed (B, d), pseudo_scalar (B, 1)). The scalar is
        a separate linear readout of the pseudo embedding through a
        sigmoid, so zero weights give exactly 0.5.
        """
        pseudo = self._run_mlp("sar", embeddings, training, rng)
        scalar = ad.sigmoid(ad.matmul(pseudo, self.params["sar_scalar.w"]))
        return pseudo, scalar

    def bid_attention(self, pseudo_embed: Tensor, embeddings: Tensor, head: int) -> Tensor:
        """Attention of the pseudo-sensitive embedding over the features.

        One dot-product score per feature per row (the pseudo embedding is
        the only query), then a softmax across features. Returns (B, |C|)
        with columns in ``feature_names`` order.
        """
        if not 0 <= head < self.config.attention_heads:
            raise UsageError(f"head {head} out of range")
        q = ad.matmul(pseudo_embed, self.params[f"bid.h{head}.query"])
        scores = ad.feature_scores(embeddings, self.params[f"bid.h{head}.key"], q)
        return ad.softmax_lastdim(scores)

    def interaction_embedding(self, attention: list, embeddings: Tensor) -> Tensor:
        """Attention-weighted sum of value projections, concatenated across heads."""
        head_outputs = [
            ad.feature_pool(embeddings, self.params[f"bid.h{h}.value"], weights)
            for h, weights in enumerate(attention)
        ]
        return ad.concat_lastdim(head_outputs) if len(head_outputs) > 1 else head_outputs[0]

    def residual_fuse(self, interaction: Tensor, pseudo_embed: Tensor) -> Tensor:
        """ReLU of the interaction embedding plus a projection of the pseudo embedding."""
        return ad.relu(interaction + ad.matmul(pseudo_embed, self.params["fuse.w_res"]))

    def predict(self, fused: Tensor, training: bool = False, rng=None) -> Tensor:
        """Probability head over the fused embedding."""
        return ad.sigmoid(self._run_mlp("head", fused, training, rng))

    def forward(self, features: dict, training: bool = False, rng=None) -> ForwardTrace:
        """Full pass; see the module docstring for the stage breakdown."""
        embeddings = self.embed_features(features)
        pseudo, scalar = self.sar_forward(embeddings, training, rng)
        attention = [
            self.bid_attention(pseudo, embeddings, h) for h in range(self.config.attention_heads)
        ]
        interaction = self.interaction_embedding(attention, embeddings)
        fused = self.residual_fuse(interaction, pseudo)
        prediction = self.predict(fused, training, rng)
        return ForwardTrace(
            embeddings=embeddings,
            pseudo_embed=pseudo,
            pseudo_scalar=scalar,
            attention=attention,
            interaction=interaction,
            fused=fused,
            prediction=prediction,
        )


class VanillaModel(_EmbeddingBase):
    """Baseline: concatenated feature embeddings through a plain MLP."""

    def _add_layers(self):
        self._add_mlp("mlp", [len(self.input_columns) * self.config.embed_dim, *self.config.baseline_hidden, 1])

    def forward(self, features: dict, training: bool = False, rng=None) -> Tensor:
        """Probability of the positive class, shape (B, 1)."""
        return ad.sigmoid(self._run_mlp("mlp", self.embed_features(features), training, rng))


def attention_summary(model: FairIntModel, features: dict) -> list:
    """Per head and feature, the mean, variance, min and max of the attention weight over a batch."""
    with ad.no_grad():
        attention = model.forward(features).attention
    return [
        {"head": h, "features": [
            {"feature": name, "mean": float(column.mean()), "variance": float(column.var()),
             "min": float(column.min()), "max": float(column.max())}
            for name, column in zip(model.feature_names, weights.values.T)
        ]}
        for h, weights in enumerate(attention)
    ]


# -- persistence ---------------------------------------------------------------

_REQUIRED_META = ("kind", "model", "schema", "vocabularies", "standardize_stats")


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
    missing = set(_REQUIRED_META) - set(meta)
    if missing:
        raise DataError(f"{path}: model file metadata is missing {sorted(missing)}")
    if meta["kind"] not in ("fairint", "vanilla"):
        raise DataError(f"{path}: unknown model kind {meta['kind']!r}")
    _check_encoder_state(meta, path)
    schema = parse_schema(meta["schema"], f"{path}: metadata")
    architecture = meta["model"]
    if isinstance(architecture, dict):  # files written before dropout became a training setting carry it here
        architecture = {k: v for k, v in architecture.items() if k != "dropout"}
    try:
        config = ModelConfig.from_dict(architecture)
    except ConfigError as exc:
        raise DataError(f"{path}: model file metadata: {exc}") from None
    inputs = [c for c in schema if c.role == ROLE_NON_SENSITIVE]
    cls = FairIntModel if meta["kind"] == "fairint" else VanillaModel
    model = cls(inputs, config, seed=0)
    model.load_arrays(arrays)
    return model, schema, meta


def _check_encoder_state(meta: dict, path) -> None:
    """Type-check the saved vocabularies and standardization statistics."""
    vocabs = meta["vocabularies"]
    if not isinstance(vocabs, dict) or not all(
        isinstance(v, list) and all(isinstance(t, str) for t in v) for v in vocabs.values()
    ):
        raise DataError(f"{path}: model file metadata 'vocabularies' is not an object of string lists")
    stats = meta["standardize_stats"]
    if stats is not None and not (isinstance(stats, dict) and all(map(_is_mean_std, stats.values()))):
        raise DataError(f"{path}: model file metadata 'standardize_stats' is not null or finite [mean, std > 0] pairs")


def _is_mean_std(pair) -> bool:
    return (
        isinstance(pair, list) and len(pair) == 2
        and all(map(is_finite_number, pair))
        and pair[1] > 0
    )
