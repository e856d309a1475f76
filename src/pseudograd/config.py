"""Run configuration: one declared schema for every section.

Each field declares its type (the annotation), default, range and JSON key
once (``setting``, where a range or a key is needed); ``section`` resolves
the declarations once per class. One walker over them checks types strictly
(a bool is not an int, an int is accepted for a float, floats must be
finite) and ranges on every construction, parses documents and writes
``to_dict``. ``TrainConfig.replace`` is the one way to derive a config
(overrides, sweep cells, seeds), so a derived config is checked like a
loaded one. Only cross-field rules are hand-written, in ``_cross_check``;
constructors never warn (``warn_alpha_le_beta``).
"""

import json
import operator
import sys
import warnings
from dataclasses import dataclass, field, fields

from .model import ACTIVATIONS
from .numerics import read_json

VARIANT_KL_PRED_PSEUDO = "kl_pred_pseudo"
VARIANT_KL_PSEUDO_PRED = "kl_pseudo_pred"
VARIANT_L2 = "l2"
VARIANTS = (VARIANT_KL_PRED_PSEUDO, VARIANT_KL_PSEUDO_PRED, VARIANT_L2)


class ConfigError(ValueError):
    """A configuration document is malformed or inconsistent."""


_BOUND_OPS = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"),
              "le": (operator.le, "<="), "lt": (operator.lt, "<")}


def setting(default, *, choices=None, key=None, **bounds):
    """A config field: its default, its range (``ge``, ``gt``, ``le``, ``lt``
    bound a number, or each entry of a tuple) and its JSON key (the field
    name unless given)."""
    meta = {"bounds": tuple((*_BOUND_OPS[op], b) for op, b in bounds.items()),
            "choices": choices, "key": key}
    return field(default=default, metadata=meta)


_TYPE_TEXT = {bool: "a boolean", int: "an integer", float: "a finite number", str: "a string"}


@dataclass(frozen=True)
class _Field:
    name: str
    key: str
    kind: type  # bool, int, float, str, tuple (of int) or a section class
    optional: bool
    bounds: tuple  # (operator, text, bound) triples
    choices: tuple | None
    is_section: bool

    def parse(self, value):
        """The checked value in its canonical type; raises ConfigError."""
        if value is None and self.optional:
            return value
        if self.kind is tuple:
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{self.key} must be a list of integers, got {value!r}")
            return tuple(self._scalar(int, v) for v in value)
        if self.is_section:
            if isinstance(value, self.kind):
                return value
            return _from_doc(self.kind, value, self.key)
        value = self._scalar(self.kind, value)
        if self.choices is not None and value not in self.choices:
            raise ConfigError(f"{self.key} must be one of {self.choices}, got {value!r}")
        return value

    def _scalar(self, kind: type, value):
        if isinstance(value, bool):
            ok = kind is bool
        elif kind is float and isinstance(value, (int, float)):
            ok = abs(value) <= sys.float_info.max  # not NaN, inf or an int too large for a float
            value = float(value) if ok else value
        else:
            ok = isinstance(value, kind)
        if not ok:
            raise ConfigError(f"{self.key} must be {_TYPE_TEXT[kind]}, got {value!r}")
        for op, text, bound in self.bounds:
            if not op(value, bound):
                raise ConfigError(f"{self.key} must be {text} {bound}, got {value!r}")
        return value


def _declare(f) -> _Field:
    args = getattr(f.type, "__args__", ())  # a type: annotations are not postponed here
    optional = type(None) in args
    kind = next(a for a in args if a is not type(None)) if optional else f.type
    kind = getattr(kind, "__origin__", kind)
    meta = f.metadata
    return _Field(f.name, meta.get("key") or f.name, kind, optional, meta.get("bounds", ()),
                  meta.get("choices"), hasattr(kind, "_SCHEMA"))


def section(cls):
    """Make ``cls`` a slotted dataclass (assigning a misspelled attribute
    raises) and resolve its field declarations once."""
    cls = dataclass(cls, slots=True)
    cls._SCHEMA = tuple(_declare(f) for f in fields(cls))
    cls._BY_KEY = {fd.key: fd.name for fd in cls._SCHEMA}
    return cls


class _Section:
    __slots__ = ()

    def __post_init__(self):
        for fd in self._SCHEMA:
            setattr(self, fd.name, fd.parse(getattr(self, fd.name)))
        self._cross_check()

    def _cross_check(self) -> None:
        pass

    def to_dict(self) -> dict:
        doc = {}
        for fd in self._SCHEMA:
            value = getattr(self, fd.name)
            if isinstance(value, _Section):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            doc[fd.key] = value
        return doc


def _from_doc(cls, doc, path: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config root'} must be an object")
    prefix = f"{path}." if path else ""
    unknown = [k for k in doc if k not in cls._BY_KEY]
    if unknown:
        raise ConfigError(f"unknown key {prefix}{unknown[0]}")
    try:
        return cls(**{cls._BY_KEY[k]: v for k, v in doc.items()})
    except ConfigError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


@section
class DataSpec(_Section):
    kind: str = setting("blobs", choices=("blobs", "moons", "idx"))
    n_classes: int = setting(3, ge=2)
    n_per_class: int = setting(200, ge=1)
    dim: int = setting(2, ge=1)
    spread: float = setting(0.5, gt=0)
    noise: float = setting(0.1, ge=0)
    images: str | None = None
    labels: str | None = None
    take_first: int | None = setting(None, ge=1)
    holdout: int = setting(0, ge=0)
    labeled_per_class: int = setting(4, ge=1)
    test_n_per_class: int = setting(200, ge=1)
    standardize: bool = False

    def _cross_check(self) -> None:
        if self.kind == "idx" and (not self.images or not self.labels):
            raise ConfigError("kind 'idx' requires images and labels paths")
        if self.kind == "idx" and self.holdout < 1:
            raise ConfigError("kind 'idx' tests on the last holdout rows: holdout must be >= 1")
        if self.kind == "blobs" and self.dim < self.n_classes - 1:
            raise ConfigError(f"kind 'blobs' needs dim >= n_classes - 1, got dim={self.dim} "
                              f"for {self.n_classes} classes")
        if self.kind != "idx" and self.n_per_class < self.labeled_per_class:
            raise ConfigError(f"n_per_class must be >= labeled_per_class, got {self.n_per_class}")


@section
class ArchSpec(_Section):
    hidden_dims: tuple[int, ...] = setting((32, 16), ge=1)
    activation: str = setting("relu", choices=ACTIVATIONS)


@section
class StageOneConfig(_Section):
    epochs: int = setting(60, ge=0)
    lr: float = setting(0.1, ge=0)
    wd: float = setting(0.0, ge=0)
    batch: int = setting(32, ge=1)


@section
class StageTwoConfig(_Section):
    epochs: int = setting(75, ge=0, key="epochs_per_round")
    rounds: int = setting(3, ge=1)
    lr0: float = setting(0.05, ge=0)
    lr_decay_factor: float = setting(0.1, gt=0, lt=1)
    batch: int = setting(128, ge=2)  # room for a labeled and an unlabeled row
    labeled_fraction_per_batch: float = setting(0.5, gt=0, lt=1)
    wd: float = setting(0.0, ge=0)
    repredict_between_rounds: bool = True
    decay_between_rounds: bool = True


@section
class StageThreeConfig(StageOneConfig):  # stage-1 fields and ranges, finetune defaults
    epochs: int = setting(40, ge=0)
    lr: float = setting(0.01, ge=0)
    batch: int = setting(64, ge=1)


@section
class LossConfig(_Section):
    alpha: float = setting(0.1, gt=0)
    beta: float = setting(0.03, ge=0)
    lam: float = setting(4000.0, gt=0, key="lambda")  # pseudo-logit learning rate
    variant: str = setting(VARIANT_KL_PRED_PSEUDO, choices=VARIANTS)


@section
class TrainConfig(_Section):
    data: DataSpec = field(default_factory=DataSpec)
    arch: ArchSpec = field(default_factory=ArchSpec)
    loss: LossConfig = field(default_factory=LossConfig)
    stage1: StageOneConfig = field(default_factory=StageOneConfig)
    stage2: StageTwoConfig = field(default_factory=StageTwoConfig)
    stage3: StageThreeConfig = field(default_factory=StageThreeConfig)
    seed: int = setting(0, ge=0)

    def replace(self, changes: dict) -> "TrainConfig":
        """A new config with ``changes`` applied, checked like a loaded one.
        Keys are dotted JSON keys (``stage2.epochs_per_round``, ``loss.lambda``,
        ``seed``); a section key (``loss``) replaces that whole section."""
        doc = self.to_dict()
        for key, value in changes.items():
            *parents, leaf = key.split(".")
            node = doc
            for k in parents:
                node = node.get(k) if isinstance(node, dict) else None
            if not isinstance(node, dict) or leaf not in node:
                raise ConfigError(f"unknown key {key}")
            node[leaf] = value
        return config_from_dict(doc)

    def copy(self) -> "TrainConfig":  # bench/run.py writes attributes on a copy
        return self.replace({})


def config_from_dict(doc: dict) -> TrainConfig:
    return _from_doc(TrainConfig, doc, "")


def warn_alpha_le_beta(named_losses) -> None:
    """One warning naming every ``(label, LossConfig)`` pair whose alpha <=
    beta. Permitted (failure-mode experiments) but flagged: the prediction
    exponent 1 - beta/alpha is then <= 0 and training degrades."""
    crossed = [f"{label}alpha={loss.alpha} <= beta={loss.beta}"
               for label, loss in named_losses if loss.alpha <= loss.beta]
    if crossed:
        warnings.warn(f"{', '.join(crossed)}: pseudo-labels decouple from predictions and "
                      "training is expected to degrade", stacklevel=3)


def _override(item: str) -> tuple[str, object]:
    """``key=value`` as (key, value): the value read as JSON, else as a bare string."""
    key, sep, raw = item.partition("=")
    if not sep:
        raise ConfigError(f"override {item!r} is not of the form key=value")
    try:
        return key, json.loads(raw)
    except (ValueError, RecursionError):  # not JSON, too deep, or an over-long int
        return key, raw


def load_config(path, overrides=()) -> TrainConfig:
    """The config at ``path`` with ``key=value`` overrides applied. The alpha
    <= beta warning is judged on the returned config only, so it is raised
    at most once."""
    cfg = config_from_dict(read_json(path, "config", ConfigError))
    if overrides:
        cfg = cfg.replace(dict(map(_override, overrides)))
    warn_alpha_le_beta([("", cfg.loss)])
    return cfg
