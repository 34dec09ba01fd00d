"""Multi-level trope detection over movie-synopsis feature files.

Submodules and the common entry points are loaded lazily so that the
command line can cap numeric-backend threads before numpy is imported.
"""

from importlib import import_module

from .errors import (
    ConfigError,
    DataFormatError,
    EmptyDocumentError,
    MulComError,
    ShapeMismatchError,
    ValidationError,
)

__version__ = "0.1.0"

_SUBMODULES = (
    "cli",
    "config",
    "data",
    "gradcheck",
    "graph",
    "ioutil",
    "metrics",
    "model",
    "msrrn",
    "numerics",
    "streams",
)

_EXPORTS = {
    "Tensor": "numerics",
    "Tape": "numerics",
    "grad_check": "numerics",
    "build_graph": "graph",
    "FeatureDoc": "graph",
    "EntityMentions": "graph",
    "ModelConfig": "config",
    "TrainConfig": "config",
    "build_model": "model",
    "train": "model",
    "forward": "model",
    "save_checkpoint": "model",
    "load_checkpoint": "model",
    "Dataset": "data",
    "SynthSpec": "config",
    "synth_generate": "data",
    "load_dataset": "data",
    "save_dataset": "data",
    "evaluate": "metrics",
    "EvalReport": "metrics",
    "run_gradcheck": "gradcheck",
}

__all__ = sorted(
    ["__version__", *_SUBMODULES, *_EXPORTS]
    + [
        "ConfigError",
        "DataFormatError",
        "EmptyDocumentError",
        "MulComError",
        "ShapeMismatchError",
        "ValidationError",
    ]
)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
