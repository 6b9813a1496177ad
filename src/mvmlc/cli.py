"""Command-line interface: synth, corrupt, train, eval, gradcheck.

Each run writes a manifest echoing every resolved option it reads into its
output directory, so a run is reproducible from the manifest alone. Exactly
one JSON document goes to stdout per command; all diagnostics go to stderr.

Option keys are the ``ModelConfig`` / ``TrainConfig`` field names (or their
``_RENAMED`` keys), with the field default and its type as parser; only the
data options, which no config owns, have literal defaults here.

Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 infeasible
corruption request.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import data, losses
from .errors import InfeasibleRatio
from .model import ModelConfig, ModelParams, forward, load_checkpoint, save_checkpoint
from .trainer import TrainConfig, evaluate, objective, train

GRADCHECK_TOLERANCE = 1e-4

# option keys of renamed config fields, as config files and manifests use them
_RENAMED = {"dtype": "precision", "batch_size": "batch", "learning_rate": "lr"}


def _option_fields(cls) -> list:
    """(option key, field) for each field of a config dataclass."""
    return [(_RENAMED.get(f.name, f.name), f) for f in fields(cls)]


DEFAULTS = {key: f.default for cls in (ModelConfig, TrainConfig) for key, f in _option_fields(cls)}
DEFAULTS.update(train_ratio=0.7, view_missing=0.0, label_missing=0.0)

# config-file keys (flat key=value lines) and their parsers; CLI flags use
# the same names with dashes and override the file
CONFIG_KEYS = {key: type(value) for key, value in DEFAULTS.items()}


def read_config_file(path) -> dict:
    """Parse flat key=value lines; '#' starts a comment, blank lines ignored."""
    options = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        options[key] = CONFIG_KEYS[key](value)
    return options


def resolve_options(args: argparse.Namespace) -> dict:
    """Defaults, overridden by the config file, overridden by explicit flags."""
    options = dict(DEFAULTS)
    if getattr(args, "config", None):
        options.update(read_config_file(args.config))
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            options[key] = value
    return options


def _config(cls, options: dict, **overrides):
    """Build ``cls`` from resolved options; ``overrides`` set fields by name."""
    values = {f.name: options[key] for key, f in _option_fields(cls)}
    return cls(**{**values, **overrides})


def write_manifest(out_dir: Path, command: str, args: argparse.Namespace, options: dict):
    manifest = {
        "command": command,
        "config_file": getattr(args, "config", None),
        "options": options,
        "seed": options.get("seed"),
        "out": str(out_dir),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "run_manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def emit(payload: dict):
    print(json.dumps(payload, sort_keys=True))


def log(message: str):
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    options = {"seed": resolve_options(args)["seed"], "n": args.n, "m": args.m, "c": args.c,
               "d_latent": args.d_latent, "dims": args.dims, "noise": args.noise}
    dims = [int(d) for d in args.dims.split(",")] if args.dims else None
    if dims is None:
        rng = np.random.default_rng(options["seed"])
        dims = [int(rng.integers(8, 33)) for _ in range(args.m)]
        options["dims"] = ",".join(str(d) for d in dims)
    ds = data.make_synthetic(args.n, args.m, args.c, args.d_latent, dims,
                             noise=args.noise, seed=options["seed"])
    out = Path(args.out)
    write_manifest(out, "synth", args, options)
    data.save_dataset(ds, out)
    emit({"dataset": str(out), "n": ds.n, "m": ds.m, "c": ds.c, "view_dims": ds.view_dims})
    return 0


def cmd_corrupt(args) -> int:
    resolved = resolve_options(args)
    options = {key: resolved[key] for key in ("seed", "view_missing", "label_missing")}
    options["data"] = args.data
    ds = data.load_dataset(args.data)
    seeds = np.random.SeedSequence(options["seed"]).spawn(2)
    view_mask = None
    label_mask = None
    if options["view_missing"] > 0:
        view_mask = data.simulate_missing_views(
            ds.n, ds.m, options["view_missing"], seed=int(seeds[0].generate_state(1)[0])
        )
    if options["label_missing"] > 0:
        label_mask = data.simulate_missing_labels(
            ds.labels, options["label_missing"], seed=int(seeds[1].generate_state(1)[0])
        )
    corrupted = data.apply_masks(ds, view_mask=view_mask, label_mask=label_mask)
    out = Path(args.out)
    write_manifest(out, "corrupt", args, options)
    data.save_dataset(corrupted, out)
    emit({
        "dataset": str(out),
        "view_missing": options["view_missing"],
        "label_missing": options["label_missing"],
        "available_views": float(corrupted.view_mask.mean()),
        "known_labels": float(corrupted.label_mask.mean()),
    })
    return 0


def cmd_train(args) -> int:
    options = resolve_options(args)
    options["data"] = args.data
    out = Path(args.out)
    checkpoint = out / "model.ckpt"
    seeds = np.random.SeedSequence(options["seed"]).spawn(4)
    stage_seed = [int(s.generate_state(1)[0]) for s in seeds]
    # bad options and data fail before anything is written
    model_config = _config(ModelConfig, options)
    train_config = _config(TrainConfig, options, seed=stage_seed[3])
    ds = data.load_dataset(args.data)

    if options["view_missing"] > 0:
        w = data.simulate_missing_views(ds.n, ds.m, options["view_missing"], seed=stage_seed[0])
        ds = data.apply_masks(ds, view_mask=w)
    train_ds, test_ds = data.split(ds, options["train_ratio"], seed=stage_seed[1])
    if options["label_missing"] > 0:
        g = data.simulate_missing_labels(train_ds.labels, options["label_missing"],
                                         seed=stage_seed[2])
        train_ds = data.apply_masks(train_ds, label_mask=g)

    write_manifest(out, "train", args, options)
    data.save_dataset(train_ds, out / "train_data")
    data.save_dataset(test_ds, out / "test_data")

    log(f"training on {train_ds.n} rows ({test_ds.n} held out)")
    params, history = train(model_config, train_config, train_ds, eval_dataset=test_ds)
    save_checkpoint(params, checkpoint)
    log(f"trained {params.num_parameters()} parameters")
    history.save_jsonl(out / "history.jsonl")

    report = evaluate(params, test_ds)
    report.meta.update({"seed": options["seed"], "options": options})
    (out / "report.json").write_text(report.to_json() + "\n")
    emit({
        "checkpoint": str(checkpoint),
        "history": str(out / "history.jsonl"),
        "final_train": history.final().to_dict(),
        "report": report.to_dict(),
    })
    return 0


def cmd_eval(args) -> int:
    params = load_checkpoint(args.checkpoint)
    options = {key: getattr(params.config, f.name) for key, f in _option_fields(ModelConfig)}
    options.update(checkpoint=args.checkpoint, data=args.data, seed=resolve_options(args)["seed"])
    ds = data.load_dataset(args.data)
    report = evaluate(params, ds)
    report.meta.update({"seed": options["seed"], "options": options})
    out = Path(args.out)
    write_manifest(out, "eval", args, options)
    (out / "report.json").write_text(report.to_json() + "\n")
    emit(report.to_dict())
    return 0


def cmd_gradcheck(args) -> int:
    """Finite-difference check of the full objective on a tiny 64-bit model."""
    resolved = resolve_options(args)
    options = {key: resolved[key] for key in ("seed", "alpha", "beta", "gamma")}
    n, m, c, d_e = 4, 3, 5, 16
    ds = data.make_synthetic(n, m, c, 3, [4, 5, 6], noise=0.3, seed=options["seed"])
    w = np.ones((n, m))
    w[0, 1] = 0.0  # exercise the masked paths too
    w[2, 0] = 0.0
    ds = data.apply_masks(ds, view_mask=w)
    g = data.simulate_missing_labels(ds.labels, 0.3, seed=options["seed"])
    ds = data.apply_masks(ds, label_mask=g)

    config = ModelConfig(d_e=d_e, heads=4, layers_v=1, layers_c=1, dropout=0.0,
                         gamma=options["gamma"], dtype="float64")
    params = ModelParams.initialize(config, ds.view_dims, ds.c, seed=options["seed"])
    # Check at a generic, well-scaled point in parameter space: the training
    # init (std 0.02) leaves some gradient coordinates so close to zero that
    # the difference quotient drowns in float roundoff.
    rng = np.random.default_rng(options["seed"] + 1)
    for name, tensor in params.items():
        if name.endswith(("ln1_g", "ln2_g")):
            tensor.data = 1.0 + 0.3 * rng.standard_normal(tensor.data.shape)
        else:
            tensor.data = 0.3 * rng.standard_normal(tensor.data.shape)
    t, u = losses.label_similarity(ds.labels, ds.label_mask)

    def loss():
        out = forward(ds.views, ds.view_mask, params, train=False)
        return objective(out, ds.labels, ds.label_mask, ds.view_mask, t, u,
                         options["alpha"], options["beta"])[0]

    per_group = {}
    for group, names in params.groups().items():
        if not names:
            continue
        per_group[group] = ad.gradient_check(loss, [params[name] for name in names],
                                             eps=1e-5)
        log(f"gradcheck {group}: max rel err {per_group[group]:.3e}")
    worst = max(per_group.values())
    passed = bool(worst < GRADCHECK_TOLERANCE)
    payload = {
        "max_rel_err": worst,
        "per_group": per_group,
        "tolerance": GRADCHECK_TOLERANCE,
        "pass": passed,
    }
    if args.out:
        out = Path(args.out)
        write_manifest(out, "gradcheck", args, options)
        (out / "gradcheck.json").write_text(json.dumps(payload, sort_keys=True) + "\n")
    emit(payload)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser, *, out_required: bool = True):
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out", required=out_required, help="output directory")


def _add_model_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--alpha", type=float, help="graph constraint coefficient")
    parser.add_argument("--beta", type=float, help="token-head loss coefficient")
    parser.add_argument("--gamma", type=float, help="fusion weight exponent")
    parser.add_argument("--d-e", dest="d_e", type=int, help="embedding width")
    parser.add_argument("--heads", type=int, help="attention head count")
    parser.add_argument("--layers-v", dest="layers_v", type=int, help="view encoder depth")
    parser.add_argument("--layers-c", dest="layers_c", type=int, help="class encoder depth")
    parser.add_argument("--dropout", type=float, help="dropout rate")
    parser.add_argument("--precision", choices=["float32", "float64"], help="parameter dtype")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvmlc",
        description="multi-view multi-label classification under missing views and labels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    _add_common(p)
    p.add_argument("--n", type=_positive_int, required=True, help="sample count")
    p.add_argument("--m", type=_positive_int, required=True, help="view count")
    p.add_argument("--c", type=_positive_int, required=True, help="label count")
    p.add_argument("--d-latent", dest="d_latent", type=_positive_int, default=8,
                   help="latent width")
    p.add_argument("--dims", help="comma-separated per-view dims (default: random)")
    p.add_argument("--noise", type=float, default=0.1, help="view noise level")
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("corrupt", help="apply missing-view/label simulation to a dataset")
    _add_common(p)
    p.add_argument("--data", required=True, help="input dataset directory or manifest")
    p.add_argument("--view-missing", dest="view_missing", type=float,
                   help="fraction of samples removed per view")
    p.add_argument("--label-missing", dest="label_missing", type=float,
                   help="fraction of positives and negatives hidden per category")
    p.set_defaults(handler=cmd_corrupt)

    p = sub.add_parser("train", help="train a model and evaluate the held-out split")
    _add_common(p)
    p.add_argument("--data", required=True, help="dataset directory or manifest")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float, help="learning rate")
    p.add_argument("--batch", type=int, help="batch size")
    p.add_argument("--train-ratio", dest="train_ratio", type=float)
    p.add_argument("--view-missing", dest="view_missing", type=float,
                   help="simulate missing views before splitting")
    p.add_argument("--label-missing", dest="label_missing", type=float,
                   help="simulate missing labels on the training split")
    p.add_argument("--eval-every", dest="eval_every", type=int,
                   help="evaluate the held-out split every k epochs")
    _add_model_flags(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    _add_common(p, out_required=False)
    p.add_argument("--alpha", type=float, help="graph constraint coefficient")
    p.add_argument("--beta", type=float, help="token-head loss coefficient")
    p.add_argument("--gamma", type=float, help="fusion weight exponent")
    p.set_defaults(handler=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InfeasibleRatio as exc:
        log(f"error: {exc}")
        return 3
    except (OSError, ValueError, RuntimeError) as exc:
        log(f"error: {exc.__class__.__name__}: {exc}")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
