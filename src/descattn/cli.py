"""Checksum sweep and verification command line.

Subcommands: ``bench`` (checksummed dense / descriptor / streaming runs, one
CSV row per configuration and mode), ``verify`` (named invariant suite,
nonzero exit on failure), ``flops`` (analytic cost report), ``stream`` (cache
occupancy report), ``histogram`` (attention-score histograms).

Exit codes: 0 success, 2 usage error, 3 verification failure, 4 I/O error.

Flags may also come from a flat ``key=value`` config file (``--config``);
explicit command-line flags override file values and an unknown key is a
usage error.  Each run subcommand takes only the settings it reads
(``_READS``): ``flops`` has no ``--retain``, ``--chunk``, ``--selector``,
``--precision`` or ``--seed``, and ``histogram`` only the token, head, seed
and precision settings; any other flag or key is a usage error too.
``verify`` takes ``--seed`` alone.  For ``bench``, ``--frames``, ``--ratio``,
``--retain`` and ``--chunk`` accept comma-separated lists and it runs the
cartesian product, each (configuration, mode) once.  Every sweep CSV row
carries the complete configuration needed to reproduce it, plus a checksum
of the output tokens.  ``bench`` times nothing: wall time and memory are
measured by ``benchmark/``.

This is the one module that writes files, so every CSV layout lives here as
a column tuple: ``SWEEP_COLUMNS``, ``FLOPS_COLUMNS``, ``CACHE_COLUMNS`` and
``HISTOGRAM_COLUMNS``, all written by ``_write_csv``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import analysis, verify
from .aggregator import AggregatorConfig, forward_offline
from .attention import attention_score_histogram, init_block_weights
from .compression import COMPRESSION_KINDS, CompressionMethod, KEYFRAME_METHODS, KeyframeSelector
from .streaming import StreamConfig, cache_report, run_stream
from .tokens import FrameLayout, TokenTensor, generate_synthetic

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_IO = 4

# CSV names of the renamed RunSpec fields: the paper's symbols for the four
# swept axes, which are also the fields ``bench`` takes as comma lists.
COLUMN_NAMES = {"frames": "S", "ratio": "r", "retain": "p", "chunk": "c"}
HISTOGRAM_COLUMNS = ("bin_lo", "bin_hi", "count")
FLOPS_COLUMNS = ("mode", "frames", "k_tokens", "kd_tokens", "layers", "component",
                 "flops_per_layer")
CACHE_COLUMNS = ("layer", "total_tokens", "compressed_tokens", "aux_tokens", "bytes",
                 "ratio_vs_full_token_cache")
MODES = ("dense", "descriptor", "stream")
_DTYPES = {"f32": np.float32, "f64": np.float64}


@dataclass(frozen=True)
class RunSpec:
    """One reproducible run configuration (modes share it).

    Its fields are the single list of run settings: the CLI flags, the
    ``--config`` keys, the CSV configuration columns and the replay parse
    are all derived from them.
    """

    frames: int = 8
    ratio: int = 4
    retain: int = 5
    chunk: int = 10
    method: str = field(default="bilinear", metadata={"choices": COMPRESSION_KINDS})
    selector: str = field(default="cluster", metadata={"choices": KEYFRAME_METHODS})
    interval: int = 200
    aux: bool = True
    layers: int = 2
    channels: int = 32
    heads: int = 4
    grid: tuple[int, int] = (8, 8)
    camera: int = 1
    register: int = 4
    seed: int = 0
    precision: str = field(default="f32", metadata={"choices": tuple(_DTYPES)})

    def __post_init__(self):
        for f in fields(self):
            choices = f.metadata.get("choices")
            if choices is not None and getattr(self, f.name) not in choices:
                raise ValueError(f"{f.name} must be one of {choices}, "
                                 f"got {getattr(self, f.name)!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def dtype(self) -> type:
        return _DTYPES[self.precision]

    def layout(self) -> FrameLayout:
        return FrameLayout(h=self.grid[0], w=self.grid[1], n_camera=self.camera,
                           n_register=self.register, channels=self.channels)

    def tokens(self) -> TokenTensor:
        return generate_synthetic(self.frames, self.layout(), self.seed, dtype=self.dtype)

    def aggregator_config(self, mode: str) -> AggregatorConfig:
        return AggregatorConfig(
            layout=self.layout(), layers=self.layers, heads=self.heads,
            global_mode="dense" if mode == "dense" else "descriptor",
            method=CompressionMethod(self.method, self.ratio),
            include_aux=self.aux,
            selector=KeyframeSelector(self.selector, self.interval, self.seed),
            seed=self.seed, dtype=self.dtype)

    def stream_config(self) -> StreamConfig:
        return StreamConfig(base=self.aggregator_config("descriptor"),
                            chunk_size=self.chunk, retain_rate=self.retain)

    def row(self) -> dict:
        """The configuration columns of a CSV row."""
        return {col: _cell(getattr(self, f.name))
                for f, col in zip(fields(self), _CONFIG_COLUMNS)}

    @classmethod
    def from_row(cls, row: dict) -> "RunSpec":
        """Parse the configuration columns of a CSV row; cells may be text."""
        return cls(**{f.name: _value_type(f.default)(str(row[col]))
                      for f, col in zip(fields(cls), _CONFIG_COLUMNS)})


_CONFIG_COLUMNS = tuple(COLUMN_NAMES.get(f.name, f.name) for f in fields(RunSpec))
# The RunSpec fields each run subcommand reads, and so takes as flags and
# ``--config`` keys; any other is a usage error, as an unknown key is.
_RUN_FIELDS = tuple(f.name for f in fields(RunSpec))
_READS = {"bench": _RUN_FIELDS,
          "flops": tuple(n for n in _RUN_FIELDS
                         if n not in ("retain", "chunk", "selector", "precision", "seed")),
          "stream": _RUN_FIELDS,
          "histogram": ("frames", "channels", "heads", "grid", "camera", "register",
                        "seed", "precision")}
# The v2 layout.  v1 rows (which also had ``repeat`` and ``wall_ms``) still
# replay, because ``from_row`` reads the configuration columns by name.
SWEEP_COLUMNS = ("run_id", "mode", *_CONFIG_COLUMNS, "tokens", "cache_tokens", "checksum")


def _cell(value):
    return f"{value[0]}x{value[1]}" if isinstance(value, tuple) else value


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        h, w = str(text).lower().split("x")
        return int(h), int(w)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid must look like 8x8, got {text!r}") from exc


def _parse_bool(text: str) -> bool:
    value = {"true": True, "1": True, "yes": True,
             "false": False, "0": False, "no": False}.get(str(text).lower())
    if value is None:
        raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")
    return value


def _value_type(default):
    """Text-to-value conversion of a RunSpec field, shared by flags and replay."""
    if isinstance(default, bool):
        return _parse_bool
    if isinstance(default, tuple):
        return _parse_grid
    return type(default)


def _int_list(text: str) -> list[int]:
    values = [int(x) for x in str(text).split(",") if x != ""]
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one integer, got {text!r}")
    return values


def _checksum(values: np.ndarray) -> str:
    return hashlib.sha256(values.tobytes()).hexdigest()[:16]


def _forward(run: RunSpec, mode: str):
    """Run one (configuration, mode); returns (output tokens, stream cache or
    None)."""
    if mode == "stream":
        return run_stream(run.tokens(), run.stream_config())
    return forward_offline(run.tokens(), run.aggregator_config(mode)), None


def sweep(runs: list[RunSpec], out_dir: Path) -> tuple[list[dict], list[dict]]:
    """Run every configuration in every mode once; write ``sweep.csv`` and
    ``failures.csv`` (header only when nothing failed) and return
    (sweep rows, failures).  A failed configuration does not stop the rest.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rows, failures = [], []
    for run_id, run in enumerate(runs):
        try:
            run_rows = []
            for mode in MODES:
                out, cache = _forward(run, mode)
                run_rows.append({
                    "run_id": run_id, "mode": mode, **run.row(),
                    "tokens": out.total_tokens,
                    "cache_tokens": 0 if cache is None else cache_report(cache).total_tokens,
                    "checksum": _checksum(out.values)})
        except Exception as exc:  # noqa: BLE001 - manifest, keep going
            failures.append({"run_id": run_id, "error": repr(exc)})
            continue
        rows += run_rows
    _write_csv(out_dir / "sweep.csv", SWEEP_COLUMNS, rows)
    _write_csv(out_dir / "failures.csv", ("run_id", "error"), failures)
    return rows, failures


def run_from_row(row: dict) -> str:
    """Re-execute the configuration recorded in a sweep row; returns the checksum."""
    out, _ = _forward(RunSpec.from_row(row), str(row["mode"]))
    return _checksum(out.values)


def _write_csv(path: Path, columns, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _add_run_flags(p: argparse.ArgumentParser, command: str) -> None:
    """One flag per RunSpec field that ``command`` reads.  ``bench`` takes
    comma lists on the swept axes, whose cartesian product it runs."""
    bench = command == "bench"
    for f in fields(RunSpec):
        if f.name not in _READS[command]:
            continue
        flag = f"--{f.name}"
        if bench and f.name in COLUMN_NAMES:
            p.add_argument(flag, type=_int_list, default=[f.default])
        elif isinstance(f.default, bool):
            # a value is optional so that config lines like ``aux=false`` work
            p.add_argument(flag, type=_parse_bool, nargs="?", const=True,
                           default=f.default)
            p.add_argument(f"--no-{f.name}", dest=f.name, action="store_false")
        else:
            p.add_argument(flag, type=_value_type(f.default), default=f.default,
                           choices=f.metadata.get("choices"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="descattn",
        description="Descriptor-compressed attention benchmarks and checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    # exact flag names only, so a misspelt config key cannot pass as a prefix
    p_verify = sub.add_parser("verify", allow_abbrev=False,
                              help="run the named invariant suite")
    p_verify.add_argument("--seed", default=0, type=int)
    for name, text in (("bench", "checksummed dense/descriptor/stream runs"),
                       ("flops", "analytic FLOP report"),
                       ("stream", "streaming cache occupancy report"),
                       ("histogram", "attention-score histograms")):
        p = sub.add_parser(name, allow_abbrev=False, help=text)
        _add_run_flags(p, name)
        p.add_argument("--out", default=".", type=Path)
        p.add_argument("--config", default=None, type=Path)
    return parser


def _config_tokens(path: Path) -> list[str]:
    """Each ``key=value`` line of a config file as a ``--key=value`` flag."""
    tokens = []
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            tokens.append(f"--{key.strip()}={value.strip()}")
    return tokens


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]):
    """Parse argv with the ``--config`` lines placed ahead of the command-line
    flags, so argparse converts them, explicit flags win (the last value of a
    flag is kept) and an unknown key is a usage error."""
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is None:
        return args
    at = argv.index(args.command) + 1
    return parser.parse_args([*argv[:at], *_config_tokens(args.config), *argv[at:]])


def _runs_from_args(args) -> list[RunSpec]:
    """The cartesian product of the list-valued flags, in field order."""
    given = {f.name: getattr(args, f.name) for f in fields(RunSpec) if hasattr(args, f.name)}
    swept = {k: v for k, v in given.items() if isinstance(v, list)}
    return [RunSpec(**{**given, **dict(zip(swept, values))})
            for values in itertools.product(*swept.values())]


def _cmd_bench(args) -> int:
    runs = _runs_from_args(args)
    rows, failures = sweep(runs, args.out)
    print(f"wrote {len(rows)} sweep rows to {args.out / 'sweep.csv'}")
    if failures:
        print(f"{len(failures)} of {len(runs)} configurations failed; see "
              f"{args.out / 'failures.csv'}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _cmd_flops(args) -> int:
    [run] = _runs_from_args(args)
    dense = analysis.flops_attention(run.aggregator_config("dense"), run.frames)
    desc = analysis.flops_attention(run.aggregator_config("descriptor"), run.frames)
    reduction = dense.attention_core / desc.attention_core

    args.out.mkdir(parents=True, exist_ok=True)
    # per mode: one row per component, then the per-layer and all-layer totals
    rows = [dict(zip(FLOPS_COLUMNS, (r.mode, r.frames, r.k_tokens, r.kd_tokens,
                                     r.layers, name, flops)))
            for r in (dense, desc)
            for name, flops in (*sorted(r.components.items()),
                                ("total_per_layer", r.per_layer_total), ("total", r.total))]
    _write_csv(args.out / "flops.csv", FLOPS_COLUMNS, rows)
    print(f"K={dense.k_tokens} K_d={desc.kd_tokens} "
          f"attention-core reduction K/K_d = {reduction:.2f}x")
    if run.frames in analysis.REFERENCE_RESOURCES["pflops"]["dense"]:
        ref = analysis.reference_end_to_end_reduction(run.frames)
        print(f"published end-to-end reduction at S={run.frames}: {ref:.2f}x "
              "(different counting convention; reported, not reconciled)")
    published = analysis.REFERENCE_RESOURCES
    metrics = {"Time (s)": published["time_s"], "PFLOPs": published["pflops"],
               "Mem (GB)": published["memory_gb"],
               "analytic FLOPs (this config)": {
                   "dense": {run.frames: float(dense.total)},
                   "descriptor": {run.frames: float(desc.total)}}}
    (args.out / "flops.md").write_text(analysis.markdown_resource_table(metrics))
    return EXIT_OK


def _cmd_stream(args) -> int:
    [run] = _runs_from_args(args)
    _, cache = _forward(run, "stream")
    report = cache_report(cache)
    args.out.mkdir(parents=True, exist_ok=True)
    rows = [dict(zip(CACHE_COLUMNS, (s.layer, s.total_tokens, s.compressed_tokens,
                                     s.aux_tokens, s.bytes, f"{s.ratio_vs_full:.8f}")))
            for s in report.layers]
    _write_csv(args.out / "cache_report.csv", CACHE_COLUMNS, rows)
    print(f"frames={report.frames_seen} cache_tokens={report.total_tokens} "
          f"ratio_vs_full={report.ratio_vs_full:.6f}")
    return EXIT_OK


def _cmd_histogram(args) -> int:
    [run] = _runs_from_args(args)
    tokens = run.tokens()
    w = init_block_weights(run.seed, run.channels, run.heads, run.dtype)
    args.out.mkdir(parents=True, exist_ok=True)
    for mode in ("frame", "global"):
        counts, edges = attention_score_histogram(tokens, w, mode)
        rows = [{"bin_lo": f"{edges[i]:.6f}", "bin_hi": f"{edges[i + 1]:.6f}",
                 "count": int(counts[i])} for i in range(len(counts))]
        _write_csv(args.out / f"histogram_{mode}.csv", HISTOGRAM_COLUMNS, rows)
    print(f"wrote histograms to {args.out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(_build_parser(), argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        if args.command == "verify":
            RunSpec(seed=args.seed)  # rejects a negative seed, as the run commands do
            return EXIT_OK if verify.run_all(args.seed) else EXIT_VERIFY
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "flops":
            return _cmd_flops(args)
        if args.command == "stream":
            return _cmd_stream(args)
        if args.command == "histogram":
            return _cmd_histogram(args)
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
