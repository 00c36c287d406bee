"""Command-line entry point orchestrating the pipeline.

Subcommands: ``validate`` (parse + check DSL files), ``hunt`` (describe
-> concretize -> query -> match -> report), ``malmo`` (draft DSL from a
technique description), ``perturb`` (evolve variants of an
implementation).  Every run is deterministic given identical inputs and
seeds; output directories carry a ``manifest.json`` with content hashes
for audit.

Exit codes: 0 success, 3 combination cap exceeded, 130 interrupted hunt
(partial report).  Commands raise; :func:`main` maps each error to its
code and prints ``error: <message>``:

* 1 diagnostics: invalid TTP store entry, ``.wdsl`` syntax error, not a
  threat description, kill-chain hunt over an empty store;
* 2 I/O: malformed or non-UTF-8 input (``file:line``), unreadable event
  log, missing input, output path unusable (``--out`` naming a file);
* 4 no classes selected by malmo; 5 bad perturbation config.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import logging
import os
import sys
from pathlib import Path
from typing import Optional

from . import __version__
from .dsl import (
    DescriptionError,
    DslSyntaxError,
    ThreatDescription,
    normalize_step,
    parse,
    pretty_print_node,
    step_identifier,
    validate,
)
from .dsl.vocab import is_identifier
from .gpe import ConfigError, GpeConfig, export_archive, run_gpe
from .hunt import NdjsonProxy, ProxyUnavailable, evaluate, memo_key, render_report, schedule
from .interpreter import EmptyStore, concretize, default_killchain
from .malmo import (
    NoClassesSelected,
    generate_dsl,
    mine_relation_priors,
    scores_to_json,
    untagged_token,
)
from .stores import FormatError, StorePaths, ValidationError, load_stores, parse_json, read_text

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_IO = 2
EXIT_CAP = 3
EXIT_NO_CLASSES = 4
EXIT_CONFIG = 5

_LOG_LEVELS = {"error": logging.ERROR, "warning": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    level = os.environ.get("WILEE_LOG_LEVEL", "error").lower()
    logging.basicConfig(
        level=_LOG_LEVELS.get(level, logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _write_manifest(
    out: Path, command: str, args: dict, digests: dict[str, str], outputs: list[Path], partial: bool = False
) -> None:
    """``digests`` is the command's one map of the inputs it read, each
    path to the SHA-256 of the bytes its reader parsed (see
    ``stores.read_text`` and ``NdjsonProxy.sha256``), so the manifest
    names the bytes the command used; only the outputs are read here."""
    manifest = {
        "command": command,
        "args": {
            k: str(v) if isinstance(v, Path) else v
            for k, v in args.items()
            if not callable(v)
        },
        "partial": partial,
        "inputs": digests,
        "outputs": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", "utf-8")


def _store_paths(args) -> StorePaths:
    return StorePaths(
        ttp_index=getattr(args, "ttp_store", None),
        ioc_db=getattr(args, "ioc_db", None),
        data_model=getattr(args, "data_model", None),
    )


@contextlib.contextmanager
def _in_file(path: Path):
    """Prefix a syntax or description error raised inside with the
    ``path`` it came from: ``path:line:col: ...`` or ``path: ...``."""
    try:
        yield
    except (DslSyntaxError, DescriptionError) as exc:
        located = isinstance(exc, DslSyntaxError)  # its text starts with line:col
        exc.args = (f"{path}:{exc}" if located else f"{path}: {exc}",)
        raise


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    _, _, model = load_stores(_store_paths(args))
    problems = 0
    for file in args.files:
        try:
            tree = parse(read_text(file))
        except DslSyntaxError as exc:
            print(f"{file}:{exc}", file=sys.stderr)
            problems += 1
            continue
        for diag in validate(tree, model):
            print(f"{file}: {diag}", file=sys.stderr)
            problems += 1
    return EXIT_DIAGNOSTICS if problems else EXIT_OK


# ---------------------------------------------------------------------------
# hunt
# ---------------------------------------------------------------------------


def cmd_hunt(args) -> int:
    digests: dict[str, str] = {}
    store, ioc_db, model = load_stores(_store_paths(args), digests)
    desc = None
    if args.desc:
        with _in_file(args.desc):
            desc = ThreatDescription.from_module(parse(read_text(args.desc, digests)))
    if desc is None or not desc.steps:
        # No description (or an empty one): hunt the full kill-chain.
        desc = default_killchain(store)

    result = concretize(desc, store)
    for diag in result.diagnostics:
        print(f"concretize: {diag}", file=sys.stderr)
    if any(d.code == "cap-exceeded" for d in result.diagnostics):
        return EXIT_CAP

    # Every query is known before the log is opened, so the one read
    # keeps only the events some query asks for.
    scheduled = [(impl, schedule(impl, model)) for impl in result.implementations]
    proxy = NdjsonProxy(args.events, {memo_key(q, ioc_db) for _, descriptors in scheduled for q in descriptors})
    digests[str(args.events)] = proxy.sha256
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = []
    partial = False
    try:
        for impl, descriptors in scheduled:
            results.append(evaluate(impl, descriptors, proxy, ioc_db))
    except KeyboardInterrupt:
        partial = True

    fmt = "markdown" if args.format == "md" else "json"
    report = render_report(results, fmt, title=desc.name, partial=partial)
    report_path = out / ("report.md" if fmt == "markdown" else "report.json")
    report_path.write_text(report, "utf-8")
    _write_manifest(out, "hunt", vars(args), digests, [report_path], partial=partial)
    confirmed = sum(1 for r in results if r.confirmed)
    print(f"{len(results)} implementation(s) evaluated, {confirmed} confirmed; report at {report_path}")
    return 130 if partial else EXIT_OK


# ---------------------------------------------------------------------------
# malmo
# ---------------------------------------------------------------------------


def _read_technique(path: Path, digests: dict[str, str]) -> tuple[str, str, bool]:
    """Returns (technique_id, description, pretagged).  A JSON
    description is pretagged when its ``pretagged`` is ``true``, and
    then every token must be ``word/TAG``; a plain-text one when every
    token is."""
    text = read_text(path, digests)
    if path.suffix == ".json" or text.lstrip().startswith("{"):
        doc = parse_json(text, path)
        if not isinstance(doc, dict):
            raise FormatError(str(path), 1, "technique file must hold a JSON object")
        if not isinstance(doc.get("id"), str) or not isinstance(doc.get("description"), str):
            raise FormatError(str(path), 1, "technique needs string 'id' and 'description'")
        technique, text, pretagged = doc["id"], doc["description"], doc.get("pretagged", False)
        if not isinstance(pretagged, bool):
            raise FormatError(str(path), 1, "'pretagged' must be true or false")
        if pretagged and (token := untagged_token(text)) is not None:
            raise FormatError(str(path), 1, f"not a word/TAG token: {token!r}")
    else:
        technique, pretagged = normalize_step(path.stem), untagged_token(text) is None
    if not is_identifier(step_identifier(technique)):
        raise FormatError(str(path), 1, f"technique id {technique!r} cannot name a DSL function")
    return technique, text, pretagged


def cmd_malmo(args) -> int:
    digests: dict[str, str] = {}
    store, ioc_db, model = load_stores(_store_paths(args), digests)
    technique_id, description, pretagged = _read_technique(Path(args.technique), digests)
    priors = mine_relation_priors(store)
    fn, scores = generate_dsl(
        technique_id, description, model, ioc_db, priors, n=args.top_n, pretagged=pretagged
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dsl_path = out / f"{fn.attrs['name']}.wdsl"
    dsl_path.write_text(pretty_print_node(fn), "utf-8")
    scores_path = out / "scores.json"
    scores_path.write_text(json.dumps(scores_to_json(scores), indent=2) + "\n", "utf-8")
    _write_manifest(out, "malmo", vars(args), digests, [dsl_path, scores_path])
    print(f"wrote {dsl_path} and {scores_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# perturb
# ---------------------------------------------------------------------------


def cmd_perturb(args) -> int:
    digests: dict[str, str] = {}
    config = GpeConfig.from_json(args.config, digests) if args.config else GpeConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    store, ioc_db, model = load_stores(_store_paths(args), digests)
    with _in_file(args.impl):
        tree = parse(read_text(args.impl, digests))
    diagnostics = validate(tree, model)
    if diagnostics:
        for diag in diagnostics:
            print(f"{args.impl}: {diag}", file=sys.stderr)
        return EXIT_DIAGNOSTICS

    fitness_fn = None
    if args.events:
        proxy = NdjsonProxy(args.events)
        digests[str(args.events)] = proxy.sha256

        def fitness_fn(candidate_tree, impl, descriptors):
            return evaluate(impl, descriptors, proxy, ioc_db).score

    result = run_gpe(tree, config, fitness_fn=fitness_fn, model=model, ioc_db=ioc_db)
    out = Path(args.out)
    archive_dir = out / "archive"
    written = export_archive(result, archive_dir)
    summary_path = out / "run.json"
    summary_path.write_text(
        json.dumps(
            {
                "archived": len(result.archive),
                "generations": config.generations,
                "population_size": config.population_size,
                "seed": config.seed,
                "best_fitness_history": result.history,
                "rho_trace": result.rho_trace,
            },
            indent=2,
        )
        + "\n",
        "utf-8",
    )
    _write_manifest(out, "perturb", vars(args), digests, written + [summary_path])
    print(f"archived {len(result.archive)} candidate(s) under {archive_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_store_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--ttp-store", type=Path, help="TTP store index (.jsonl) or its directory")
    sub.add_argument("--ioc-db", type=Path, help="IOC database (.jsonl)")
    sub.add_argument("--data-model", type=Path, help="data model JSON (default: shipped snapshot)")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wilee", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"wilee {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_validate = subs.add_parser("validate", help="parse and validate DSL files")
    p_validate.add_argument("files", nargs="+", type=Path)
    p_validate.add_argument("--data-model", type=Path)
    p_validate.set_defaults(func=cmd_validate)

    p_hunt = subs.add_parser("hunt", help="run the hunt pipeline over an event log")
    _add_store_flags(p_hunt)
    p_hunt.add_argument("--events", type=Path, required=True, help="event log (.ndjson)")
    p_hunt.add_argument("--desc", type=Path, help="threat description .wdsl (default: full kill-chain)")
    p_hunt.add_argument("--out", type=Path, required=True)
    p_hunt.add_argument("--format", choices=("md", "json"), default="json")
    p_hunt.set_defaults(func=cmd_hunt)

    p_malmo = subs.add_parser("malmo", help="generate DSL from a technique description")
    _add_store_flags(p_malmo)
    p_malmo.add_argument("technique", type=Path, help="technique JSON ({id, name, description}) or plain text")
    p_malmo.add_argument("--top-n", type=_positive_int, default=5)
    p_malmo.add_argument("--out", type=Path, required=True)
    p_malmo.set_defaults(func=cmd_malmo)

    p_perturb = subs.add_parser("perturb", help="evolve variants of an implementation")
    _add_store_flags(p_perturb)
    p_perturb.add_argument("impl", type=Path, help="implementation .wdsl to perturb")
    p_perturb.add_argument("--config", type=Path, help="GPE config JSON")
    p_perturb.add_argument("--seed", type=int, help="override the config RNG seed")
    p_perturb.add_argument("--events", type=Path, help="event log for fitness scoring (optional)")
    p_perturb.add_argument("--out", type=Path, required=True)
    p_perturb.set_defaults(func=cmd_perturb)
    return parser


_NO_CLASSES_HINT = (
    "Nothing in the description matched any data-model class; "
    "check the description text or extend the data model."
)


def _fail(message: object, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command.  This is the one place an error becomes an exit
    code; any other exception is a bug and keeps its traceback."""
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, DslSyntaxError, DescriptionError, EmptyStore) as exc:
        return _fail(exc, EXIT_DIAGNOSTICS)
    except (FormatError, ProxyUnavailable, OSError) as exc:
        return _fail(exc, EXIT_IO)
    except NoClassesSelected as exc:
        return _fail(f"{exc}\n{_NO_CLASSES_HINT}", EXIT_NO_CLASSES)
    except ConfigError as exc:
        return _fail(exc, EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
