"""The three knowledge bases: TTP store, IOC database, and data model.

All three load from flat files (line-delimited JSON plus ``.wdsl``
sources for TTP bodies) into immutable in-memory stores.  Queries are
index-backed but contractually equivalent to a linear scan of the
underlying file contents.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from importlib import resources
from pathlib import Path
from typing import Iterator, Optional

from .dsl import (
    AstNode,
    DslSyntaxError,
    NodeKind,
    is_technique_id,
    normalize_step,
    parse,
    pretty_print_node,
    text_hash,
    validate,
)
from .dsl.vocab import IOC_TYPES, TACTIC_ORDER
from .globmatch import glob_match

logger = logging.getLogger(__name__)

TTP_SOURCES = ("SME", "MALMO", "GPE")


class StoreError(Exception):
    pass


class FormatError(StoreError):
    """A store file is malformed; carries file and line."""

    def __init__(self, file: str, line: int, message: str):
        self.file = file
        self.line = line
        super().__init__(f"{file}:{line}: {message}")


class ValidationError(StoreError):
    """TTP entries failed DSL validation."""

    def __init__(self, technique_ids: list[str], detail: str = ""):
        self.technique_ids = technique_ids
        suffix = f": {detail}" if detail else ""
        super().__init__(f"invalid TTP entries {technique_ids}{suffix}")


class UnknownIocType(StoreError):
    def __init__(self, ioc_type: str):
        self.ioc_type = ioc_type
        super().__init__(f"unknown ioc_type {ioc_type!r} (expected one of {IOC_TYPES})")


def _decode(data: bytes, path, first_line: int) -> str:
    """``data`` decoded as UTF-8; a byte that is not UTF-8 raises
    :class:`FormatError` at its line, counting lines from ``first_line``."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = first_line + data.count(b"\n", 0, exc.start)
        column = exc.start - (data.rfind(b"\n", 0, exc.start) + 1)
        raise FormatError(str(path), line, f"not UTF-8: {exc.reason} at byte {column}") from None


def read_text(path: Path, digest=None) -> str:
    """A whole text file (a ``.wdsl`` source, a JSON document, a
    technique description) decoded as UTF-8 with universal newlines, as
    ``Path.read_text`` reads it; a byte that is not UTF-8 raises
    :class:`FormatError` at ``file:line``.  ``digest``, a ``hashlib``
    object, if given, is fed the bytes read."""
    data = Path(path).read_bytes()
    if digest is not None:
        digest.update(data)
    text = _decode(data, path, 1)
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse_json(text: str, path) -> object:
    """One JSON document read from ``path``; a syntax error raises
    :class:`FormatError` at ``file:line``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(str(path), exc.lineno, exc.msg) from None


#: The C scanner ``json.loads`` runs, called directly: one JSON value
#: from an index, without the whitespace and extra-data wrappers.
_scan_value = json.JSONDecoder().scan_once
_LINE_ENDS = ("\n", "", "\r\n")


def read_jsonl(path: Path, digest=None, start: int = 0, end: Optional[int] = None) -> Iterator[tuple[int, dict]]:
    """``(line number, object)`` for each non-blank line of a JSON-lines
    file, read one line at a time; a line that is not UTF-8 or not a
    JSON object raises :class:`FormatError`.  ``digest``, a ``hashlib``
    object, if given, is fed every byte read.  ``start`` and ``end``, byte
    offsets at line starts, read the bytes between them only (``end``
    ``None``: to the end of the file), lines numbered from 1 at
    ``start``.

    Lines end at ``\n`` only, so a JSON string may hold any other line
    separator (U+2028, U+0085) raw; a ``\r`` before the ``\n`` is JSON
    whitespace.

    A line that is one JSON object and then its line end is taken from
    one call of the C scanner.  Every other line (blank, with a BOM or
    other whitespace around the object, extra data, not an object, not
    JSON) goes to ``json.loads``, so each object read and each error
    message is the one ``json.loads`` gives."""
    with open(path, "rb") as handle:
        handle.seek(start)
        for lineno, raw in enumerate(handle if end is None else _lines_within(handle, end - start), start=1):
            if digest is not None:
                digest.update(raw)
            try:
                text = raw.decode()
            except UnicodeDecodeError:
                _decode(raw, path, lineno)  # raises at the byte
            try:
                doc, scanned = _scan_value(text, 0)
            except (StopIteration, ValueError):
                doc = None
            if type(doc) is not dict or text[scanned:] not in _LINE_ENDS:
                doc = _load_line(text, path, lineno)
                if doc is None:
                    continue
            yield lineno, doc


def _lines_within(handle, size: int) -> Iterator[bytes]:
    """The lines of ``handle`` within the next ``size`` bytes from where
    it stands, the last one cut at that end if it runs past it."""
    while size > 0:
        raw = handle.readline(size)
        if not raw:
            return
        yield raw
        size -= len(raw)


def _load_line(text: str, path, lineno: int) -> Optional[dict]:
    """The object of one line by ``json.loads``; ``None`` for a blank line."""
    if not text.strip():
        return None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(str(path), lineno, exc.msg) from None
    if not isinstance(doc, dict):
        raise FormatError(str(path), lineno, "expected a JSON object")
    return doc


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DataModel:
    """Observable-object classes and their variables.  ``sha256`` is the
    digest of the file it was loaded from, if any."""

    variables_by_class: dict[str, tuple[str, ...]]
    sha256: Optional[str] = field(default=None, compare=False)

    # Built on first use and kept: the classes never change.
    @cached_property
    def variable_sets(self) -> dict[str, frozenset[str]]:
        """Each class's variables as a set, as ``validate`` reads them."""
        return {cls: frozenset(variables) for cls, variables in self.variables_by_class.items()}

    @classmethod
    def from_json(cls, doc: dict, file: str = "<memory>") -> "DataModel":
        classes = doc.get("classes") if isinstance(doc, dict) else None
        if not isinstance(classes, list):
            raise FormatError(file, 1, "data model needs a 'classes' list")
        out: dict[str, tuple[str, ...]] = {}
        for entry in classes:
            if not isinstance(entry, dict):
                raise FormatError(file, 1, "class entry must be a JSON object")
            name = entry.get("class_name")
            variables = entry.get("variables", [])
            if not isinstance(name, str) or not name:
                raise FormatError(file, 1, "class entry missing class_name")
            if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
                raise FormatError(file, 1, f"variables of class {name!r} must be a list of names")
            if name in out:
                raise FormatError(file, 1, f"duplicate class {name!r}")
            if len(set(variables)) != len(variables):
                raise FormatError(file, 1, f"duplicate variable in class {name!r}")
            out[name] = tuple(variables)
        return cls(out)

    @classmethod
    def load(cls, path: Path) -> "DataModel":
        digest = hashlib.sha256()
        model = cls.from_json(parse_json(read_text(path, digest), path), str(path))
        return replace(model, sha256=digest.hexdigest())

    @classmethod
    def default(cls) -> "DataModel":
        text = resources.files("wilee").joinpath("data/data_model.json").read_text("utf-8")
        return cls.from_json(json.loads(text), "wilee/data/data_model.json")


@cache
def _ioc_type_map() -> dict[str, str]:
    """Variable-name to ioc_type bridge used for template filling and
    indicator perturbation, keyed by lowercased variable name."""
    text = resources.files("wilee").joinpath("data/ioc_type_map.json").read_text("utf-8")
    return {k.lower(): v for k, v in json.loads(text).items()}


def ioc_type_for_variable(variable: str) -> Optional[str]:
    """The ioc_type of ``variable``, matched case-insensitively."""
    return _ioc_type_map().get(variable.lower())


# ---------------------------------------------------------------------------
# IOC database
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IocRecord:
    ioc_type: str
    value: str
    technique_id: Optional[str] = None
    source: str = "manual"


@dataclass(frozen=True)
class IocDb:
    """Indicator records.  ``sha256`` is the digest of the file it was
    loaded from, if any."""

    records: tuple[IocRecord, ...] = ()
    sha256: Optional[str] = field(default=None, compare=False)

    @classmethod
    def load(cls, path: Path) -> "IocDb":
        records: list[IocRecord] = []
        seen: set[tuple[str, str]] = set()
        digest = hashlib.sha256()
        for lineno, doc in read_jsonl(path, digest):
            ioc_type = doc.get("ioc_type")
            value = doc.get("value")
            if ioc_type not in IOC_TYPES:
                raise FormatError(str(path), lineno, f"unknown ioc_type {ioc_type!r}")
            if not isinstance(value, str) or not value:
                raise FormatError(str(path), lineno, "value must be a non-empty string")
            technique_id = doc.get("technique_id")
            if technique_id is not None and not isinstance(technique_id, str):
                raise FormatError(str(path), lineno, "technique_id must be a string")
            key = (ioc_type, value)
            if key in seen:
                logger.warning("%s:%d: duplicate IOC %r dropped (keeping earliest)", path, lineno, key)
                continue
            seen.add(key)
            records.append(
                IocRecord(
                    ioc_type=ioc_type,
                    value=value,
                    technique_id=technique_id,
                    source=doc.get("source", "manual"),
                )
            )
        return cls(tuple(records), digest.hexdigest())

    def by_type(self, ioc_type: str) -> tuple[IocRecord, ...]:
        """The records of ``ioc_type``, in file order."""
        if ioc_type not in IOC_TYPES:
            raise UnknownIocType(ioc_type)
        return self._types.get(ioc_type, ())

    # Built on first use and kept: the records never change.
    @cached_property
    def _types(self) -> dict[str, tuple[IocRecord, ...]]:
        grouped: dict[str, list[IocRecord]] = {}
        for r in self.records:
            grouped.setdefault(r.ioc_type, []).append(r)
        return {ioc_type: tuple(records) for ioc_type, records in grouped.items()}

    @cached_property
    def resolved(self) -> dict:
        """What each bind resolves to against this database, kept by
        whoever resolves it (see :func:`wilee.hunt.memo_key`), so a bind
        is resolved once for the database's lifetime."""
        return {}


def resolve_bind(
    db: IocDb, ioc_type: str, technique: Optional[str] = None, pattern: Optional[str] = None
) -> list[IocRecord]:
    """All records of ``ioc_type``, kept when their technique is
    ``technique`` (if given) and their value matches the glob
    ``pattern`` (if given), ordered by value ascending."""
    matches = [
        r
        for r in db.by_type(ioc_type)
        if (technique is None or r.technique_id == technique)
        and (pattern is None or glob_match(pattern, r.value))
    ]
    matches.sort(key=lambda r: r.value)
    return matches


# ---------------------------------------------------------------------------
# TTP store
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TtpRecord:
    technique_id: str
    tactic_tags: tuple[str, ...]
    source: str
    ast: AstNode  # FunctionDef

    # Computed on first access and kept: the tree never changes.
    @cached_property
    def text(self) -> str:
        """The function's canonical text; a module's ``pretty_print`` is
        its functions' texts joined by ``"\\n"``."""
        return pretty_print_node(self.ast)

    @cached_property
    def ast_hash(self) -> str:
        return text_hash(self.text)

    @cached_property
    def record_id(self) -> str:
        return f"{self.technique_id}:{self.source}:{self.ast_hash}"


@dataclass
class TtpStore:
    """TTP implementations indexed by technique id and tactic tag,
    admitted and deduplicated by :func:`load_stores`.  ``files`` maps
    each file it was read from (the ``.wdsl`` bodies in index order,
    then the index) to the SHA-256 of the bytes read."""

    records: list[TtpRecord] = field(default_factory=list)
    files: dict[Path, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)

    def tactics_present(self) -> list[str]:
        """Distinct known tactics in canonical kill-chain order."""
        present = {tag for r in self.records for tag in r.tactic_tags if tag in TACTIC_ORDER}
        return sorted(present, key=lambda t: TACTIC_ORDER[t])


def is_abstract(fn: AstNode) -> bool:
    """Whether a function body holds an abstract step call."""
    return any(stmt.kind is NodeKind.ABSTRACT_CALL for stmt in fn.children)


def _admission_problems(fn: AstNode, model: Optional[DataModel]) -> list[str]:
    """Why a TTP body may not enter a store: its validation diagnostics,
    or else that it is abstract.  Empty when it may."""
    diagnostics = validate(fn, model)
    if diagnostics:
        return [str(d) for d in diagnostics]
    if is_abstract(fn):
        return ["TTP bodies must be concrete, not abstract calls"]
    return []


def ttps_for_step(store: TtpStore, step) -> list[TtpRecord]:
    """Records matching one workflow step.

    Technique-id steps match exactly; tactic steps match any record
    tagged with the tactic; anything else matches nothing.  Results are
    ordered by (technique_id, content hash, source) so downstream
    expansion is deterministic.
    """
    name = step.attrs["step"] if isinstance(step, AstNode) else step
    if is_technique_id(name):
        matches = [r for r in store.records if r.technique_id == name]
    elif name in TACTIC_ORDER:
        matches = [r for r in store.records if name in r.tactic_tags]
    else:
        matches = []
    matches.sort(key=lambda r: (r.technique_id, r.ast_hash, r.source))
    return matches


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StorePaths:
    ttp_index: Optional[Path] = None
    ioc_db: Optional[Path] = None
    data_model: Optional[Path] = None


def ttp_index_file(path: Path) -> Path:
    """The index file of a TTP store given as ``path``: a directory
    means its ``index.jsonl``."""
    path = Path(path)
    return path / "index.jsonl" if path.is_dir() else path


def _load_ttp_store(index_path: Path, model: DataModel) -> TtpStore:
    index_path = ttp_index_file(index_path)
    base = index_path.parent
    store = TtpStore()
    seen: set[str] = set()
    invalid: list[str] = []
    details: list[str] = []
    index_digest = hashlib.sha256()
    for lineno, doc in read_jsonl(index_path, index_digest):
        technique_id = doc.get("technique_id")
        rel = doc.get("path")
        if not isinstance(technique_id, str) or not is_technique_id(technique_id):
            raise FormatError(str(index_path), lineno, f"bad technique_id {technique_id!r}")
        if not isinstance(rel, str):
            raise FormatError(str(index_path), lineno, "entry needs a 'path' to a .wdsl file")
        source = doc.get("source", "SME")
        if source not in TTP_SOURCES:
            raise FormatError(str(index_path), lineno, f"unknown source {source!r}")
        tags = doc.get("tactic_tags", [])
        if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
            raise FormatError(str(index_path), lineno, "tactic_tags must be a list of strings")
        digest = hashlib.sha256()
        fn = _read_ttp_function(base / rel, technique_id, index_path, lineno, digest)
        store.files[base / rel] = digest.hexdigest()
        record = TtpRecord(
            technique_id=technique_id,
            tactic_tags=tuple(tags),
            source=source,
            ast=fn,
        )
        problems = _admission_problems(fn, model)
        if problems:
            invalid.append(technique_id)
            details.extend(f"{technique_id}: {problem}" for problem in problems)
            continue
        if record.record_id in seen:
            logger.warning("%s:%d: duplicate TTP record %s ignored", index_path, lineno, record.record_id)
            continue
        seen.add(record.record_id)
        store.records.append(record)
    if invalid:
        raise ValidationError(invalid, "; ".join(details))
    store.files[index_path] = index_digest.hexdigest()
    return store


def _read_ttp_function(path: Path, technique_id: str, index_path: Path, lineno: int, digest) -> AstNode:
    try:
        text = read_text(path, digest)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        reason = getattr(exc, "strerror", None) or exc
        raise FormatError(str(index_path), lineno, f"cannot read {path}: {reason}") from None
    try:
        tree = parse(text)
    except DslSyntaxError as exc:
        raise FormatError(str(path), exc.line, f"syntax error at {exc}") from None
    wanted = [
        fn
        for fn in tree.children
        if normalize_step(fn.attrs.get("name", "")) == technique_id
    ]
    if not wanted:
        raise FormatError(
            str(index_path),
            lineno,
            f"{path} defines no function for technique {technique_id}",
        )
    return wanted[0]


def load_stores(paths: StorePaths) -> tuple[TtpStore, IocDb, DataModel]:
    """Load all three stores.  Missing paths yield an empty TTP store,
    an empty IOC database, and the shipped default data model."""
    model = DataModel.load(paths.data_model) if paths.data_model else DataModel.default()
    ioc_db = IocDb.load(paths.ioc_db) if paths.ioc_db else IocDb()
    store = _load_ttp_store(paths.ttp_index, model) if paths.ttp_index else TtpStore()
    return store, ioc_db, model
