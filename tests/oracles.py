"""Independent brute-force oracles.

Each oracle restates its contract from first principles (plain loops,
regex translation, exhaustive enumeration) and shares no code with the
implementation it checks.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from datetime import datetime, timedelta, timezone
from typing import Optional

from wilee.dsl import NodeKind
from wilee.dsl.parser import DslSyntaxError, Token, TokenType
from wilee.hunt.graph import EvidenceGraph, GraphEdge
from wilee.hunt.matcher import Obligation
from wilee.hunt.query import (
    BindSpec,
    Predicate,
    QueryDescriptor,
    RelationRef,
    UnknownClass,
    UnknownVariable,
)
from wilee.interpreter import implementation_from_module


# ---------------------------------------------------------------------------
# Glob / query execution
# ---------------------------------------------------------------------------


def oracle_glob_match(pattern: str, value: str) -> bool:
    regex = ".*".join(re.escape(part) for part in pattern.split("*"))
    flags = re.DOTALL
    if "\\" in pattern or "\\" in value:
        flags |= re.IGNORECASE
    return re.fullmatch(regex, value, flags) is not None


def _oracle_value_matches(candidate: str, actual: str) -> bool:
    if "*" in candidate:
        return oracle_glob_match(candidate, actual)
    return candidate == actual


def oracle_resolve_bind(records, ioc_type, technique=None, pattern=None):
    out = []
    for record in records:
        if record.ioc_type != ioc_type:
            continue
        if technique is not None and record.technique_id != technique:
            continue
        if pattern is not None and not oracle_glob_match(pattern, record.value):
            continue
        out.append(record)
    return sorted(out, key=lambda r: r.value)


def oracle_execute(descriptor, events, ioc_records) -> list[str]:
    """Full scan with regex-translated globs; returns event ids."""
    matched = []
    for event in events:
        if event["entity_class"] != descriptor.entity_class:
            continue
        ok = True
        for predicate in descriptor.predicates:
            actual = event.get("fields", {}).get(predicate.variable)
            if actual is None:
                ok = False
                break
            value = predicate.value
            if hasattr(value, "ioc_type"):  # a bind
                candidates = oracle_resolve_bind(
                    ioc_records, value.ioc_type, value.technique, value.pattern
                )
                if not any(_oracle_value_matches(c.value, actual) for c in candidates):
                    ok = False
                    break
            elif predicate.op == "glob":
                if not oracle_glob_match(value, actual):
                    ok = False
                    break
            elif actual != value:
                ok = False
                break
        if ok:
            matched.append(event["event_id"])
    return matched


# ---------------------------------------------------------------------------
# Event-log read
# ---------------------------------------------------------------------------


def oracle_read_jsonl(path) -> tuple[list[tuple[int, dict]], Optional[tuple[int, str]]]:
    """The objects of a JSON-lines file, one ``json.loads`` per non-blank
    line, as ``(line number, object)``, and the first fault as
    ``(line number, message)`` or ``None``; the read stops at the fault."""
    docs = []
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:  # the line holds no earlier "\n"
                return docs, (lineno, f"not UTF-8: {exc.reason} at byte {exc.start}")
            if not text.strip():
                continue
            try:
                doc = json.loads(text)
            except json.JSONDecodeError as exc:
                return docs, (lineno, exc.msg)
            if not isinstance(doc, dict):
                return docs, (lineno, "expected a JSON object")
            docs.append((lineno, doc))
    return docs, None


def _oracle_moment(value: str) -> datetime:
    """An RFC 3339 date-time, read field by field: ``YYYY-MM-DD``, ``T``,
    ``t`` or a space, ``hh:mm:ss``, an optional fraction, then ``Z``,
    ``z``, ``+hh:mm``, ``-hh:mm`` or nothing (UTC)."""

    def digits(text: str) -> bool:
        return text.isascii() and text.isdigit()

    date, sep, clock, rest = value[:10], value[10:11], value[11:19], value[19:]
    if rest.startswith("."):
        end = 1
        while end < len(rest) and digits(rest[end]):
            end += 1
        fraction, rest = rest[:end], rest[end:]
    else:
        fraction = None
    well_formed = (
        len(date) == 10
        and date[4] == date[7] == "-"
        and digits(date[:4] + date[5:7] + date[8:])
        and sep in ("T", "t", " ")
        and len(clock) == 8
        and clock[2] == clock[5] == ":"
        and digits(clock[:2] + clock[3:5] + clock[6:])
        and fraction != "."
        and (
            rest in ("", "Z", "z")
            or (len(rest) == 6 and rest[0] in "+-" and rest[3] == ":" and digits(rest[1:3] + rest[4:]))
        )
    )
    if not well_formed:
        raise ValueError(f"Invalid isoformat string: {value!r}")
    # Digits past microseconds are dropped, as Python 3.11 drops them.
    micro = int(fraction[1:7].ljust(6, "0")) if fraction else 0
    offset = timedelta(0)
    if rest not in ("", "Z", "z"):
        offset = (1 if rest[0] == "+" else -1) * timedelta(hours=int(rest[1:3]), minutes=int(rest[4:]))
    year, month, day = int(date[:4]), int(date[5:7]), int(date[8:])
    hour, minute, second = int(clock[:2]), int(clock[3:5]), int(clock[6:])
    return datetime(year, month, day, hour, minute, second, micro, tzinfo=timezone(offset))


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def oracle_micros(moment: datetime) -> int:
    """A moment as the library keeps it: the whole microseconds from the
    Unix epoch to the instant.  The oracles reckon with ``datetime`` and
    ``timedelta``, and convert only where they meet library values."""
    return (moment - _EPOCH) // _MICROSECOND


def _oracle_gap(a: int, b: int) -> timedelta:
    """The time between two library moments."""
    return abs(a - b) * _MICROSECOND


def _oracle_event(doc: dict) -> dict:
    """An event line's attributes, checked in the read's order."""
    fields = doc.get("fields", {})
    if not isinstance(fields, dict):
        raise ValueError("'fields' must be a JSON object")
    links = []
    if "links" in doc:
        if not isinstance(doc["links"], list):
            raise ValueError("'links' must be a list")
        for i, link in enumerate(doc["links"], 1):
            if not isinstance(link, dict):
                raise ValueError(f"link {i} must be a JSON object")
            for key in ("verb", "target"):
                if key not in link:
                    raise ValueError(f"link {i} has no {key!r}")
            links.append((str(link["verb"]), str(link["target"])))
    for key in ("event_id", "timestamp", "host", "entity_class"):
        if key not in doc:
            raise ValueError(f"missing {key!r}")
    return {
        "event_id": str(doc["event_id"]),
        "timestamp": str(doc["timestamp"]),
        "host": str(doc["host"]),
        "entity_class": str(doc["entity_class"]),
        "fields": {k: v if isinstance(v, str) else json.dumps(v) for k, v in fields.items()},
        "links": tuple(links),
        "moment": _oracle_moment(str(doc["timestamp"])),
    }


def _oracle_passes(fields: dict, filt) -> bool:
    for variable, exact, globs in filt:
        if variable not in fields:
            return False
        value = fields[variable]
        if value not in exact and not any(oracle_glob_match(g, value) for g in globs):
            return False
    return True


def oracle_read_events(path, keys=()) -> tuple[dict[str, list[dict]], dict, Optional[str]]:
    """The event log read line by line: each event's attributes by class
    in log order, the events each ``(entity_class, filter)`` key passes,
    and the first fault as ``file:line: message`` (or ``None``).  A fault
    is a line :func:`oracle_read_jsonl` rejects, a failed event check or a
    repeated ``event_id``."""
    docs, fault = oracle_read_jsonl(path)
    by_class: dict[str, list[dict]] = {}
    hits = {key: [] for key in keys}
    seen = set()
    for lineno, doc in docs:
        try:
            event = _oracle_event(doc)
        except ValueError as exc:
            return by_class, hits, f"{path}:{lineno}: {exc}"
        if event["event_id"] in seen:
            return by_class, hits, f"{path}:{lineno}: duplicate event_id {event['event_id']!r}"
        seen.add(event["event_id"])
        by_class.setdefault(event["entity_class"], []).append(event)
        for key in hits:
            if key[0] == event["entity_class"] and _oracle_passes(event["fields"], key[1]):
                hits[key].append(event)
    return by_class, hits, fault and f"{path}:{fault[0]}: {fault[1]}"


# ---------------------------------------------------------------------------
# Concretization counting
# ---------------------------------------------------------------------------

_TECHNIQUE_RE = re.compile(r"^T\d{4}(\.\d{3})?$")


def oracle_step_matches(records, step_name, known_tactics) -> list:
    if _TECHNIQUE_RE.match(step_name):
        return [r for r in records if r.technique_id == step_name]
    if step_name in known_tactics:
        return [r for r in records if step_name in r.tactic_tags]
    return []


def oracle_concretize_count(records, step_names, known_tactics) -> int:
    count = 1
    for step in step_names:
        count *= len(oracle_step_matches(records, step, known_tactics))
    return count


def oracle_enumerate_combinations(records, step_names, known_tactics) -> list[tuple]:
    pools = [oracle_step_matches(records, s, known_tactics) for s in step_names]
    if any(not pool for pool in pools):
        return []
    return list(itertools.product(*pools))


# ---------------------------------------------------------------------------
# Scoring formulas (own splitter / stemmer / loops)
# ---------------------------------------------------------------------------


def oracle_split(identifier: str) -> list[str]:
    out = []
    for chunk in identifier.split("_"):
        word = ""
        prev_upper = False
        for i, ch in enumerate(chunk):
            upper = ch.isupper()
            nxt_lower = i + 1 < len(chunk) and chunk[i + 1].islower()
            if word and upper and (not prev_upper or nxt_lower):
                out.append(word.lower())
                word = ""
            word += ch
            prev_upper = upper
        if word:
            out.append(word.lower())
    return out


def oracle_stem(word: str) -> str:
    if len(word) > 4 and word.endswith("ies"):
        return word[:-3] + "y"
    if word.endswith("ss") or word.endswith("us") or word.endswith("is"):
        return word
    for suffix in ("ches", "shes", "xes", "zes", "sses"):
        if len(word) > 3 and word.endswith(suffix):
            return word[:-2]
    if len(word) > 3 and word.endswith("s"):
        return word[:-1]
    return word


def oracle_word_frequency(variables_by_class) -> dict[str, int]:
    freq: dict[str, int] = {}
    for class_name, variables in variables_by_class.items():
        for identifier in [class_name, *variables]:
            for word in oracle_split(identifier):
                freq[word] = freq.get(word, 0) + 1
    return freq


def oracle_word_match_value(phrase_words, variable, freq) -> float:
    variable_words = oracle_split(variable)
    if not variable_words:
        return 0.0
    matched_surfaces = []
    used = set()
    for pw in phrase_words:
        s = oracle_stem(pw)
        if s in used:
            continue
        for vw in variable_words:
            if oracle_stem(vw) == s:
                matched_surfaces.append(vw)
                used.add(s)
                break
    if not matched_surfaces:
        return 0.0
    importance = sum(1.0 / freq.get(w, 1) for w in matched_surfaces) / len(matched_surfaces)
    return importance * (len(matched_surfaces) / len(variable_words) * 100.0)


def oracle_class_inclusion(class_name, variables, phrase_word_lists, freq) -> float:
    total = 0.0
    for variable in [class_name, *variables]:
        best = 0.0
        for words in phrase_word_lists:
            best = max(best, oracle_word_match_value(words, variable, freq))
        total += best
    return total


def oracle_select(inclusions: dict[str, float], n: int) -> list[str]:
    ranked = sorted(
        (name for name, value in inclusions.items() if value > 0),
        key=lambda name: (-inclusions[name], name),
    )
    return ranked[:n]


# ---------------------------------------------------------------------------
# TTP body walks
# ---------------------------------------------------------------------------

# Each consumer's own walk over a function body, as it was written before
# ``hunt.query.read_body`` read bodies for all of them.


def _oracle_qid(impl_id: str, step_index: int, var: str) -> str:
    return hashlib.sha256(f"{impl_id}/{step_index}/{var}".encode("utf-8")).hexdigest()[:12]


def _oracle_predicate(variable: str, node) -> Predicate:
    if node.kind is NodeKind.LITERAL:
        value = node.attrs["value"]
        return Predicate(variable, "glob" if "*" in value else "eq", value)
    spec = BindSpec(**node.attrs)
    return Predicate(variable, "glob" if (spec.pattern and "*" in spec.pattern) else "eq", spec)


def oracle_schedule(impl, model) -> list[QueryDescriptor]:
    """Descriptors by step then declaration order; each statement is
    checked against the data model as it is read."""
    descriptors = []
    for step in impl.steps:
        classes, order, predicates, relations = {}, [], {}, {}
        statement = 0
        for stmt in step.record.ast.children:
            if stmt.kind is NodeKind.OBJECT_INSTANTIATION:
                var, cls = stmt.attrs["var"], stmt.attrs["class_name"]
                if cls not in model.variables_by_class:
                    raise UnknownClass(f"class {cls!r} not in data model")
                classes[var] = cls
                order.append(var)
                predicates[var] = []
                relations[var] = []
            elif stmt.kind is NodeKind.ATTRIBUTE_ASSIGN:
                var = stmt.children[0].attrs["name"]
                attribute = stmt.attrs["attribute"]
                if var not in classes:
                    raise UnknownVariable(f"object {var!r} never instantiated")
                if attribute not in model.variables_by_class[classes[var]]:
                    raise UnknownVariable(f"variable {attribute!r} not on class {classes[var]!r}")
                predicates[var].append(_oracle_predicate(attribute, stmt.children[1]))
            elif stmt.kind is NodeKind.RELATION_STMT:
                subj = stmt.children[0].attrs["name"]
                obj = stmt.children[1].attrs["name"]
                if subj not in classes or obj not in classes:
                    raise UnknownVariable("relation references an unknown object")
                relations[subj].append(
                    RelationRef(stmt.attrs["verb"], _oracle_qid(impl.impl_id, step.step_index, obj), statement)
                )
                statement += 1
        for var in order:
            descriptors.append(
                QueryDescriptor(
                    qid=_oracle_qid(impl.impl_id, step.step_index, var),
                    entity_class=classes[var],
                    object_var=var,
                    predicates=tuple(predicates[var]),
                    relations=tuple(relations[var]),
                    step_index=step.step_index,
                    impl_id=impl.impl_id,
                )
            )
    return descriptors


def oracle_obligations_for(impl) -> list[list[Obligation]]:
    """One obligation per relation statement in statement order, then one
    node obligation per object no relation touches, in declaration order."""
    per_step = []
    for step in impl.steps:
        i = step.step_index
        obligations, instantiated, related = [], [], set()
        for stmt in step.record.ast.children:
            if stmt.kind is NodeKind.OBJECT_INSTANTIATION:
                instantiated.append(stmt.attrs["var"])
            elif stmt.kind is NodeKind.RELATION_STMT:
                subj = stmt.children[0].attrs["name"]
                obj = stmt.children[1].attrs["name"]
                verb = stmt.attrs["verb"]
                related.update((subj, obj))
                key = ("relation", _oracle_qid(impl.impl_id, i, subj), _oracle_qid(impl.impl_id, i, obj), verb)
                obligations.append(Obligation(i, "relation", f"{subj}.{verb}({obj})", key))
        for var in instantiated:
            if var not in related:
                obligations.append(Obligation(i, "node", var, ("node", _oracle_qid(impl.impl_id, i, var))))
        per_step.append(obligations)
    return per_step


def oracle_relation_priors(store) -> dict[tuple[str, str, str], int]:
    """(subject class, verb, object class) counts over the SME records."""
    counts = {}
    for record in store.records:
        if record.source != "SME":
            continue
        classes = {}
        for stmt in record.ast.children:
            if stmt.kind is NodeKind.OBJECT_INSTANTIATION:
                classes[stmt.attrs["var"]] = stmt.attrs["class_name"]
            elif stmt.kind is NodeKind.RELATION_STMT:
                subj = classes.get(stmt.children[0].attrs["name"])
                obj = classes.get(stmt.children[1].attrs["name"])
                if subj and obj:
                    triple = (subj, stmt.attrs["verb"], obj)
                    counts[triple] = counts.get(triple, 0) + 1
    return counts


def oracle_behavior_of(tree, model) -> tuple:
    """Signature counts over the descriptors :func:`oracle_schedule` gives
    the module wrapped as an implementation."""
    counts = {}
    for descriptor in oracle_schedule(implementation_from_module(tree), model):
        for predicate in descriptor.predicates:
            sig = ("pred", descriptor.entity_class, predicate.variable, predicate.op)
            counts[sig] = counts.get(sig, 0) + 1
        for rel in descriptor.relations:
            counts[("rel", rel.verb)] = counts.get(("rel", rel.verb), 0) + 1
    return tuple(sorted(counts.items()))


# ---------------------------------------------------------------------------
# Match witnessing
# ---------------------------------------------------------------------------


def oracle_best_witness_count(per_step_items: list[list[list]]) -> int:
    """Exhaustive enumeration of witness assignments.

    ``per_step_items[s][o]`` is the list of timestamps able to support
    obligation ``o`` of step ``s`` (already filtered to one host).  An
    assignment picks, per obligation, one timestamp or a skip; per-step
    minima over picked timestamps must be non-decreasing across steps
    that picked anything.  Returns the maximum number of satisfied
    obligations.
    """

    best = 0

    def recurse(step: int, floor, satisfied: int) -> None:
        nonlocal best
        if step == len(per_step_items):
            best = max(best, satisfied)
            return
        obligations = per_step_items[step]
        # Enumerate every choice vector: None (skip) or one timestamp.
        pools = [[None, *items] for items in obligations]
        for choice in itertools.product(*pools):
            picked = [ts for ts in choice if ts is not None]
            if picked:
                step_min = min(picked)
                if floor is not None and step_min < floor:
                    continue
                recurse(step + 1, step_min, satisfied + len(picked))
            else:
                recurse(step + 1, floor, satisfied)

    recurse(0, None, 0)
    return best


def oracle_support_index(graph, host: str) -> dict[tuple, list]:
    """Obligation key -> sorted (timestamp, item id) support on one host,
    by a full walk of the graph: an edge counts when either end is on
    ``host``, and every hit of every query on ``host`` is a node."""
    index: dict[tuple, list] = {}
    for edge in graph.edges:
        if host in (edge.source_host, edge.target_host):
            key = ("relation", edge.qid, edge.peer_qid, edge.verb)
            index.setdefault(key, []).append((edge.timestamp, edge.edge_id))
    for qid, events in graph.hits.items():
        for event in events:
            if event.host == host:
                index.setdefault(("node", qid), []).append((event.moment, f"{qid}:{event.event_id}"))
    for items in index.values():
        items.sort()
    return index


def oracle_edge_pairs(source_events, target_events, verb, window_seconds) -> set[tuple[str, str]]:
    """All (source, target) event-id pairs the graph builder should link."""
    pairs = set()
    for source in source_events:
        for target in target_events:
            explicit = (verb, target.event_id) in source.links
            same_window = (
                source.event_id != target.event_id
                and source.host == target.host
                and _oracle_gap(source.moment, target.moment).total_seconds() <= window_seconds
            )
            if explicit or same_window:
                pairs.add((source.event_id, target.event_id))
    return pairs


def oracle_build_graph_edges(results, descriptors, window_seconds) -> list[tuple]:
    """The evidence-graph edges as the original pairwise loop emits them:
    every source x target pair of each relation, in source then target
    order, as (edge_id, qid, peer_qid, verb, source_event, target_event,
    source_host, target_host, timestamp, kind) tuples."""
    window = timedelta(seconds=window_seconds)
    edges = []
    for q in descriptors:
        for rel in q.relations:
            for source in results.get(q.qid, []):
                for target in results.get(rel.peer_qid, []):
                    explicit = (rel.verb, target.event_id) in source.links
                    if explicit:
                        kind = "link"
                    elif (
                        source.event_id != target.event_id
                        and source.host == target.host
                        and _oracle_gap(source.moment, target.moment) <= window
                    ):
                        kind = "window"
                    else:
                        continue
                    edges.append(
                        (
                            f"e{len(edges):05d}",
                            q.qid,
                            rel.peer_qid,
                            rel.verb,
                            source.event_id,
                            target.event_id,
                            source.host,
                            target.host,
                            max(source.moment, target.moment),
                            kind,
                        )
                    )
    return edges


def oracle_build_graph(results, descriptors, window_seconds) -> EvidenceGraph:
    """The evidence graph over a copy of the hits, with the pairwise
    loop's edges of :func:`oracle_build_graph_edges`."""
    edges = tuple(GraphEdge(*edge) for edge in oracle_build_graph_edges(results, descriptors, window_seconds))
    return EvidenceGraph(dict(results), edges)


# ---------------------------------------------------------------------------
# Novelty
# ---------------------------------------------------------------------------


def oracle_multiset_jaccard_distance(a, b) -> float:
    da, db = dict(a), dict(b)
    keys = set(da) | set(db)
    inter = sum(min(da.get(k, 0), db.get(k, 0)) for k in keys)
    union = sum(max(da.get(k, 0), db.get(k, 0)) for k in keys)
    if union == 0:
        return 0.0
    return 1.0 - inter / union


def oracle_novelty(candidate_behavior, other_behaviors, k) -> float:
    if not other_behaviors:
        return 0.0
    distances = sorted(
        oracle_multiset_jaccard_distance(candidate_behavior, b) for b in other_behaviors
    )
    nearest = distances[:k]
    return sum(nearest) / len(nearest)


# ---------------------------------------------------------------------------
# DSL lexer
# ---------------------------------------------------------------------------

# A lexer that reads one character at a time: ``dsl.parser.tokenize`` must
# agree with it token for token and error for error.  Lines end at "\n"
# only; a "\r" outside a comment is an error, as it is anywhere in a string.

_KEYWORDS = {"def": TokenType.DEF, "pass": TokenType.PASS}
_PUNCT = {
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    ":": TokenType.COLON,
    "=": TokenType.ASSIGN,
    ".": TokenType.DOT,
    ",": TokenType.COMMA,
}


class _Lexer:
    """Line-oriented lexer with Python-style INDENT/DEDENT tokens."""

    def __init__(self, source: str):
        self.source = source
        self.pos = 0  # char index
        self.byte = 0  # byte offset of self.pos
        self.line = 1
        self.col = 1

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            ch = self.source[self.pos]
            self.byte += len(ch.encode("utf-8"))
            self.pos += 1
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1

    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.source[i] if i < len(self.source) else ""

    def error(self, message: str, expected: tuple[str, ...] = ()) -> DslSyntaxError:
        return DslSyntaxError(message, self.line, self.col, expected)

    def tokens(self) -> list[Token]:
        out: list[Token] = []
        indents = [0]
        while self.pos < len(self.source):
            # Start of a line: measure indentation, skip blank/comment lines.
            indent = 0
            while self._peek() == " ":
                indent += 1
                self._advance()
            if self._peek() == "\t":
                raise self.error("tabs are not allowed in indentation")
            if self._peek() in ("\n", "", "#"):
                self._skip_to_eol()
                continue
            if indent > indents[-1]:
                indents.append(indent)
                out.append(self._mark(TokenType.INDENT, ""))
                if len(indents) > 2:
                    raise self.error("unexpected indent")
            while indent < indents[-1]:
                indents.pop()
                out.append(self._mark(TokenType.DEDENT, ""))
            if indent != indents[-1]:
                raise self.error("unindent does not match any outer level")
            out.extend(self._lex_line())
        while len(indents) > 1:
            indents.pop()
            out.append(self._mark(TokenType.DEDENT, ""))
        out.append(self._mark(TokenType.EOF, ""))
        return out

    def _mark(self, type_: TokenType, value: str) -> Token:
        return Token(type_, value, self.line, self.col, (self.byte, self.byte))

    def _skip_to_eol(self) -> None:
        while self.pos < len(self.source) and self._peek() != "\n":
            self._advance()
        if self.pos < len(self.source):
            self._advance()  # the newline itself

    def _lex_line(self) -> list[Token]:
        out: list[Token] = []
        while True:
            ch = self._peek()
            if ch in ("", "\n", "#"):
                out.append(self._mark(TokenType.NEWLINE, ""))
                self._skip_to_eol()
                return out
            if ch == " ":
                self._advance()
                continue
            if ch == "\t":
                raise self.error("tabs are not allowed here")
            if ch in _PUNCT:
                start = (self.byte, self.line, self.col)
                self._advance()
                out.append(
                    Token(_PUNCT[ch], ch, start[1], start[2], (start[0], self.byte))
                )
                continue
            if ch == '"':
                out.append(self._lex_string())
                continue
            if ("a" <= ch <= "z") or ("A" <= ch <= "Z") or ch == "_":
                out.append(self._lex_name())
                continue
            raise self.error(f"unexpected character {ch!r}")

    def _lex_name(self) -> Token:
        start_byte, line, col = self.byte, self.line, self.col
        chars = []
        while True:
            ch = self._peek()
            if ("a" <= ch <= "z") or ("A" <= ch <= "Z") or ("0" <= ch <= "9") or ch == "_":
                chars.append(ch)
                self._advance()
            else:
                break
        text = "".join(chars)
        type_ = _KEYWORDS.get(text, TokenType.NAME)
        return Token(type_, text, line, col, (start_byte, self.byte))

    def _lex_string(self) -> Token:
        """Double-quoted string.  Backslash is literal except before a
        backslash or a double quote, so registry paths read naturally."""
        start_byte, line, col = self.byte, self.line, self.col
        self._advance()  # opening quote
        chars = []
        while True:
            ch = self._peek()
            if ch in ("", "\n", "\r"):
                raise DslSyntaxError("unterminated string", line, col, ('"',))
            if ch == '"':
                self._advance()
                return Token(
                    TokenType.STRING, "".join(chars), line, col, (start_byte, self.byte)
                )
            if ch == "\\" and self._peek(1) in ("\\", '"'):
                chars.append(self._peek(1))
                self._advance(2)
            else:
                chars.append(ch)
                self._advance()


def oracle_tokens(source: str) -> list[Token]:
    return _Lexer(source).tokens()
