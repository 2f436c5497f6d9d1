"""Docs-consistency gate (companion of the ruff gate in test_tooling).

Documentation drifts when commands and paths it quotes stop existing, so
this suite re-derives them from the docs themselves: every
``python -m repro`` command inside a code fence of README.md / docs/*.md
must parse against the real CLI, every path named by a quoted pytest or
example invocation must exist, every relative markdown link must
resolve, and every ``json`` fence must be valid JSON.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from repro.experiments.cli import parse_cli

REPO_ROOT = Path(__file__).resolve().parent.parent

DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")]
)

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def fenced_blocks(text: str) -> list[tuple[str, list[str]]]:
    """``(language, lines)`` for every fenced code block."""
    blocks: list[tuple[str, list[str]]] = []
    lang = None
    lines: list[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("```"):
            if lang is None:
                lang = stripped[3:].strip()
            else:
                blocks.append((lang, lines))
                lang, lines = None, []
            continue
        if lang is not None:
            lines.append(line)
    return blocks


def command_lines() -> list[tuple[Path, str]]:
    out = []
    for doc in DOC_FILES:
        for lang, lines in fenced_blocks(doc.read_text()):
            if lang == "json":
                continue
            for line in lines:
                line = line.strip()
                if line and not line.startswith("#"):
                    out.append((doc, line))
    return out


def test_doc_files_exist():
    assert (REPO_ROOT / "README.md").exists()
    assert (REPO_ROOT / "docs" / "architecture.md").exists()
    assert (REPO_ROOT / "docs" / "experiments.md").exists()
    assert (REPO_ROOT / "docs" / "baselines.md").exists()


def test_repro_cli_commands_parse():
    """Every quoted ``python -m repro ...`` must parse against the CLI."""
    checked = 0
    for doc, line in command_lines():
        if "python -m repro" not in line:
            continue
        argv = shlex.split(line.split("python -m repro", 1)[1])
        try:
            parse_cli(argv)
        except SystemExit:
            pytest.fail(f"{doc.name}: command does not parse: {line}")
        checked += 1
    assert checked >= 4  # README + docs quickstarts stay non-trivial


def test_pytest_commands_reference_real_paths():
    checked = 0
    for doc, line in command_lines():
        if "python -m pytest" not in line and not line.startswith("pytest"):
            continue
        marker = "pytest"
        args = shlex.split(line.split(marker, 1)[1])
        for arg in args:
            if arg.startswith("-"):
                continue
            target = (REPO_ROOT / arg.split("::")[0])
            assert target.exists(), f"{doc.name}: pytest path missing: {arg}"
        checked += 1
    assert checked >= 1


def test_example_invocations_reference_real_scripts():
    checked = 0
    for doc, line in command_lines():
        for token in shlex.split(line) if "python " in line else []:
            if token.endswith(".py") and "/" in token and not token.startswith("-"):
                assert (REPO_ROOT / token).exists(), (
                    f"{doc.name}: script missing: {token}"
                )
                checked += 1
    assert checked >= 1


def test_relative_links_resolve():
    checked = 0
    for doc in DOC_FILES:
        for target in LINK_RE.findall(doc.read_text()):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = (doc.parent / target.split("#", 1)[0]).resolve()
            assert path.exists(), f"{doc.name}: broken link: {target}"
            checked += 1
    assert checked >= 10  # the docs are meant to be densely cross-linked


def test_json_fences_are_valid_json():
    checked = 0
    for doc in DOC_FILES:
        for lang, lines in fenced_blocks(doc.read_text()):
            if lang != "json":
                continue
            text = "\n".join(lines)
            try:
                json.loads(text)
            except json.JSONDecodeError as exc:
                pytest.fail(f"{doc.name}: invalid json fence: {exc}")
            checked += 1
    assert checked >= 1


def test_protocol_tables_match_registry():
    """Protocol names quoted in the README comparison table and the
    baselines guide must match the registered protocol registry — both
    directions: no table entry outside the registry, no registered
    protocol missing from the docs."""
    from repro.core.protocol import PROTOCOL_NAMES

    readme = (REPO_ROOT / "README.md").read_text()
    baselines = (REPO_ROOT / "docs" / "baselines.md").read_text()

    # every registered protocol is documented in both places
    for name in PROTOCOL_NAMES:
        assert f"`{name}`" in readme, f"README table misses protocol {name}"
        assert f"`{name}`" in baselines, f"baselines.md misses protocol {name}"

    # every backticked name in a README table row that looks like a
    # protocol (first column, before the source-paper column) is real
    table_rows = [
        line for line in readme.splitlines()
        if line.startswith("|") and "`" in line and "---" not in line
    ]
    assert table_rows, "README protocol table disappeared"
    quoted = {
        token
        for row in table_rows
        for token in re.findall(r"`([a-z0-9+-]+)`", row.split("|")[1])
    }
    unknown = quoted - set(PROTOCOL_NAMES)
    assert not unknown, f"README table names unregistered protocols: {unknown}"


def test_churn_scenario_documented_and_registered():
    """The churn campaign quickstarts must target a scenario that exists,
    sweeping protocols that exist."""
    from repro.core.protocol import PROTOCOL_NAMES
    from repro.experiments.scenarios import (
        CHURN_SWEEP_PROTOCOLS,
        SCENARIO_CONFIGS,
    )

    assert "churn" in SCENARIO_CONFIGS
    assert set(CHURN_SWEEP_PROTOCOLS) <= set(PROTOCOL_NAMES)
    readme = (REPO_ROOT / "README.md").read_text()
    assert "--scenarios churn" in readme


def test_store_docstring_points_at_real_doc():
    """The reference that motivated this file: store.py cites the
    experiments workflow doc — keep it pointing at a file that exists."""
    import repro.experiments.store as store

    assert "docs/experiments.md" in (store.__doc__ or "")
    assert (REPO_ROOT / "docs" / "experiments.md").exists()


# ----------------------------------------------------------------------
# config knobs named in prose must exist
# ----------------------------------------------------------------------
#: ``name=`` where ``name`` is snake_case ending in a word-like segment
#: (``a_i = ...`` is math, not a knob).
_ASSIGNED_RE = re.compile(
    r"\b([a-z][a-z0-9]*(?:_[a-z0-9]+)*_[a-z0-9]{2,})\s*=(?!=)"
)
_CONFIG_CALL_RE = re.compile(
    r"^(?:ExperimentConfig(?:\.at_scale)?|PIDCANParams|NetworkParams)\("
)
_KNOB_HEADER_RE = re.compile(r"knob|ExperimentConfig|PIDCANParams|NetworkParams")


def config_field_names() -> set[str]:
    from dataclasses import fields

    from repro.core.protocol import PIDCANParams
    from repro.experiments.config import ExperimentConfig
    from repro.sim.network import NetworkParams

    return {
        f.name
        for cls in (ExperimentConfig, PIDCANParams, NetworkParams)
        for f in fields(cls)
    }


def quoted_config_fields(text: str) -> list[str]:
    """Back-ticked identifiers of ``text`` that present themselves as
    config fields: ``name=value`` spans, keyword arguments of a quoted
    config-class constructor, and the first column of a knob table (one
    whose header cell says ``knob`` or names a config class)."""
    prose = "\n".join(
        line for line in text.splitlines() if not line.startswith("|")
    )
    prose = re.sub(r"```.*?```", "", prose, flags=re.S)
    names: list[str] = []
    for span in re.findall(r"`([^`\n]+)`", prose):
        found = _ASSIGNED_RE.findall(span)
        if found and (span.startswith(found[0]) or _CONFIG_CALL_RE.match(span)):
            names.extend(found)
    in_knob_table = False
    previous = ""
    for line in text.splitlines():
        if not line.startswith("|"):
            in_knob_table = False
        elif set(line) <= set("|-: "):  # the rule under a header row
            in_knob_table = bool(_KNOB_HEADER_RE.search(previous.split("|")[1]))
        elif in_knob_table:
            names.extend(re.findall(r"`([a-z][a-z0-9_]*)`", line.split("|")[1]))
        previous = line
    return names


def test_quoted_config_fields_exist():
    """A knob the docs tell the reader to set must be a real field of
    ``ExperimentConfig``, ``PIDCANParams`` or ``NetworkParams`` — retired
    flags must not linger in prose."""
    known = config_field_names()
    checked = 0
    for doc in DOC_FILES:
        for name in quoted_config_fields(doc.read_text()):
            assert name in known, f"{doc.name}: `{name}` is not a config field"
            checked += 1
    assert checked >= 10  # the knob tables alone carry more than this


def test_config_field_gate_catches_retired_flags():
    stale = (
        'set `tick_mode="cohort"` or `ExperimentConfig(n_nodes=5, '
        'coalesce_arrivals=True)`; `run(max_events=3)` and `a_i = 0` are '
        "not knobs\n\n"
        "| knob | effect |\n|------|--------|\n| `coalesce_deliveries` | x |\n"
    )
    assert quoted_config_fields(stale) == [
        "tick_mode", "n_nodes", "coalesce_arrivals", "coalesce_deliveries",
    ]


# ----------------------------------------------------------------------
# modules and files named in prose must exist
# ----------------------------------------------------------------------
_DOTTED_NAME_RE = re.compile(r"^repro(?:\.\w+)+$")
_PY_PATH_RE = re.compile(r"^([\w./-]+\.py)(?:::(\w+))?$")
#: Where a quoted ``x/y.py`` may live, as the docs abbreviate paths.
_PY_ROOTS = ("", "src/repro", "tests", "bench")


def quoted_names(text: str) -> tuple[list[str], list[tuple[str, str | None]]]:
    """Back-ticked spans of ``text`` that are a ``repro.a.b[.C[.d]]`` dotted
    name, and those that are a ``….py[::test]`` path (``*`` globs are not
    paths)."""
    dotted, paths = [], []
    for span in re.findall(r"`([^`\n]+)`", text):
        if _DOTTED_NAME_RE.match(span):
            dotted.append(span)
        else:
            match = _PY_PATH_RE.match(span)
            if match:
                paths.append((match.group(1), match.group(2)))
    return dotted, paths


def resolve_dotted(name: str) -> None:
    """Import the longest module prefix of ``name`` and getattr the rest
    (``AttributeError`` where the name is gone)."""
    import importlib

    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            target = getattr(target, attr)
        return


def resolve_py_path(path: str, test: str | None) -> None:
    """``path`` must exist under one of the roots — a bare file name
    anywhere below them — and define ``test`` if one is named."""
    for root in _PY_ROOTS:
        base = REPO_ROOT / root
        hits = base.rglob(path) if root and "/" not in path else [base / path]
        for hit in hits:
            if hit.is_file() and (test is None or f"def {test}(" in hit.read_text()):
                return
    raise FileNotFoundError(path if test is None else f"{path}::{test}")


def test_quoted_modules_and_files_exist():
    """A module, class, function or file the docs name must still be
    there — a deleted module must not linger in prose."""
    checked = 0
    for doc in DOC_FILES:
        dotted, paths = quoted_names(doc.read_text())
        for name in dotted:
            try:
                resolve_dotted(name)
            except AttributeError as exc:
                pytest.fail(f"{doc.name}: `{name}` does not resolve: {exc}")
        for path, test in paths:
            try:
                resolve_py_path(path, test)
            except FileNotFoundError as exc:
                pytest.fail(f"{doc.name}: `{exc}` does not exist")
        checked += len(dotted) + len(paths)
    assert checked >= 100  # the docs name their code densely


def test_quoted_name_gate_catches_deleted_modules():
    dotted, paths = quoted_names(
        "`repro.can.geometry` backed `can/geometry.py`, see "
        "`tests/can/test_geometry.py::test_x`; `repro.can.zone.Zone.split`, "
        "`tests/*.py` and `a.py b` are left alone or fine"
    )
    assert dotted == ["repro.can.geometry", "repro.can.zone.Zone.split"]
    assert paths == [
        ("can/geometry.py", None), ("tests/can/test_geometry.py", "test_x"),
    ]
    resolve_dotted(dotted[1])
    resolve_py_path("can/zone.py", None)
    resolve_py_path("tests/can/test_zone.py", "test_split_halves_tile_parent")
    with pytest.raises(AttributeError):
        resolve_dotted(dotted[0])
    for path, test in paths:
        with pytest.raises(FileNotFoundError):
            resolve_py_path(path, test)
