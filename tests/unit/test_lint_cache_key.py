"""Cache-key checker: ExperimentConfig fields vs CACHE_KEY_EXCLUDED sync."""

from repro.analysis.checkers import cache_key
from repro.analysis.project import Project

CLEAN_CONFIG = """\
from dataclasses import dataclass, field, fields

@dataclass
class ExperimentConfig:
    seed: int = 0
    trace: bool = False
    express: bool = field(default=True, metadata={"cache_key": False})

CACHE_KEY_EXCLUDED = frozenset({"express"})

def _canonicalize(value):
    return {
        f.name: getattr(value, f.name)
        for f in fields(value)
        if f.metadata.get("cache_key", True) and f.name not in CACHE_KEY_EXCLUDED
    }
"""


def check_config(source):
    return cache_key.check(Project.from_sources({"config.py": source}))


def test_clean_config_has_no_findings():
    assert check_config(CLEAN_CONFIG) == []


def test_marked_field_missing_from_declared_set():
    # The historical bug shape: field carries metadata={"cache_key": False}
    # but CACHE_KEY_EXCLUDED forgot it (or it was deleted from the set).
    source = CLEAN_CONFIG.replace(
        'CACHE_KEY_EXCLUDED = frozenset({"express"})',
        "CACHE_KEY_EXCLUDED = frozenset()",
    ).replace("frozenset()", 'frozenset(())')
    findings = check_config(source)
    assert [f.rule for f in findings] == ["key-marked-not-declared"]
    assert "express" in findings[0].message
    # Anchored at the field definition line.
    assert findings[0].line == 7


def test_declared_field_missing_metadata_marker():
    source = CLEAN_CONFIG.replace(
        'express: bool = field(default=True, metadata={"cache_key": False})',
        "express: bool = True",
    )
    findings = check_config(source)
    assert [f.rule for f in findings] == ["key-declared-not-marked"]
    assert "express" in findings[0].message


def test_unknown_field_in_declared_set():
    source = CLEAN_CONFIG.replace(
        'frozenset({"express"})',
        'frozenset({"express", "not_a_field"})',
    )
    findings = check_config(source)
    assert [f.rule for f in findings] == ["key-unknown-field"]
    assert "not_a_field" in findings[0].message


def test_missing_declaration_entirely():
    source = CLEAN_CONFIG.replace(
        'CACHE_KEY_EXCLUDED = frozenset({"express"})\n', ""
    )
    findings = check_config(source)
    rules = {f.rule for f in findings}
    assert "key-not-enforced" in rules
    # The metadata-marked field is now declared nowhere.
    assert "key-marked-not-declared" in rules


def test_non_literal_declaration_flagged():
    source = CLEAN_CONFIG.replace(
        'CACHE_KEY_EXCLUDED = frozenset({"express"})',
        "CACHE_KEY_EXCLUDED = frozenset(_computed())",
    )
    findings = check_config(source)
    assert "key-not-enforced" in {f.rule for f in findings}


def test_canonicalize_not_consulting_the_set():
    source = CLEAN_CONFIG.replace(
        'f.metadata.get("cache_key", True) and f.name not in CACHE_KEY_EXCLUDED',
        'f.metadata.get("cache_key", True)',
    )
    findings = check_config(source)
    assert [f.rule for f in findings] == ["key-not-enforced"]
    assert findings[0].symbol == "_canonicalize"


def test_fixture_without_config_is_out_of_scope():
    project = Project.from_sources({"other.py": "x = 1\n"})
    assert cache_key.check(project) == []


def test_real_tree_is_clean():
    assert cache_key.check(Project.from_dir()) == []
