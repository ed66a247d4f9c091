"""Every name the package exports is read somewhere in the package.

The check parses each module of ``src/epflab`` except ``__init__.py`` with
``ast``.  A name counts as read where it is loaded as a name or an
attribute, outside its own definition; docstrings, comments and imports
do not count.  A name in ``epflab.__all__`` that nothing reads fails,
unless ``ALLOWED`` gives the reason it is exported anyway.
"""

import ast
from pathlib import Path

import epflab

PACKAGE = Path(epflab.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

ALLOWED = {
    "proj_lorentz": "perfbench times it as layer cones.lorentz; tests check dist_lorentz against it",
    "proj_psd": "perfbench times it as layer cones.proj_psd; tests check dist_psd_minus against it",
    "parse_report": "it reads the report format that serialize_report writes",
    # make_penalty calls the two stages of these; each is value(state(x), c).
    "linear_eval": "the one-shot linear F; perfbench times it as layer penalties.f",
    "qpen_eval": "the one-shot q-order F; perfbench times it as layer penalties.f",
    "hpr_closed_form": "the one-shot al-hpr F; perfbench times it as layer auglag.hpr; tests use it "
                       "as the reference",
    "c1_penalty_soc": "the one-shot C1 F for SOC problems; perfbench times it as layer smoothpen.f",
    "c1_penalty_sdp": "the one-shot C1 F for SDP problems; perfbench times it as layer smoothpen.f",
    # c1_state computes the estimate and the barrier in one pass, with their bits.
    "estimate_multipliers_soc": "the SOC multiplier estimate as a record; c1_state shares its code",
    "estimate_multipliers_sdp": "the SDP multiplier estimate as a record; c1_state shares its code",
    "barrier_state_soc": "the SOC barrier terms as a record; c1_state computes the same bits",
    "barrier_state_sdp": "the SDP barrier terms as a record; c1_state computes the same bits",
}


def read_names(source: str) -> set:
    """Names loaded as a name or an attribute, each outside the top-level
    definition that binds it."""
    read = set()
    for top in ast.parse(source).body:
        own = {top.name} if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            if name not in own:
                read.add(name)
    return read


def unread_exports(exported, sources) -> list:
    read = set().union(*(read_names(s) for s in sources))
    return sorted(name for name in exported if name not in read)


def test_guard_sees_an_unread_export():
    source = '''
"""Docstrings mention helper and used, which does not count."""
from .other import imported


def helper(n):
    return helper(n - 1) if n else 0


def used():
    return 1


class Box:
    def __call__(self):
        return used() + len(Box.__name__)
'''
    assert unread_exports(["helper", "used", "Box", "imported"], [source]) == ["Box", "helper",
                                                                             "imported"]


def test_every_export_is_read():
    sources = [p.read_text(encoding="utf-8") for p in MODULES]
    assert unread_exports(epflab.__all__, sources) == sorted(ALLOWED)
