"""Named groups of matrix families: membership, persistence, and search.

Two reserved groups always exist: `builtin` (the immutable catalog) and
`user` (an initially-empty default for extensions). Custom groups are created
by adding a member and deleted when their last member is removed; apart from
`user`, groups are never empty.

Group files are UTF-8 text: a magic first line, then one family id per line;
`#` starts a comment. Loading is all-or-nothing.
"""

from __future__ import annotations

import threading

from . import families
from .errors import GroupError
from .properties import parse_property

GROUP_FILE_MAGIC = "typedmatrices-group v1"
RESERVED_GROUPS = ("user", "builtin")

_LOCK = threading.RLock()
_GROUPS: dict[str, list[str]] = {"user": [], "builtin": []}


def _sync_builtin() -> None:
    """Pin the builtin group to the families registered so far: the catalog,
    as tmat calls this at import before any other family can register."""
    with _LOCK:
        _GROUPS["builtin"] = families.list_families()


def _require_group(name: str) -> list[str]:
    try:
        return _GROUPS[name]
    except KeyError:
        raise GroupError(f"unknown group '{name}'") from None


def _require_family(family_id: str) -> None:
    if not families.is_registered(family_id):
        raise GroupError(f"unknown matrix family '{family_id}'")


def list_groups() -> list[str]:
    """Reserved groups first (user, builtin), then custom groups in creation order."""
    with _LOCK:
        customs = [g for g in _GROUPS if g not in RESERVED_GROUPS]
        return list(RESERVED_GROUPS) + customs


def add_to_groups(family_id: str, *groups: str) -> None:
    """Add a family to each named group, creating missing groups. Idempotent."""
    if not groups:
        raise GroupError("add_to_groups requires at least one group name")
    _require_family(family_id)
    with _LOCK:
        if "builtin" in groups:
            raise GroupError("the builtin group is immutable")
        for name in groups:
            members = _GROUPS.setdefault(name, [])
            if family_id not in members:
                members.append(family_id)


def remove_from_group(family_id: str, group: str) -> None:
    """Remove a membership; a custom group emptied this way is deleted."""
    with _LOCK:
        if group == "builtin":
            raise GroupError("the builtin group is immutable")
        members = _require_group(group)
        if family_id not in members:
            raise GroupError(f"family '{family_id}' is not in group '{group}'")
        members.remove(family_id)
        if not members and group not in RESERVED_GROUPS:
            del _GROUPS[group]


def remove_from_all_groups(family_id: str) -> None:
    """Remove a family from every group except builtin; emptied custom groups die."""
    with _LOCK:
        for name in [g for g in _GROUPS if g != "builtin"]:
            members = _GROUPS[name]
            if family_id in members:
                members.remove(family_id)
            if not members and name not in RESERVED_GROUPS:
                del _GROUPS[name]


def save_group(group: str, path) -> None:
    with _LOCK:
        members = list(_require_group(group))
    try:
        with open(path, "w", encoding="utf-8", newline="") as sink:
            sink.write(GROUP_FILE_MAGIC + "\n")
            for member in members:
                sink.write(member + "\n")
    except OSError as exc:
        raise GroupError(f"cannot write group file {path}: {exc}") from exc


def load_group(group: str, path) -> None:
    """Load a saved group; creating the target or merging into an existing one.

    All-or-nothing: unknown family ids abort the load with the offending ids
    named and the registry unchanged.
    """
    if group == "builtin":
        raise GroupError("the builtin group is immutable")
    try:
        with open(path, "r", encoding="utf-8") as source:
            lines = source.read().splitlines()
    except OSError as exc:
        raise GroupError(f"cannot read group file {path}: {exc}") from exc
    if not lines or lines[0].strip() != GROUP_FILE_MAGIC:
        raise GroupError(
            f"{path} is not a group file (expected first line '{GROUP_FILE_MAGIC}')"
        )
    ids = []
    for line in lines[1:]:
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        ids.append(text)
    unknown = sorted({i for i in ids if not families.is_registered(i)})
    if unknown:
        raise GroupError(
            f"group file {path} names unregistered families: {', '.join(unknown)}; nothing loaded"
        )
    if not ids and group != "user":
        raise GroupError(f"group file {path} contains no families; groups cannot be empty")
    with _LOCK:
        members = _GROUPS.setdefault(group, [])
        for family_id in ids:
            if family_id not in members:
                members.append(family_id)


def list_matrices(groups: list[str] | None = None, props: list[str] | None = None) -> list[str]:
    """Families in the intersection of the named groups whose tags include all
    named properties; no filters lists every registered family. Output follows
    family registration order."""
    canon_props = [parse_property(p) for p in props] if props else []
    with _LOCK:
        if groups:
            member_sets = [set(_require_group(g)) for g in groups]
            allowed = set.intersection(*member_sets)
        else:
            allowed = None
    result = []
    for family_id in families.list_families():
        if allowed is not None and family_id not in allowed:
            continue
        tags = families.get_family(family_id).descriptor.tags
        if all(p in tags for p in canon_props):
            result.append(family_id)
    return result


# -- test-support state management --------------------------------------------


def _snapshot():
    with _LOCK:
        return {name: list(members) for name, members in _GROUPS.items()}


def _restore(snapshot):
    global _GROUPS
    with _LOCK:
        _GROUPS = {name: list(members) for name, members in snapshot.items()}
