import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tmat
from tmat import (
    GROUP_FILE_MAGIC,
    GroupError,
    UnknownPropertyError,
    add_to_groups,
    list_groups,
    list_matrices,
    load_group,
    remove_from_all_groups,
    remove_from_group,
    save_group,
)

BUILTIN = tuple(tmat.list_families())


def test_fresh_state_groups():
    assert list_groups() == ["user", "builtin"]


def test_builtin_content_and_immutability():
    assert tmat.registry._snapshot()["builtin"] == tmat.list_families() == list(BUILTIN)
    tmat.register_family(  # a family registered after import stays out of the builtin group
        tmat.FamilyDescriptor(id="extra", params=(), default_scalar_kind=tmat.FLOAT64, tags=()),
        lambda p, i, j, k: 0.0,
        dims_fn=lambda p: (1, 1),
    )
    assert tmat.list_families() == list(BUILTIN) + ["extra"]
    assert tmat.registry._snapshot()["builtin"] == list_matrices(["builtin"]) == list(BUILTIN)
    with pytest.raises(GroupError):
        add_to_groups("minij", "builtin")
    with pytest.raises(GroupError):
        remove_from_group("minij", "builtin")


def test_add_creates_groups_and_membership_is_set_like():
    add_to_groups("minij", "user", "mygroup")
    assert "mygroup" in list_groups()
    assert list_matrices(["mygroup"]) == ["minij"]
    assert list_matrices(["user"]) == ["minij"]
    add_to_groups("minij", "mygroup")  # duplicate add is a no-op
    assert list_matrices(["mygroup"]) == ["minij"]


def test_add_unknown_family():
    with pytest.raises(GroupError):
        add_to_groups("wathen", "mygroup")


def test_remove_last_member_deletes_group():
    add_to_groups("minij", "mygroup")
    remove_from_group("minij", "mygroup")
    assert "mygroup" not in list_groups()
    with pytest.raises(GroupError):
        list_matrices(["mygroup"])


def test_user_group_survives_emptying():
    add_to_groups("minij", "user")
    remove_from_group("minij", "user")
    assert "user" in list_groups()
    assert list_matrices(["user"]) == []


def test_remove_errors():
    with pytest.raises(GroupError):
        remove_from_group("minij", "nosuch")
    add_to_groups("minij", "mygroup")
    with pytest.raises(GroupError):
        remove_from_group("hilbert", "mygroup")


def test_remove_from_all_groups():
    add_to_groups("minij", "user", "g1", "g2")
    add_to_groups("hilbert", "g2")
    remove_from_all_groups("minij")
    assert list_matrices(["user"]) == []
    assert "g1" not in list_groups()
    assert list_matrices(["g2"]) == ["hilbert"]
    assert "minij" in list_matrices(["builtin"])


def test_tutorial_group_scenario(tmp_path):
    path = tmp_path / "mygroup.grp"
    add_to_groups("minij", "user", "mygroup")
    assert list_matrices(["mygroup"]) == ["minij"]
    save_group("mygroup", path)
    remove_from_group("minij", "mygroup")
    assert "mygroup" not in list_groups()
    load_group("mynewgroup", path)
    assert "mynewgroup" in list_groups()
    assert list_matrices(["mynewgroup"]) == ["minij"]


def test_group_file_bytes(tmp_path):
    path = tmp_path / "g.grp"
    add_to_groups("minij", "mygroup")
    save_group("mygroup", path)
    assert path.read_bytes() == b"typedmatrices-group v1\nminij\n"
    assert GROUP_FILE_MAGIC == "typedmatrices-group v1"


def test_load_is_all_or_nothing(tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text(f"{GROUP_FILE_MAGIC}\nminij\nwathen\n", encoding="utf-8")
    with pytest.raises(GroupError, match="wathen"):
        load_group("g", path)
    assert "g" not in list_groups()


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("something else\nminij\n", encoding="utf-8")
    with pytest.raises(GroupError, match="not a group file"):
        load_group("g", path)


def test_load_merges_into_existing_group(tmp_path):
    path = tmp_path / "g.grp"
    add_to_groups("minij", "g")
    save_group("g", path)
    add_to_groups("hilbert", "g2")
    load_group("g2", path)
    assert list_matrices(["g2"]) == ["minij", "hilbert"] or list_matrices(["g2"]) == [
        "hilbert",
        "minij",
    ]


def test_load_supports_comments_and_blank_lines(tmp_path):
    path = tmp_path / "g.grp"
    path.write_text(
        f"{GROUP_FILE_MAGIC}\n# a comment\n\nminij\n# another\nhilbert\n", encoding="utf-8"
    )
    load_group("g", path)
    assert set(list_matrices(["g"])) == {"minij", "hilbert"}


def test_load_missing_file():
    with pytest.raises(GroupError):
        load_group("g", "/nonexistent/path/g.grp")


def test_save_then_load_roundtrip_preserves_order(tmp_path):
    members = ["pascal", "minij", "hilbert"]
    for m in members:
        add_to_groups(m, "ordered")
    path = tmp_path / "o.grp"
    save_group("ordered", path)
    load_group("restored", path)
    # listing follows family registration order for both groups
    assert list_matrices(["restored"]) == list_matrices(["ordered"])
    text = path.read_text().splitlines()
    assert text[1:] == members  # file preserves insertion order


def test_search_examples():
    assert list_matrices(["builtin"], ["inverse", "illcond", "eigen"]) == [
        "pascal",
        "forsythe",
        "lotkin",
    ]
    assert list_matrices(props=["symmetric", "eigen", "posdef"]) == [
        "minij",
        "pascal",
        "poisson",
    ]
    assert list_matrices() == list(BUILTIN)
    assert list_matrices(["builtin"], ["symmetric"]) == [
        f for f in BUILTIN if "symmetric" in tmat.properties_of(f)
    ]


def test_search_intersects_multiple_groups():
    add_to_groups("minij", "g1", "g2")
    add_to_groups("hilbert", "g1")
    assert list_matrices(["g1"]) == ["hilbert", "minij"]
    assert list_matrices(["g1", "g2"]) == ["minij"]
    assert list_matrices(["g1", "builtin"], ["posdef"]) == ["hilbert", "minij"]


def test_search_errors():
    with pytest.raises(GroupError):
        list_matrices(["nosuch"])
    with pytest.raises(UnknownPropertyError):
        list_matrices(props=["nosuch"])


@given(props=st.lists(st.sampled_from(["symmetric", "posdef", "eigen", "integer", "inverse"]), max_size=4))
def test_search_monotone_and_commutative(props):
    base = set(list_matrices(props=props))
    for extra in ("illcond", "sparse"):
        narrowed = set(list_matrices(props=props + [extra]))
        assert narrowed <= base
    reordered = set(list_matrices(props=list(reversed(props))))
    assert reordered == base


def test_randomized_operation_sequences_keep_invariants():
    rng = random.Random(42)
    families = ["minij", "hilbert", "pascal", "kms"]
    groups = ["g1", "g2", "g3", "user"]
    model: dict[str, list[str]] = {"user": []}
    for _ in range(200):
        op = rng.choice(["add", "remove", "remove_all"])
        fam = rng.choice(families)
        grp = rng.choice(groups)
        if op == "add":
            add_to_groups(fam, grp)
            model.setdefault(grp, [])
            if fam not in model[grp]:
                model[grp].append(fam)
        elif op == "remove":
            in_model = grp in model and fam in model[grp]
            if in_model:
                remove_from_group(fam, grp)
                model[grp].remove(fam)
                if not model[grp] and grp != "user":
                    del model[grp]
            else:
                with pytest.raises(GroupError):
                    remove_from_group(fam, grp)
        else:
            remove_from_all_groups(fam)
            for name in list(model):
                if fam in model[name]:
                    model[name].remove(fam)
                if not model[name] and name != "user":
                    del model[name]
        # invariants: builtin intact, no empty custom groups, model agreement
        assert list_matrices(["builtin"]) == list(BUILTIN)
        listed = list_groups()
        assert listed[0:2] == ["user", "builtin"]
        for name in listed[2:]:
            assert list_matrices([name]) != []
        assert set(listed) == set(model) | {"builtin"}
        for name, members in model.items():
            assert set(list_matrices([name])) == set(members)
