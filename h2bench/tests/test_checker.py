"""The checker must flag every kind of wrong answer it exists to catch."""

from h2bench.model import DIR, FILE, Checker, Model, etag_of
from h2bench.workloads import Op

A = "acct"


def build() -> tuple[Model, Checker]:
    model = Model()
    for op in (
        Op("account", 0, A, "/", None),
        Op("mkdir", 0, A, "/d", None),
        Op("write_many", 0, A, "/d", [(f"f{i}", b"x" * i) for i in range(1, 6)]),
    ):
        model.apply(op)
    model.settle()
    return model, Checker(model)


def page(model: Model, names) -> list[tuple]:
    out = []
    for name in names:
        entry = model.entry(A, f"/d/{name}")
        out.append((name, *entry.view()))
    return out


def test_correct_answers_pass():
    model, check = build()
    assert check.check_read(0, A, "/d/f3", b"xxx")
    assert check.check_stat(0, A, "/d/f2", (FILE, 2, etag_of(b"xx")))
    assert check.check_stat(0, A, "/d", (DIR, 0, ""))
    assert check.check_list(0, A, "/d", None, None, page(model, ["f1", "f2", "f3", "f4", "f5"]))
    assert check.check_list(0, A, "/d", "f2", 2, page(model, ["f3", "f4"]))
    assert check.check_list(0, A, "/d", "f4", 5, page(model, ["f5"]))
    assert check.errors == []


def test_wrong_bytes():
    _, check = build()
    assert not check.check_read(0, A, "/d/f3", b"xxy")
    assert not check.check_read(0, A, "/d/f3", b"xx")


def test_dropped_entry():
    model, check = build()
    assert not check.check_list(0, A, "/d", None, None, page(model, ["f1", "f2", "f4", "f5"]))
    # a short page that stops early also drops entries
    assert not check.check_list(0, A, "/d", "f1", 10, page(model, ["f2", "f3"]))


def test_extra_entry():
    model, check = build()
    extra = page(model, ["f1", "f2", "f3", "f4", "f5"]) + [("f6", FILE, 1, etag_of(b"x"))]
    assert not check.check_list(0, A, "/d", None, None, extra)


def test_stale_page_boundary():
    model, check = build()
    # the page repeats the marker itself
    assert not check.check_list(0, A, "/d", "f2", 2, page(model, ["f2", "f3"]))
    # the page skips the first entry after the marker
    assert not check.check_list(0, A, "/d", "f2", 2, page(model, ["f4", "f5"]))
    # more entries than the limit
    assert not check.check_list(0, A, "/d", None, 2, page(model, ["f1", "f2", "f3"]))


def test_deleted_name_still_visible():
    model, check = build()
    listing = page(model, ["f1", "f2", "f3", "f4", "f5"])
    model.apply(Op("delete", 0, A, "/d/f3", None))
    assert not check.check_list(0, A, "/d", None, None, listing)
    assert not check.check_stat(0, A, "/d/f3", (FILE, 3, etag_of(b"xxx")))
    assert not check.check_read(0, A, "/d/f3", b"xxx")


def test_wrong_stat_size_or_kind():
    _, check = build()
    assert not check.check_stat(0, A, "/d/f2", (FILE, 3, etag_of(b"xx")))
    assert not check.check_stat(0, A, "/d/f2", (DIR, 0, ""))
    assert not check.check_stat(0, A, "/d", (FILE, 0, ""))


def test_wrong_listing_metadata():
    model, check = build()
    listing = page(model, ["f1", "f2", "f3", "f4", "f5"])
    listing[1] = ("f2", FILE, 99, listing[1][3])
    assert not check.check_list(0, A, "/d", None, None, listing)


def test_other_middlewares_writes_are_uncertain_until_a_drain():
    model, check = build()
    before = page(model, ["f1", "f2", "f3", "f4", "f5"])
    model.apply(Op("delete", 1, A, "/d/f3", None))
    model.apply(Op("write", 1, A, "/d/f9", b"new"))
    after = page(model, ["f1", "f2", "f4", "f5", "f9"])
    # middleware 0 may see either state of middleware 1's names ...
    assert check.check_list(0, A, "/d", None, None, before)
    assert check.check_list(0, A, "/d", None, None, after)
    # ... but middleware 1 must see its own writes
    assert not check.check_list(1, A, "/d", None, None, before)
    assert check.check_list(1, A, "/d", None, None, after)
    # and after a drain everybody must see them
    model.settle()
    assert not check.check_list(0, A, "/d", None, None, before)
    assert check.check_list(0, A, "/d", None, None, after)
