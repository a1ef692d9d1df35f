"""Syntactic equality of terms and machine values, names included.

Terms are ``eq=False`` dataclasses, so ``==`` on them is identity, and
``alpha_eq`` ignores the names of bound variables.  Neither can tell
apart two decompilations of one state that name a binder differently,
nor two runs' closures over equal environments.  `same` compares slot
by slot instead, and shared structure is compared once.
"""


def same(a, b) -> bool:
    todo = [(a, b)]
    seen = set()
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        cls = a.__class__
        if cls is not b.__class__:
            return False
        key = (id(a), id(b))
        if key in seen:
            continue
        seen.add(key)
        if cls is tuple or cls is list:
            if len(a) != len(b):
                return False
            todo.extend(zip(a, b))
        elif cls is dict:
            if a.keys() != b.keys():
                return False
            todo.extend((a[k], b[k]) for k in a)
        elif hasattr(cls, "__slots__"):  # empty slots too: `UnitVal() != UnitVal()`
            todo.extend((getattr(a, f), getattr(b, f)) for f in cls.__slots__)
        elif a != b:
            return False
    return True


def same_state(a, b) -> bool:
    """Two stopped machine states hold the same configuration."""

    return same(
        (a.comp, a.env, a.kont, a.store, a.memo),
        (b.comp, b.env, b.kont, b.store, b.memo),
    )
