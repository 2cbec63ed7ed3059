"""Declared types and bounds of dataclass fields: `check` applies them to
an object from its `__post_init__` (which `checked_dataclass` sets to
it), and `build` makes an object from a JSON object, naming a bad value
by its dotted key."""

from __future__ import annotations

import dataclasses
import functools
import math
import typing

from .errors import ContractError


def bounded(least=None, *, above=None, **field_kwargs):
    """A dataclass field whose value must be >= `least` or > `above`."""
    return dataclasses.field(metadata={"least": least, "above": above},
                             **field_kwargs)


def fits(value, hint) -> bool:
    """Whether a value has the annotated type: a bool is not an int, a
    float field takes an int but not a NaN or an infinity (JSON `NaN`
    and `Infinity` parse), `list[T]`/`dict[str, T]` check items."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Literal:
        return any(type(value) is type(a) and value == a for a in args)
    if origin in (list, dict):
        items = value.values() if type(value) is dict else value
        return type(value) is origin and all(fits(v, args[-1]) for v in items)
    if args:  # a union such as `str | None`
        return any(fits(value, arg) for arg in args)
    if hint is float:
        return type(value) is int or (type(value) is float
                                      and math.isfinite(value))
    return type(value) is hint


@functools.cache
def _declared(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.metadata.get("least"),
                     f.metadata.get("above")) for f in dataclasses.fields(cls)}


def _problem(cls, name: str, value) -> str:
    """Why `value` does not suit field `name` of `cls`; "" if it does."""
    hint, least, above = _declared(cls)[name]
    if type(value) is float and not math.isfinite(value):
        return f": {value!r} is not finite"
    if not fits(value, hint):
        return (f": {value!r} is not of type "
                f"{hint.__name__ if type(hint) is type else hint}")
    if least is not None and not value >= least:
        return f" must be >= {least}"
    if above is not None and not value > above:
        return f" must be > {above}"
    return ""


def check(obj, error=ContractError) -> None:
    """Raise `error` for the first field of `obj` off its type or bound."""
    for name in _declared(type(obj)):
        if problem := _problem(type(obj), name, getattr(obj, name)):
            raise error(name + problem)


def checked_dataclass(cls):
    """`dataclass(cls)` whose `__init__` ends in `check`."""
    cls.__post_init__ = check
    return dataclasses.dataclass(cls)


def build(cls, data, path: str, error):
    """`cls` from a JSON object, its dataclass-typed fields from nested
    objects; a bad key or value raises `error` naming its dotted key."""
    if not isinstance(data, dict):
        raise error(f"{path}: expected an object")
    kwargs = {}
    for name, value in data.items():
        where = f"{path}.{name}" if path else name
        if name not in _declared(cls):
            raise error(f"unknown config key '{where}'")
        hint = _declared(cls)[name][0]
        if dataclasses.is_dataclass(hint):
            value = build(hint, value, where, error)
        elif problem := _problem(cls, name, value):
            raise error(where + problem)
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ContractError) as exc:
        raise error(f"{path or cls.__name__}: {exc}") from exc
