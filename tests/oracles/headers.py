"""Reference header map: a list of ``(name, value)`` pairs, one tuple
per header — what ``repro.core.model.Headers`` stored before it kept a
tuple of names beside a tuple of values."""


class Headers:
    """Case-insensitive, order-preserving HTTP header multimap."""

    __slots__ = ("_items", "version")

    def __init__(self, items: list[tuple[str, str]] | dict[str, str] | None = None):
        if isinstance(items, dict):
            self._items: list[tuple[str, str]] = list(items.items())
        else:
            self._items = list(items or [])
        self.version = 0

    def get(self, name: str, default: str = "") -> str:
        lowered = name.lower()
        for key, value in self._items:
            if key == name or key.lower() == lowered:
                return value
        return default

    def set(self, name: str, value: str) -> None:
        lowered = name.lower()
        self._items = [(k, v) for k, v in self._items if k.lower() != lowered]
        self._items.append((name, value))
        self.version += 1

    def add(self, name: str, value: str) -> None:
        self._items.append((name, value))
        self.version += 1

    def remove(self, name: str) -> None:
        lowered = name.lower()
        self._items = [(k, v) for k, v in self._items if k.lower() != lowered]
        self.version += 1

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and any(
            key.lower() == name.lower() for key, _ in self._items
        )

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Headers):
            return NotImplemented
        return self._items == other._items

    def __repr__(self) -> str:
        return f"Headers({self._items!r})"

    def copy(self) -> "Headers":
        return Headers(list(self._items))

    def items(self) -> list[tuple[str, str]]:
        return list(self._items)
