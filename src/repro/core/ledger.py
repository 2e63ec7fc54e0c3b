"""Round accounting with sequential and parallel composition.

The paper charges rounds exactly the way a ledger tree composes:
sequential stages add (``T = T_1 + T_2``), independent sub-instances
solved "in parallel by the same algorithm" take the maximum
(``T = max_i T_i``), and primitive subroutines contribute their
measured simulated rounds.  :class:`RoundLedger` records that tree so
benchmarks can report both the total and the per-lemma breakdown, and
carries named counters for structural statistics (recursion depth,
fallback engagements, deferred edges, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class LedgerEntry:
    """One node of the accounting tree."""

    label: str
    mode: str  # "seq", "par", or "leaf"
    rounds: int = 0  # only meaningful for leaves
    children: list["LedgerEntry"] = field(default_factory=list)

    def total(self) -> int:
        """Total rounds of the subtree under this entry."""
        if self.mode == "leaf":
            return self.rounds
        child_totals = [child.total() for child in self.children]
        if self.mode == "par":
            return max(child_totals, default=0)
        return sum(child_totals)

    def render(self, indent: int = 0, max_depth: int | None = None) -> list[str]:
        """Pretty-print the subtree as indented lines."""
        marker = {"seq": "+", "par": "|", "leaf": "."}[self.mode]
        lines = [f"{'  ' * indent}{marker} {self.label}: {self.total()}"]
        if max_depth is not None and indent >= max_depth:
            return lines
        for child in self.children:
            lines.extend(child.render(indent + 1, max_depth))
        return lines


class _Block:
    """The context manager :meth:`RoundLedger.sequential` and
    :meth:`RoundLedger.parallel` return.

    Entering appends a new entry at the cursor and moves the cursor
    into it; leaving moves the cursor back out, also when the block
    raises.
    """

    __slots__ = ("_stack", "_label", "_mode")

    def __init__(self, stack: list[LedgerEntry], label: str, mode: str) -> None:
        self._stack = stack
        self._label = label
        self._mode = mode

    def __enter__(self) -> None:
        stack = self._stack
        entry = LedgerEntry(label=self._label, mode=self._mode)
        stack[-1].children.append(entry)
        stack.append(entry)

    def __exit__(self, *exc_info: object) -> None:
        self._stack.pop()


class RoundLedger:
    """A mutable accounting tree with a cursor.

    Usage::

        ledger = RoundLedger()
        ledger.charge("initial coloring", 5)
        with ledger.sequential("Lemma 4.2"):
            ledger.charge("defective coloring", 7)
            with ledger.parallel("subspaces"):
                with ledger.sequential("subspace 0"):
                    ledger.charge("greedy", 3)
                with ledger.sequential("subspace 1"):
                    ledger.charge("greedy", 9)
        ledger.total_rounds()   # 5 + (7 + max(3, 9)) = 21
    """

    def __init__(self, label: str = "total") -> None:
        self._root = LedgerEntry(label=label, mode="seq")
        self._stack: list[LedgerEntry] = [self._root]
        self._counters: dict[str, int] = {}

    # -- round charges -------------------------------------------------

    def charge(self, label: str, rounds: int) -> None:
        """Record ``rounds`` for a primitive step at the cursor."""
        if rounds < 0:
            raise ValueError(f"cannot charge negative rounds ({rounds})")
        self._stack[-1].children.append(
            LedgerEntry(label=label, mode="leaf", rounds=rounds)
        )

    def attach(self, entry: LedgerEntry) -> None:
        """Append a subtree built by the caller at the cursor, in one
        step; the cursor stays where it is."""
        self._stack[-1].children.append(entry)

    def sequential(self, label: str) -> "_Block":
        """Open a child whose sub-charges add up."""
        return _Block(self._stack, label, "seq")

    def parallel(self, label: str) -> "_Block":
        """Open a child whose sub-charges take the maximum.

        Direct :meth:`charge` calls inside a parallel block are treated
        as independent branches (each leaf is a child).
        """
        return _Block(self._stack, label, "par")

    # -- counters --------------------------------------------------------

    def bump(self, counter: str, amount: int = 1) -> None:
        """Increment a named structural counter."""
        self._counters[counter] = self._counters.get(counter, 0) + amount

    def record_max(self, counter: str, value: int) -> None:
        """Keep the maximum of ``value`` seen under ``counter``."""
        self._counters[counter] = max(self._counters.get(counter, 0), value)

    def counter(self, name: str) -> int:
        """Return the value of a counter (0 if never bumped)."""
        return self._counters.get(name, 0)

    def counters(self) -> dict[str, int]:
        """Return a copy of all counters."""
        return dict(self._counters)

    # -- reporting -------------------------------------------------------

    def total_rounds(self) -> int:
        """Total rounds of the whole execution."""
        return self._root.total()

    def breakdown(self, max_depth: int | None = 3) -> str:
        """Return a human-readable tree of charges."""
        return "\n".join(self._root.render(0, max_depth))

    @property
    def root(self) -> LedgerEntry:
        """The root entry (read access for tests and analysis)."""
        return self._root

    # -- freezing --------------------------------------------------------

    def freeze(self) -> None:
        """Make this ledger read-only; a result freezes the ledger it carries.

        Child lists become tuples, and the instance turns into a
        :class:`FrozenRoundLedger`, whose charges, blocks and counter
        updates raise — the hot :meth:`charge` path stays check-free.
        """
        pending = [self._root]
        while pending:
            entry = pending.pop()
            entry.children = tuple(entry.children)  # type: ignore[assignment]
            pending.extend(entry.children)
        self._stack = [self._root]
        self.__class__ = FrozenRoundLedger


class FrozenRoundLedger(RoundLedger):
    """A :class:`RoundLedger` after :meth:`~RoundLedger.freeze`."""

    def _refuse(self, *args: object, **kwargs: object) -> None:
        raise TypeError("a frozen RoundLedger cannot be changed")

    charge = attach = sequential = parallel = bump = record_max = _refuse  # type: ignore[assignment]

    def freeze(self) -> None:
        """Already frozen: nothing to do."""
