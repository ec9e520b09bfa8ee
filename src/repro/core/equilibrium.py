"""A complete solved description of one swap game.

A solved game is a handful of numbers: Alice's reveal threshold
(Eq. (18)), Bob's ``t2`` continuation region (Eq. (24)), both agents'
``t1`` stage utilities at the initial price (Eqs. (25)-(28)) and the
success rate (Eq. (31)). :class:`SwapEquilibrium` -- the result object
of :func:`repro.core.solver.solve_swap_game` -- stores exactly those,
with the game's ``params`` and ``pstar``; the Section IV and premium
records add their stake. Every decision and strategy follows from the
stored numbers and is derived once, in :class:`SolvedGame`, which also
builds a record from a solver.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Tuple

from repro.core.parameters import SwapParameters
from repro.core.strategy import AliceStrategy, BobStrategy
from repro.stochastic.rootfind import IntervalUnion

__all__ = ["INDIFFERENT_ACTION", "SolvedGame", "StageUtilities", "SwapEquilibrium"]


#: The canonical indifference convention, applied everywhere a
#: ``U(cont) == U(stop)`` tie can occur: an indifferent agent **stops**.
#: The paper's best responses (Eqs. (19), (24), (30)) all require a
#: *strict* utility improvement to continue, so we resolve ties the
#: same way at every decision point -- ``best_action`` here, Alice's
#: ``P_{t3}`` threshold comparison, Bob's ``t2`` region membership, and
#: the vectorised Monte Carlo counts all break ties to ``"stop"``. The
#: tie set has probability zero under the continuous price law, so this
#: is purely a determinism/consistency contract, not a modelling choice.
INDIFFERENT_ACTION = "stop"


@dataclass(frozen=True)
class StageUtilities:
    """cont/stop utilities of one agent at one decision point."""

    cont: float
    stop: float

    @property
    def best_action(self) -> str:
        """The utility-maximising action (ties: :data:`INDIFFERENT_ACTION`)."""
        return "cont" if self.cont > self.stop else INDIFFERENT_ACTION

    @property
    def advantage(self) -> float:
        """``U(cont) - U(stop)``."""
        return self.cont - self.stop

    @property
    def is_indifferent(self) -> bool:
        """Whether the agent is exactly indifferent (``advantage == 0``)."""
        return self.cont == self.stop


class SolvedGame:
    """What every solved-game record derives from what it stores.

    A record (:class:`SwapEquilibrium`,
    :class:`~repro.core.collateral.CollateralEquilibrium`,
    :class:`~repro.core.premium.PremiumEquilibrium`) is a frozen
    dataclass of what its solver found: ``params``, ``pstar``, the
    mechanism's stake (if any), ``p3_threshold``, ``bob_t2_region``,
    ``alice_t1``, ``bob_t1`` and ``success_rate``, in that order, which
    is also the order of its wire keys. The ``t1`` decisions and both
    strategies are the read-only properties below, and
    :meth:`from_solver` is the one way a solver becomes a record.
    """

    @classmethod
    def from_solver(cls, solver):
        """The record of ``solver``'s equilibrium.

        ``solver`` is a :class:`~repro.core.backward_induction.BackwardInduction`
        of the record's mechanism; a stake field (``collateral``,
        ``premium``) is read off it under the same name.
        """
        solved = {
            "params": solver.params,
            "pstar": solver.pstar,
            "p3_threshold": solver.p3_threshold(),
            "bob_t2_region": solver.bob_t2_region(),
            "alice_t1": StageUtilities(
                cont=solver.alice_t1_cont(), stop=solver.alice_t1_stop()
            ),
            "bob_t1": StageUtilities(cont=solver.bob_t1_cont(), stop=solver.bob_t1_stop()),
            "success_rate": solver.success_rate(),
        }
        stake = {f.name: getattr(solver, f.name) for f in fields(cls) if f.name not in solved}
        return cls(**solved, **stake)

    @property
    def alice_engages(self) -> bool:
        """Alice's ``t1`` decision (Eq. (30)): continuing strictly beats stopping."""
        return self.alice_t1.advantage > 0.0

    @property
    def bob_engages(self) -> bool:
        """Bob's ``t1`` decision: continuing strictly beats keeping his token."""
        return self.bob_t1.advantage > 0.0

    @property
    def alice_strategy(self) -> AliceStrategy:
        """Alice's policy: her ``t1`` decision and reveal threshold."""
        return AliceStrategy(initiate_at_t1=self.alice_engages, p3_threshold=self.p3_threshold)

    @property
    def bob_strategy(self) -> BobStrategy:
        """Bob's policy: lock inside his ``t2`` region."""
        return BobStrategy(t2_region=self.bob_t2_region)


@dataclass(frozen=True)
class SwapEquilibrium(SolvedGame):
    """Solved swap game at a fixed exchange rate.

    Attributes
    ----------
    params, pstar:
        The game being solved.
    p3_threshold:
        Alice's reveal threshold ``P̲_{t3}`` (Eq. (18)).
    bob_t2_region:
        Bob's ``t2`` continuation region (Eq. (24)).
    alice_t1, bob_t1:
        Stage utilities at ``t1`` (Eqs. (25)-(28)), evaluated at
        ``P_{t1} = p0``.
    success_rate:
        Eq. (31), conditional on initiation.

    Derived (:class:`SolvedGame`): ``initiated``, whether Alice
    initiates at ``t1`` (Eq. (30)), and the executable policies
    ``alice_strategy`` and ``bob_strategy``.
    """

    params: SwapParameters
    pstar: float
    p3_threshold: float
    bob_t2_region: IntervalUnion
    alice_t1: StageUtilities
    bob_t1: StageUtilities
    success_rate: float

    #: Alice's ``t1`` decision, under the basic game's name.
    initiated = SolvedGame.alice_engages

    @property
    def bob_t2_bounds(self) -> Optional[Tuple[float, float]]:
        """Endpoints ``(P̲_{t2}, P̄_{t2})`` or ``None`` if Bob never locks."""
        if self.bob_t2_region.is_empty:
            return None
        return self.bob_t2_region.bounds()

    @property
    def unconditional_success_rate(self) -> float:
        """Success probability including the initiation decision."""
        return self.success_rate if self.initiated else 0.0

    def summary(self) -> str:
        """Human-readable one-paragraph description."""
        lines = [
            f"Swap game at P* = {self.pstar:.4f} (spot p0 = {self.params.p0:.4f})",
            f"  Alice reveal threshold  P̲_t3 = {self.p3_threshold:.4f}",
        ]
        bounds = self.bob_t2_bounds
        if bounds is None:
            lines.append("  Bob continuation region : empty (swap cannot succeed)")
        else:
            lines.append(
                f"  Bob continuation region : ({bounds[0]:.4f}, {bounds[1]:.4f})"
                + (f" in {len(self.bob_t2_region)} piece(s)" if len(self.bob_t2_region) > 1 else "")
            )
        lines.append(
            f"  Alice t1: cont={self.alice_t1.cont:.4f} stop={self.alice_t1.stop:.4f}"
            f" -> {'initiates' if self.initiated else 'does not initiate'}"
        )
        lines.append(
            f"  Bob   t1: cont={self.bob_t1.cont:.4f} stop={self.bob_t1.stop:.4f}"
        )
        lines.append(f"  Success rate (Eq. 31)   : {self.success_rate:.4f}")
        return "\n".join(lines)
