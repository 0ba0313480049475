"""Greedy framework for minimizing a decreasing potential plus a payment.

A problem exposes a potential over solution states (non-increasing under
augmentation), a target potential value, and an oracle producing a
minimum-density augmentation for the current state.  The greedy loop accepts
augmentations while their density (payment per unit of potential decrease)
stays at most 1 and the potential sits above the target; the execution trace
supports the logarithmic ratio certificate checked by the bench harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional, Protocol, TypeVar

from .errors import DomainError, OracleViolation

S = TypeVar("S")


@dataclass(frozen=True)
class Augmentation:
    """One candidate step: an opaque payload, its payment, and the potential
    the oracle predicts for the augmented state."""

    payload: Any
    payment: Fraction
    predicted_potential: Fraction


class GmcProblem(Protocol[S]):
    def initial_state(self) -> S: ...

    def potential(self, state: S) -> Fraction: ...

    def target(self) -> Fraction: ...

    def best_augmentation(self, state: S) -> Optional[Augmentation]: ...

    def apply(self, state: S, augmentation: Augmentation) -> S: ...


@dataclass(frozen=True)
class TraceStep:
    payment: Fraction
    potential_before: Fraction
    potential_after: Fraction


@dataclass
class GreedyTrace:
    initial_potential: Fraction
    steps: list[TraceStep] = field(default_factory=list)

    @property
    def final_potential(self) -> Fraction:
        return self.steps[-1].potential_after if self.steps else self.initial_potential

    def total_payment(self) -> Fraction:
        return sum((s.payment for s in self.steps), Fraction(0))

    def to_doc(self) -> dict:
        return {
            "initial_potential": str(self.initial_potential),
            "steps": [
                {
                    "step": i,
                    "payment": str(s.payment),
                    "potential_before": str(s.potential_before),
                    "potential_after": str(s.potential_after),
                }
                for i, s in enumerate(self.steps)
            ],
        }


def gmc_greedy(problem: GmcProblem[S]) -> tuple[S, GreedyTrace]:
    """Run the density greedy until the target is reached or no augmentation
    with density <= 1 remains.

    A returned augmentation must never increase the potential, and the
    applied state must have the potential it predicted (OracleViolation,
    also under ``python -O``); zero-gain augmentations stop the loop even at zero
    payment, which guarantees termination.
    """
    state = problem.initial_state()
    nu = problem.potential(state)
    nu_star = problem.target()
    trace = GreedyTrace(initial_potential=nu)
    while nu > nu_star:
        aug = problem.best_augmentation(state)
        if aug is None:
            break
        if aug.predicted_potential > nu:
            raise OracleViolation(
                f"augmentation raises potential {nu} -> {aug.predicted_potential}"
            )
        gain = nu - aug.predicted_potential
        if gain == 0 or aug.payment > gain:
            # Density above 1 (or no gain at all): every further augmentation
            # pays more than it saves, so the caller finishes differently.
            break
        state = problem.apply(state, aug)
        actual = problem.potential(state)
        if actual != aug.predicted_potential:
            raise OracleViolation(
                f"oracle predicted potential {aug.predicted_potential}, got {actual}"
            )
        trace.steps.append(TraceStep(aug.payment, nu, aug.predicted_potential))
        nu = aug.predicted_potential
    return state, trace


def greedy_ratio_bound(nu0: Fraction, nu_star: Fraction, tau_star: Fraction) -> float:
    """Worst-case ratio of the density greedy against an optimum splitting
    into payment ``tau_star`` and residual potential ``nu_star``:
    1 + tau*/(tau* + nu*) * ln((nu0 - nu*)/tau*), clamped at 1.
    """
    if tau_star <= 0:
        raise DomainError(f"tau_star must be positive, got {tau_star}")
    if nu0 <= nu_star:
        raise DomainError("initial potential must exceed the target")
    spread = (nu0 - nu_star) / tau_star
    if spread <= 1:
        return 1.0
    opt = tau_star + nu_star
    return 1.0 + float(tau_star / opt) * math.log(float(spread))


def trace_payment_bound(
    trace: GreedyTrace, nu_star: Fraction, tau_star: Fraction
) -> float:
    """Upper bound on the total greedy payment implied by the certificate:
    tau* + nu* - nu_final + tau* * ln((nu0 - nu*)/tau*).

    Only meaningful when nu0 > nu* + tau*; callers guard on that.
    """
    if tau_star <= 0:
        raise DomainError(f"tau_star must be positive, got {tau_star}")
    spread = (trace.initial_potential - nu_star) / tau_star
    log_term = math.log(float(spread)) if spread > 1 else 0.0
    return float(tau_star + nu_star - trace.final_potential) + float(tau_star) * log_term
