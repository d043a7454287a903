"""A small DPLL SAT solver with two-watched-literal unit propagation.

Written from scratch for the oracle-guided SAT attack on the digital
locking baselines.  It is a classic iterative DPLL with no learning:

* **Order.** Variables are tried in one static order, most-occurring
  first: a stable sort by the number of literal occurrences of each
  variable, where a literal repeated inside a clause counts twice.
* **Decisions.** The first unassigned variable in that order is set
  true; chronological backtracking undoes the trail to the last
  decision and re-asserts it false as a forced (non-decision) literal.
* **Unit rule.** A clause forces a literal when exactly one literal
  *occurrence* is unassigned and none is true; it conflicts when every
  occurrence is false.  Occurrences, not distinct literals, are
  counted, so ``(a, a, b)`` with ``b`` false forces nothing, and an
  empty clause conflicts before the first decision.

Propagation watches two clause *positions*, so a clause is visited only
when one of its watched occurrences turns false.  The unit rule is
monotone (its premises are false literals), so propagation reaches the
same fixpoint, or a conflict, whatever order clauses are visited in.
Backtracking undoes every literal implied since the last decision, so
the decisions taken, their count and the final model depend only on
the clause multiset and the static order — not on the propagation
scheme.  That is why this solver replays a plain clause scan step for
step, and why the SAT attack's distinguishing inputs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SatResult:
    """Solver outcome.

    Attributes:
        satisfiable: Whether a model exists.
        assignment: A satisfying assignment (variable -> bool) when
            satisfiable; empty otherwise.
        decisions: Number of branching decisions taken.
    """

    satisfiable: bool
    assignment: dict[int, bool] = field(default_factory=dict)
    decisions: int = 0


class SatSolver:
    """DPLL over a fixed clause list (see the module docstring)."""

    def __init__(self, n_vars: int, clauses: list[tuple[int, ...]]):
        self.n_vars = n_vars
        self.clauses = [tuple(c) for c in clauses]
        occurrences = [0] * (n_vars + 1)
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > n_vars:
                    raise ValueError(f"literal {lit} out of range")
                occurrences[abs(lit)] += 1
        # Static branching order: most-occurring variables first.
        self._order = sorted(range(1, n_vars + 1), key=lambda v: -occurrences[v])

    def solve(self, max_decisions: int = 2_000_000) -> SatResult:
        """Run DPLL; raises RuntimeError past ``max_decisions``."""
        n_vars = self.n_vars
        # Indexed by signed literal: 2n+1 slots, so Python's negative
        # indexing puts literal -v in slot 2n+1-v with no offset.
        value: list[bool | None] = [None] * (2 * n_vars + 1)
        # watches[lit]: clauses (mutable literal lists) whose position 0
        # or 1 holds ``lit``; a clause watching ``lit`` twice is listed
        # twice.
        watches: list[list[list[int]]] = [[] for _ in range(2 * n_vars + 1)]
        trail: list[int] = []  # assigned literals, in assignment order
        for clause in self.clauses:
            if len(clause) >= 2:
                lits = list(clause)
                watches[lits[0]].append(lits)
                watches[lits[1]].append(lits)
            elif not clause or value[clause[0]] is False:
                return SatResult(satisfiable=False)
            elif value[clause[0]] is None:
                value[clause[0]] = True
                value[-clause[0]] = False
                trail.append(clause[0])

        order = self._order
        # (trail index, order index) of each open decision.  Every
        # variable before ``next_free`` in ``order`` is assigned; those
        # before a decision's order index stay assigned when it is undone.
        decided: list[tuple[int, int]] = []
        next_free = 0
        decisions = 0
        qhead = 0
        while True:
            conflict = False
            while qhead < len(trail):
                false_lit = -trail[qhead]
                qhead += 1
                ws = watches[false_lit]
                if not ws:
                    continue
                kept: list[list[int]] = []
                for i, lits in enumerate(ws):
                    # Move the falsified watch to position 1.
                    other = lits[0]
                    if other == false_lit:
                        other = lits[1]
                        lits[0] = other
                        lits[1] = false_lit
                    if value[other] is True:
                        kept.append(lits)
                        continue
                    for k in range(2, len(lits)):
                        lit = lits[k]
                        if value[lit] is not False:
                            lits[1] = lit
                            lits[k] = false_lit
                            watches[lit].append(lits)
                            break
                    else:
                        # Every occurrence but position 0 is false.
                        kept.append(lits)
                        if value[other] is None:
                            value[other] = True
                            value[-other] = False
                            trail.append(other)
                        else:
                            conflict = True
                            kept.extend(ws[i + 1 :])
                            break
                watches[false_lit] = kept
                if conflict:
                    break

            if conflict:
                if not decided:
                    return SatResult(satisfiable=False, decisions=decisions)
                # Undo to the last decision and flip it as a forced literal.
                qhead, next_free = decided.pop()
                lit = trail[qhead]
                for undone in trail[qhead:]:
                    value[undone] = None
                    value[-undone] = None
                del trail[qhead:]
                value[-lit] = True
                value[lit] = False
                trail.append(-lit)
                continue

            while next_free < n_vars and value[order[next_free]] is not None:
                next_free += 1
            if next_free == n_vars:
                return SatResult(
                    satisfiable=True,
                    assignment={abs(lit): lit > 0 for lit in trail},
                    decisions=decisions,
                )
            decisions += 1
            if decisions > max_decisions:
                raise RuntimeError(f"decision budget exceeded ({max_decisions})")
            var = order[next_free]
            decided.append((len(trail), next_free))
            value[var] = True
            value[-var] = False
            trail.append(var)


def solve_cnf(n_vars: int, clauses: list[tuple[int, ...]], max_decisions: int = 2_000_000) -> SatResult:
    """One-shot convenience wrapper around :class:`SatSolver`."""
    return SatSolver(n_vars, clauses).solve(max_decisions)
