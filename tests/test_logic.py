"""Logic substrate tests: netlists, bench circuits, locking, CNF, SAT."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.attacks.sat_attack as sat_attack_module
from repro.attacks import SatAttack
from repro.logic import (
    CnfBuilder,
    Gate,
    Netlist,
    SatResult,
    SatSolver,
    decimation_controller,
    encode_netlist,
    functional_under_key,
    lock_netlist,
    magnitude_comparator,
    parity_tree,
    ripple_adder,
    sar_optimizer_step,
    solve_cnf,
)


class ClauseScanSolver:
    """The clause-scanning DPLL the watched-literal solver replaced.

    Kept verbatim as the differential reference: the watched-literal
    solver must reproduce its satisfiability, model and decision count
    on every input.
    """

    def __init__(self, n_vars: int, clauses: list[tuple[int, ...]]):
        self.n_vars = n_vars
        self.clauses = [tuple(c) for c in clauses]
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > n_vars:
                    raise ValueError(f"literal {lit} out of range")
        # Occurrence lists: variable -> clause indices.
        self._occurs: dict[int, list[int]] = {v: [] for v in range(1, n_vars + 1)}
        for idx, clause in enumerate(self.clauses):
            for lit in clause:
                self._occurs[abs(lit)].append(idx)

    def solve(self, max_decisions: int = 2_000_000) -> SatResult:
        """Run DPLL; raises RuntimeError past ``max_decisions``."""
        assignment: dict[int, bool] = {}
        trail: list[tuple[int, bool]] = []  # (var, was_decision)
        decisions = 0

        def value(lit: int) -> bool | None:
            v = assignment.get(abs(lit))
            if v is None:
                return None
            return v if lit > 0 else not v

        def assign(lit: int, is_decision: bool) -> None:
            assignment[abs(lit)] = lit > 0
            trail.append((abs(lit), is_decision))

        def propagate() -> bool:
            """Unit propagation to fixpoint; False on conflict."""
            changed = True
            while changed:
                changed = False
                for clause in self.clauses:
                    unassigned = None
                    n_unassigned = 0
                    satisfied = False
                    for lit in clause:
                        v = value(lit)
                        if v is True:
                            satisfied = True
                            break
                        if v is None:
                            unassigned = lit
                            n_unassigned += 1
                    if satisfied:
                        continue
                    if n_unassigned == 0:
                        return False
                    if n_unassigned == 1:
                        assign(unassigned, is_decision=False)
                        changed = True
            return True

        def backtrack() -> bool:
            """Undo to the last decision and flip it; False if none left."""
            while trail:
                var, was_decision = trail.pop()
                val = assignment.pop(var)
                if was_decision:
                    # Flip: re-assign as a forced (non-decision) value.
                    assign(var if not val else -var, is_decision=False)
                    return True
            return False

        # Static branching order: most-occurring variables first.
        order = sorted(
            range(1, self.n_vars + 1),
            key=lambda v: -len(self._occurs[v]),
        )

        while True:
            if not propagate():
                if not backtrack():
                    return SatResult(satisfiable=False, decisions=decisions)
                continue
            free = next((v for v in order if v not in assignment), None)
            if free is None:
                return SatResult(
                    satisfiable=True, assignment=dict(assignment), decisions=decisions
                )
            decisions += 1
            if decisions > max_decisions:
                raise RuntimeError(f"decision budget exceeded ({max_decisions})")
            assign(free, is_decision=True)


def _outcome(solver, max_decisions: int = 2_000_000):
    """(satisfiable, model, decisions), or the budget error's message."""
    try:
        result = solver.solve(max_decisions)
    except RuntimeError as exc:
        return str(exc)
    return result.satisfiable, result.assignment, result.decisions


@st.composite
def random_cnfs(draw):
    """1-14 variables, 0-60 clauses of width 1-4, unit clauses included.

    Literals are drawn independently, so duplicate literals and
    complementary pairs inside a clause are common on few variables.
    One formula in ten also gets an empty clause at a random position.
    """
    n_vars = draw(st.integers(1, 14))
    literal = st.builds(
        lambda var, positive: var if positive else -var,
        st.integers(1, n_vars),
        st.booleans(),
    )
    clause = st.lists(literal, min_size=1, max_size=4).map(tuple)
    clauses = draw(st.lists(clause, max_size=60))
    if draw(st.integers(0, 9)) == 0:
        clauses.insert(draw(st.integers(0, len(clauses))), ())
    return n_vars, clauses


class TestGates:
    def test_gate_arity_guards(self):
        with pytest.raises(ValueError):
            Gate("y", "NOT", ("a", "b"))
        with pytest.raises(ValueError):
            Gate("y", "MUX", ("a", "b"))
        with pytest.raises(ValueError):
            Gate("y", "AND", ("a",))
        with pytest.raises(ValueError):
            Gate("y", "FOO", ("a", "b"))

    def test_basic_truth_tables(self):
        net = Netlist("t", inputs=["a", "b"])
        net.add_gate("and_", "AND", "a", "b")
        net.add_gate("or_", "OR", "a", "b")
        net.add_gate("xor_", "XOR", "a", "b")
        net.add_gate("nand_", "NAND", "a", "b")
        net.outputs = ["and_", "or_", "xor_", "nand_"]
        for a, b in itertools.product((0, 1), repeat=2):
            out = net.evaluate({"a": a, "b": b})
            assert out["and_"] == (a & b)
            assert out["or_"] == (a | b)
            assert out["xor_"] == (a ^ b)
            assert out["nand_"] == 1 - (a & b)

    def test_mux(self):
        net = Netlist("m", inputs=["s", "a", "b"])
        net.add_gate("y", "MUX", "s", "a", "b")
        net.outputs = ["y"]
        assert net.evaluate({"s": 0, "a": 1, "b": 0})["y"] == 1
        assert net.evaluate({"s": 1, "a": 1, "b": 0})["y"] == 0

    def test_combinational_loop_detected(self):
        net = Netlist("loop", inputs=["a"])
        net.add_gate("x", "AND", "a", "y")
        net.add_gate("y", "OR", "x", "a")
        net.outputs = ["y"]
        with pytest.raises(ValueError):
            net.validate()

    def test_undriven_net_detected(self):
        net = Netlist("u", inputs=["a"])
        net.add_gate("y", "AND", "a", "ghost")
        net.outputs = ["y"]
        with pytest.raises(ValueError):
            net.validate()

    def test_double_drive_rejected(self):
        net = Netlist("d", inputs=["a", "b"])
        net.add_gate("y", "AND", "a", "b")
        with pytest.raises(ValueError):
            net.add_gate("y", "OR", "a", "b")

    def test_missing_input_value(self):
        net = Netlist("mi", inputs=["a", "b"])
        net.add_gate("y", "AND", "a", "b")
        net.outputs = ["y"]
        with pytest.raises(KeyError):
            net.evaluate({"a": 1})


class TestBenchCircuits:
    def test_adder_exhaustive(self):
        add = ripple_adder(3)
        for a in range(8):
            for b in range(8):
                assert add.evaluate_word(a | (b << 3)) == a + b

    def test_comparator_exhaustive(self):
        cmp4 = magnitude_comparator(4)
        for a in range(16):
            for b in range(16):
                assert cmp4.evaluate_word(a | (b << 4)) == int(a > b)

    def test_parity(self):
        par = parity_tree(5)
        for word in range(32):
            assert par.evaluate_word(word) == bin(word).count("1") % 2

    def test_decimation_controller_spot_checks(self):
        net = decimation_controller()
        out = net.evaluate(
            {"std0": 1, "std1": 1, "std2": 1, "rate0": 0, "rate1": 0}
        )
        assert out["cic_clr"] == 1  # reserved code 7
        out = net.evaluate(
            {"std0": 0, "std1": 0, "std2": 0, "rate0": 1, "rate1": 1}
        )
        assert out["hb1_en"] == 0
        assert out["hb2_en"] == 0

    def test_sar_step_keeps_bit_when_higher(self):
        net = sar_optimizer_step(4)
        vec = {"higher": 1}
        for i in range(4):
            vec[f"code{i}"] = int(i == 3)
            vec[f"mask{i}"] = int(i == 3)
        out = net.evaluate(vec)
        assert out["next3"] == 1  # kept
        assert out["next2"] == 1  # next trial bit set

    def test_sar_step_clears_bit_when_lower(self):
        net = sar_optimizer_step(4)
        vec = {"higher": 0}
        for i in range(4):
            vec[f"code{i}"] = int(i == 3)
            vec[f"mask{i}"] = int(i == 3)
        out = net.evaluate(vec)
        assert out["next3"] == 0  # cleared
        assert out["next2"] == 1


class TestLocking:
    @pytest.mark.parametrize("maker", [decimation_controller, lambda: ripple_adder(3)])
    def test_correct_key_restores_function(self, maker, rng):
        original = maker()
        locked = lock_netlist(original, 6, rng)
        assert functional_under_key(locked, original, locked.correct_key, 40, rng)

    def test_wrong_key_breaks_function(self, rng):
        original = decimation_controller()
        locked = lock_netlist(original, 8, rng)
        wrong = locked.correct_key ^ 0b101
        assert not functional_under_key(locked, original, wrong, 64, rng)

    def test_too_many_key_bits_rejected(self, rng):
        with pytest.raises(ValueError):
            lock_netlist(parity_tree(3), 50, rng)

    def test_key_inputs_added(self, rng):
        locked = lock_netlist(parity_tree(4), 3, rng)
        assert sum(1 for n in locked.netlist.inputs if n.startswith("key")) == 3


class TestCnfAndSat:
    def test_simple_sat(self):
        b = CnfBuilder()
        x, y = b.new_var(), b.new_var()
        b.add_clause(x, y)
        b.add_clause(-x, y)
        result = solve_cnf(b.n_vars, b.clauses)
        assert result.satisfiable
        assert result.assignment[y] is True

    def test_simple_unsat(self):
        b = CnfBuilder()
        x = b.new_var()
        b.add_clause(x)
        b.add_clause(-x)
        assert not solve_cnf(b.n_vars, b.clauses).satisfiable

    def test_pigeonhole_unsat(self):
        b = CnfBuilder()
        v = {(i, j): b.new_var() for i in range(4) for j in range(3)}
        for i in range(4):
            b.add_clause(*[v[(i, j)] for j in range(3)])
        for j in range(3):
            for i1 in range(4):
                for i2 in range(i1 + 1, 4):
                    b.add_clause(-v[(i1, j)], -v[(i2, j)])
        assert not solve_cnf(b.n_vars, b.clauses).satisfiable

    def test_empty_clause_rejected(self):
        with pytest.raises(ValueError):
            CnfBuilder().add_clause()

    def test_literal_out_of_range(self):
        with pytest.raises(ValueError):
            solve_cnf(1, [(2,)])

    @given(st.integers(min_value=0, max_value=2**10 - 1))
    @settings(max_examples=25, deadline=None)
    def test_tseitin_equisatisfiable_with_evaluation(self, word):
        net = decimation_controller()
        # Pad/truncate the random word onto the 5 inputs.
        vec = {name: (word >> i) & 1 for i, name in enumerate(net.inputs)}
        builder = CnfBuilder()
        mapping = encode_netlist(builder, net)
        for name, val in vec.items():
            builder.add_clause(mapping[name] if val else -mapping[name])
        result = solve_cnf(builder.n_vars, builder.clauses)
        assert result.satisfiable
        reference = net.evaluate(vec)
        for out_net in net.outputs:
            assert result.assignment[mapping[out_net]] == bool(reference[out_net])

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_solver_agrees_with_brute_force_on_random_3sat(self, seed):
        rng = np.random.default_rng(seed)
        n_vars, n_clauses = 8, 28
        clauses = []
        for _ in range(n_clauses):
            lits = rng.choice(np.arange(1, n_vars + 1), size=3, replace=False)
            signs = rng.choice([-1, 1], size=3)
            clauses.append(tuple(int(s * l) for s, l in zip(signs, lits)))
        result = solve_cnf(n_vars, clauses)
        brute_sat = any(
            all(
                any(
                    (assignment >> (abs(l) - 1)) & 1 == (1 if l > 0 else 0)
                    for l in clause
                )
                for clause in clauses
            )
            for assignment in range(1 << n_vars)
        )
        assert result.satisfiable == brute_sat
        if result.satisfiable:
            for clause in clauses:
                assert any(
                    result.assignment.get(abs(l), False) == (l > 0) for l in clause
                )

    def test_duplicate_literal_is_not_unit(self):
        # Occurrences are counted: (a, a, b) with b false leaves two
        # unassigned occurrences of a, so a is decided, not propagated.
        result = solve_cnf(2, [(1, 1, 2), (-2,)])
        assert result.satisfiable
        assert result.assignment == {1: True, 2: False}
        assert result.decisions == 1

    def test_empty_clause_is_unsat_without_decisions(self):
        result = solve_cnf(2, [(1, 2), ()])
        assert not result.satisfiable
        assert result.decisions == 0


class TestWatchedLiteralsReplayClauseScan:
    """The watched-literal solver replays the clause scan step for step."""

    @given(random_cnfs(), st.integers(0, 8))
    @settings(max_examples=400, deadline=None)
    def test_random_cnf_search_identical(self, cnf, budget):
        n_vars, clauses = cnf
        new = SatSolver(n_vars, clauses)
        reference = ClauseScanSolver(n_vars, clauses)
        assert _outcome(new) == _outcome(reference)
        # The budget check fires on the same decision in both.
        assert _outcome(new, budget) == _outcome(reference, budget)

    def test_adder_attack_solves_identical(self, monkeypatch):
        outcomes = []

        def differential(n_vars, clauses, max_decisions=2_000_000):
            new = SatSolver(n_vars, clauses)
            reference = ClauseScanSolver(n_vars, clauses)
            outcomes.append((_outcome(new), _outcome(reference)))
            return new.solve(max_decisions)

        monkeypatch.setattr(sat_attack_module, "solve_cnf", differential)
        rng = np.random.default_rng(5)
        original = ripple_adder(4)
        locked = lock_netlist(original, 7, rng)
        result = SatAttack(locked=locked, oracle=locked.oracle(original)).run()
        assert result.n_iterations == len(outcomes) - 1
        for new, reference in outcomes:
            assert new == reference
