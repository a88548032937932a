"""DIMACS parsing, MAX-SAT fitness and synthetic-problem tests."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import all_assignments, brute_force_satisfied, onemax_reference, pair_trap_reference

from hoqiga.core import RandomSource, bits_from_string
from hoqiga.problems import (
    BlockTable,
    CnfFormula,
    DimacsParseError,
    FitnessFunction,
    MaxSat,
    generate_uniform_3sat,
    load_problem,
    onemax,
    pair_trap,
    parse_dimacs,
    to_dimacs,
)


def seeded_rows(first_seed, rows, size):
    """One row of `size` fair 0/1 genes per seed from first_seed on, each its seed's first draw."""
    return np.array([RandomSource(first_seed + i).gen.integers(0, 2, size=size, dtype=np.uint8)
                     for i in range(rows)])


class TestParseDimacs:
    def test_minimal_instance(self):
        formula = parse_dimacs("p cnf 2 2\n1 -2 0\n-1 2 0\n")
        assert formula.variable_count == 2
        assert formula.clauses == ((1, -2), (-1, 2))
        assert formula.weights is None

    def test_comments_ignored(self):
        plain = parse_dimacs("p cnf 2 1\n1 2 0\n")
        commented = parse_dimacs("c anything\nc more noise\np cnf 2 1\n1 2 0\n")
        assert plain == commented

    def test_clause_spanning_lines(self):
        formula = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert formula.clauses == ((1, 2, 3),)

    def test_percent_ends_input(self):
        formula = parse_dimacs("p cnf 2 1\n1 2 0\n%\n0\n")
        assert formula.clause_count == 1

    def test_literal_out_of_range(self):
        with pytest.raises(DimacsParseError, match="line 2.*out of range"):
            parse_dimacs("p cnf 2 2\n3 0\n1 0\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(DimacsParseError, match="declares 3 clauses, found 2"):
            parse_dimacs("p cnf 2 3\n1 0\n2 0\n")

    def test_unterminated_final_clause(self):
        with pytest.raises(DimacsParseError, match="unterminated"):
            parse_dimacs("p cnf 2 1\n1 2\n")

    def test_missing_header(self):
        with pytest.raises(DimacsParseError, match="header"):
            parse_dimacs("1 2 0\n")

    def test_empty_clause_rejected(self):
        with pytest.raises(DimacsParseError, match="empty clause"):
            parse_dimacs("p cnf 2 1\n0\n")

    @pytest.mark.parametrize("text", ["p cnf 3 0\n", "p wcnf 3 0\n"])
    def test_formula_without_clauses_rejected(self, text):
        with pytest.raises(ValueError, match="formula has no clauses"):
            parse_dimacs(text)

    def test_bad_token(self):
        with pytest.raises(DimacsParseError, match="line 2"):
            parse_dimacs("p cnf 2 1\n1 x 0\n")

    def test_weighted_parse(self):
        formula = parse_dimacs("p wcnf 2 2 10\n3 1 -2 0\n1.5 -1 0\n")
        assert formula.is_weighted
        assert formula.weights == (3.0, 1.5)
        assert formula.clauses == ((1, -2), (-1,))

    def test_weighted_rejects_nonpositive_weight(self):
        with pytest.raises(DimacsParseError):
            parse_dimacs("p wcnf 1 1 5\n0 1 0\n")

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_weighted_rejects_non_finite_weight(self, weight):
        message = "line 3: clause weights must be positive and finite"
        with pytest.raises(DimacsParseError, match=message):
            parse_dimacs(f"p wcnf 2 2\n1 -1 0\n{weight} 1 2 0\n")


class TestSerialization:
    def test_round_trip_plain(self):
        formula = parse_dimacs("p cnf 3 2\n1 -2 3 0\n-3 2 0\n")
        assert parse_dimacs(to_dimacs(formula)) == formula

    def test_round_trip_weighted(self):
        formula = CnfFormula(3, ((1, 2), (-3,)), weights=(2.5, 7.0))
        assert parse_dimacs(to_dimacs(formula)) == formula

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25)
    def test_round_trip_random(self, seed):
        formula = generate_uniform_3sat(8, 20, RandomSource(seed))
        assert parse_dimacs(to_dimacs(formula)) == formula


class TestMaxSatFitness:
    def test_both_clauses_satisfied(self):
        formula = CnfFormula(2, ((1, -2), (-1, 2)))
        assert MaxSat(formula)(bits_from_string("11")) == 2.0

    def test_contradictory_pair(self):
        formula = CnfFormula(1, ((1,), (-1,)))
        for bits in all_assignments(1):
            assert MaxSat(formula)(bits) == 1.0

    @pytest.mark.parametrize("weight", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_weight_not_positive_and_finite(self, weight):
        with pytest.raises(ValueError, match="clause weights must be positive and finite"):
            CnfFormula(2, ((1,), (2,)), weights=(1.0, weight))

    def test_weighted_counts_weights(self):
        formula = CnfFormula(2, ((1,), (2,)), weights=(3.0, 0.5))
        assert MaxSat(formula)(bits_from_string("10")) == 3.0
        assert MaxSat(formula)(bits_from_string("01")) == 0.5
        assert MaxSat(formula)(bits_from_string("11")) == 3.5

    def test_variable_one_reads_bit_zero(self):
        formula = CnfFormula(3, ((1,),))
        assert MaxSat(formula)(bits_from_string("100")) == 1.0
        assert MaxSat(formula)(bits_from_string("001")) == 0.0

    def test_rejects_length_mismatch(self):
        formula = CnfFormula(2, ((1,),))
        with pytest.raises(ValueError):
            MaxSat(formula)(bits_from_string("101"))

    def test_matches_brute_force_oracle_exhaustively(self):
        formula = generate_uniform_3sat(10, 43, RandomSource(3))
        problem = MaxSat(formula)
        for bits in all_assignments(10):
            assert problem(bits) == brute_force_satisfied(formula, bits)

    def test_mixed_clause_widths_match_oracle_exhaustively(self):
        clauses = generate_uniform_3sat(8, 40, RandomSource(4)).clauses
        formula = CnfFormula(8, tuple(c[: 1 + i % 3] for i, c in enumerate(clauses)))
        problem = MaxSat(formula)
        assignments = np.array(list(all_assignments(8)))
        expected = [brute_force_satisfied(formula, bits) for bits in assignments]
        assert np.array_equal(problem.batch(assignments), expected)

    def test_batch_matches_single(self):
        formula = generate_uniform_3sat(12, 50, RandomSource(8))
        problem = MaxSat(formula)
        rows = seeded_rows(0, 40, 12)
        assert np.array_equal(problem.batch(rows), [problem(r) for r in rows])


class TestSyntheticProblems:
    def test_onemax_values(self):
        problem = onemax(8)
        assert problem(bits_from_string("00000000")) == 0.0
        assert problem(bits_from_string("10110001")) == 4.0
        assert problem.optimum == 8.0

    def test_pair_trap_global_optimum(self):
        assert pair_trap(3)(bits_from_string("000000")) == 3.0

    def test_pair_trap_attractor(self):
        assert pair_trap(3)(bits_from_string("111111")) == pytest.approx(2.7)

    def test_pair_trap_mixed(self):
        assert pair_trap(2)(bits_from_string("0011")) == pytest.approx(1.9)
        assert pair_trap(2)(bits_from_string("0110")) == pytest.approx(0.0)

    @pytest.mark.parametrize("pairs", [1, 2, 4, 6])
    def test_pair_trap_unique_optimum_exhaustive(self, pairs):
        problem = pair_trap(pairs)
        best_bits, best_value = None, -1.0
        second = -1.0
        for bits in all_assignments(2 * pairs):
            value = problem(bits)
            if value > best_value:
                second, best_value = best_value, value
                best_bits = bits.copy()
            elif value > second:
                second = value
        assert not best_bits.any()
        assert best_value == problem.optimum
        assert second < best_value

    def test_pair_trap_values_overridable(self):
        problem = pair_trap(2, optimum_value=2.0, attractor_value=1.0, mixed_value=0.5)
        assert problem(bits_from_string("0000")) == 4.0
        assert problem(bits_from_string("1111")) == 2.0
        assert problem(bits_from_string("0100")) == 2.5

    @pytest.mark.parametrize("values, message", [
        ({"optimum_value": 0.5, "attractor_value": 0.9}, "^trap needs optimum_value > "),
        ({"optimum_value": float("inf")}, "^optimum_value must be a finite real number, got inf"),
        ({"optimum_value": True, "attractor_value": 0.5}, "^optimum_value must be a finite "),
        ({"optimum_value": "2"}, "^optimum_value must be a finite real number, got '2'"),
        ({"attractor_value": float("nan")}, "^attractor_value must be a finite real number"),
        ({"mixed_value": -float("inf")}, "^mixed_value must be a finite real number"),
        ({"mixed_value": None}, "^mixed_value must be a finite real number, got None"),
    ], ids=["order", "inf", "bool", "str", "nan", "-inf", "none"])
    def test_pair_trap_rejects_non_deceptive_values(self, values, message):
        with pytest.raises(ValueError, match=message):
            pair_trap(2, **values)

    def test_batch_matches_single(self):
        problem = pair_trap(4)
        rows = seeded_rows(0, 30, 8)
        assert np.array_equal(problem.batch(rows), [problem(r) for r in rows])

    def test_both_landscapes_are_block_tables(self):
        assert isinstance(onemax(3), BlockTable) and isinstance(pair_trap(3), BlockTable)
        assert isinstance(load_problem("onemax:3"), BlockTable)
        assert isinstance(load_problem("trap:3"), BlockTable)

    def test_block_table_scores_each_block_by_its_ones(self):
        trap3 = BlockTable(2, (2.0, 1.0, 0.0, 3.0))  # Goldberg's trap-3
        assert trap3.size == 6 and trap3.optimum == 6.0
        assert repr(pair_trap(3, 2, 1, 0).optimum) == "6.0"  # a float, even from int values
        assert trap3(bits_from_string("111000")) == 5.0
        assert trap3(bits_from_string("010101")) == 1.0
        assert trap3(bits_from_string("110000")) == 2.0

    @pytest.mark.parametrize("table, message", [
        ((), "must hold at least 2 values, got 0"),
        ((1.0,), "must hold at least 2 values, got 1"),
        ((0.0, math.nan), "value must be a finite real number, got nan"),
        ((0.0, math.inf), "value must be a finite real number, got inf"),
        ([[0, 1], [1, 2]], "value must be a finite real number, got [0, 1]"),
        ((True, False), "value must be a finite real number, got True"),
        ((0.0, "1"), "value must be a finite real number, got '1'"),
    ])
    def test_block_table_rejects_tables_it_cannot_score(self, table, message):
        with pytest.raises(ValueError, match=re.escape(f"block table {message}")):
            BlockTable(2, table)
    def test_rows_must_be_zero_or_one(self):
        with pytest.raises(IndexError):
            onemax(3)(np.array([0, 2, 1]))


LANDSCAPES = (
    [(f"onemax{n}", lambda n=n: onemax(n), onemax_reference) for n in range(1, 14)]
    + [(f"trap{p}", lambda p=p: pair_trap(p), pair_trap_reference) for p in range(1, 10)]
    + [("trap3custom",
        lambda: pair_trap(3, optimum_value=2.0, attractor_value=1.0, mixed_value=0.5),
        lambda bits: pair_trap_reference(bits, optimum=2.0, attractor=1.0, mixed=0.5))]
)


@pytest.mark.parametrize("dtype", [np.uint8, np.bool_, np.int64])
@pytest.mark.parametrize("shape", [(), (3, 4), (0,)])
@pytest.mark.parametrize("build, reference", [case[1:] for case in LANDSCAPES],
                         ids=[case[0] for case in LANDSCAPES])
def test_landscapes_keep_the_first_formulas_bytes(build, reference, shape, dtype):
    problem = build()
    bits = np.random.default_rng(problem.size).integers(0, 2, size=shape + (problem.size,))
    bits = bits.astype(dtype)
    values, expected = np.asarray(problem.batch(bits)), np.asarray(reference(bits))
    assert values.shape == expected.shape == shape
    assert values.dtype == expected.dtype == np.float64
    assert values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("build, name", [
    (onemax, "problem size"), (pair_trap, "pair count"),
    (lambda n: CnfFormula(n, ((1,),)), "variable count"),
], ids=["onemax", "pairtrap", "cnf"])
@pytest.mark.parametrize("value", [2.5, True, "2", np.int64(4)])
def test_problem_sizes_must_be_integers(build, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        build(value)


@pytest.mark.parametrize("n_vars, clause_count, name", [
    (10, 2.5, "clause count"), (10, True, "clause count"), (10, "5", "clause count"),
    (10.0, 5, "variable count"), (True, 5, "variable count"), ("10", 5, "variable count"),
])
def test_3sat_generator_sizes_must_be_integers(n_vars, clause_count, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        generate_uniform_3sat(n_vars, clause_count, RandomSource(0))


def test_3sat_generator_caps_the_clause_count():
    # The paper's instances have at most 1075 clauses; the generator builds one at a time.
    with pytest.raises(ValueError, match="^clause count must be <= 1000000, got 1000001$"):
        generate_uniform_3sat(5, 10**6 + 1, RandomSource(0))
    with pytest.raises(ValueError, match="^cannot load problem '3sat:5:1000001:1': clause count "
                                         "must be <= 1000000, got 1000001$"):
        load_problem("3sat:5:1000001:1")


@pytest.mark.parametrize("literal", [1.5, "1", True, np.int64(1), None],
                         ids=["float", "str", "bool", "numpy-int", "none"])
def test_cnf_literals_must_be_integers(literal):
    with pytest.raises(ValueError, match=r"^clause 1 literal must be an integer, got "):
        CnfFormula(3, ((1, 2), (literal, 2)))


def _weighted_3sat(n_vars: int, clause_count: int, seed: int) -> CnfFormula:
    rng = RandomSource(seed)
    formula = generate_uniform_3sat(n_vars, clause_count, rng)
    weights = tuple(0.1 + 10 * rng.uniforms(clause_count))
    return CnfFormula(n_vars, formula.clauses, weights)


# One-literal clauses, repeated literals and tautologies among random 3-SAT clauses.
EDGE_CLAUSES = ((3,), (-7,), (2, 2, -5), (-30, -30), (1, -1), (4, -4, 9)) + tuple(
    generate_uniform_3sat(30, 60, RandomSource(5)).clauses
)


def _edge_weights(seed: int) -> tuple[float, ...]:
    return tuple(0.1 + 10 * RandomSource(seed).uniforms(len(EDGE_CLAUSES)))


BATCH_PROBLEMS = {
    "onemax13": lambda: onemax(13),
    "trap4": lambda: pair_trap(4),
    "trap3custom": lambda: pair_trap(3, optimum_value=2.0, attractor_value=1.0, mixed_value=0.5),
    "trap9": lambda: pair_trap(9),
    "cnf12": lambda: MaxSat(generate_uniform_3sat(12, 50, RandomSource(8))),
    "cnf50": lambda: MaxSat(generate_uniform_3sat(50, 215, RandomSource(2))),
    "wcnf50": lambda: MaxSat(_weighted_3sat(50, 215, 3)),
    "cnf30edge": lambda: MaxSat(CnfFormula(30, EDGE_CLAUSES)),
    "wcnf30edge": lambda: MaxSat(CnfFormula(30, EDGE_CLAUSES, _edge_weights(6))),
}


class TestOneEvaluator:
    @given(
        name=st.sampled_from(sorted(BATCH_PROBLEMS)),
        first_seed=st.integers(0, 10**6),
        rows=st.sampled_from([1, 2, 7, 30, 40, 100, 101, 200]),
    )
    @example(name="cnf12", first_seed=0, rows=40)
    @example(name="trap4", first_seed=0, rows=30)
    @example(name="wcnf50", first_seed=0, rows=200)
    @example(name="cnf30edge", first_seed=0, rows=101)
    @example(name="wcnf30edge", first_seed=0, rows=100)
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_single_bitwise(self, name, first_seed, rows):
        problem = BATCH_PROBLEMS[name]()
        bits = seeded_rows(first_seed, rows, problem.size)
        values = problem.batch(bits)
        assert values.dtype == np.float64
        singles = np.array([problem(row) for row in bits])
        assert values.tobytes() == singles.tobytes()

    @pytest.mark.parametrize("dtype", [np.uint8, np.bool_, np.int64])
    @pytest.mark.parametrize("shape", [(), (1,), (2,), (10,), (101,), (3, 4)])
    def test_unweighted_count_matches_unit_weight_sum(self, shape, dtype):
        # Unit weights take the weighted row-major sum, so this pins the exact count to it.
        count = MaxSat(CnfFormula(30, EDGE_CLAUSES))
        unit = MaxSat(CnfFormula(30, EDGE_CLAUSES, (1.0,) * len(EDGE_CLAUSES)))
        high = 3 if dtype is np.int64 else 2  # an int64 2 is true under both signs
        bits = np.random.default_rng(7).integers(0, high, size=shape + (30,)).astype(dtype)
        values, expected = count.batch(bits), unit.batch(bits)
        assert values.shape == expected.shape == shape
        assert values.dtype == expected.dtype == np.float64
        assert values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", sorted(BATCH_PROBLEMS))
    def test_batch_shapes(self, name):
        problem = BATCH_PROBLEMS[name]()
        empty = problem.batch(np.zeros((0, problem.size), dtype=np.uint8))
        assert empty.shape == (0,) and empty.dtype == np.float64
        bits = np.random.default_rng(5).integers(0, 2, size=(3, 4, problem.size), dtype=np.uint8)
        values = problem.batch(bits)
        singles = np.array([[problem(row) for row in rows] for rows in bits])
        assert values.shape == (3, 4) and values.dtype == np.float64
        assert values.tobytes() == singles.tobytes()

    def test_scalar_only_subclass_gets_batch(self):
        class Ones(FitnessFunction):
            def __call__(self, bits):
                return float(np.sum(bits))

        rows = np.array([[0, 1, 1], [1, 1, 1]], dtype=np.uint8)
        assert np.array_equal(Ones(3).batch(rows), [2.0, 3.0])

    def test_subclass_without_evaluator_rejected(self):
        class Empty(FitnessFunction):
            pass

        with pytest.raises(TypeError, match="must define batch"):
            Empty(3)

    def test_batch_rejects_length_mismatch(self):
        problem = MaxSat(generate_uniform_3sat(12, 50, RandomSource(8)))
        with pytest.raises(ValueError):
            problem.batch(np.zeros((3, 13), dtype=np.uint8))


class TestGenerate3Sat:
    def test_deterministic_under_seed(self):
        first = generate_uniform_3sat(10, 42, RandomSource(1))
        second = generate_uniform_3sat(10, 42, RandomSource(1))
        assert first == second

    def test_three_distinct_variables_per_clause(self):
        formula = generate_uniform_3sat(20, 91, RandomSource(5))
        for clause in formula.clauses:
            assert len(clause) == 3
            assert len({abs(lit) for lit in clause}) == 3

    def test_fitness_bounded_by_clause_count(self):
        formula = generate_uniform_3sat(20, 91, RandomSource(9))
        assert MaxSat(formula)(np.ones(20, dtype=np.uint8)) <= 91

    def test_rejects_too_few_variables(self):
        with pytest.raises(ValueError):
            generate_uniform_3sat(2, 5, RandomSource(0))


class TestLoadProblem:
    def test_synthetic_specs(self):
        assert load_problem("onemax:12").size == 12
        assert load_problem("trap:5").size == 10
        onemax48, trap24 = load_problem("onemax:48"), load_problem("trap:24")
        assert (onemax48.name, onemax48.size, onemax48.optimum) == ("onemax-48", 48, 48.0)
        assert (trap24.name, trap24.size, trap24.optimum) == ("pairtrap-24", 48, 24.0)
        assert type(onemax48.optimum) is float and type(trap24.optimum) is float
        sat = load_problem("3sat:10:40:3")
        assert sat.size == 10

    def test_generator_spec_deterministic(self):
        a, b = load_problem("3sat:10:40:3"), load_problem("3sat:10:40:3")
        assert a.formula == b.formula

    def test_file_path(self, tmp_path):
        path = tmp_path / "tiny.cnf"
        path.write_text("p cnf 2 2\n1 -2 0\n-1 2 0\n")
        problem = load_problem(str(path))
        assert problem.size == 2
        assert problem(bits_from_string("11")) == 2.0

    def test_missing_file(self):
        with pytest.raises(ValueError, match="cannot load"):
            load_problem("no/such/file.cnf")

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            load_problem("onemax:zero")

    @pytest.mark.parametrize("spec", [
        "onemax:4_0", "onemax:+3", "onemax: 3", "onemax:3 ", "onemax:\u0663", "onemax:",
        "trap: 3", "trap:+3", "trap:-3", "trap:1_2", "trap:\uff13",
        "3sat:1_0:4_3:1", "3sat:10:+40:3", "3sat:10:40:-3", "3sat:10:40: 3",
    ])
    def test_integer_fields_are_plain_ascii_digits(self, spec):
        prefix = re.escape(f"cannot load problem {spec!r}: expected a decimal integer, got ")
        with pytest.raises(ValueError, match=f"^{prefix}"):
            load_problem(spec)

    @pytest.mark.parametrize("spec, form, rest", [
        ("3sat:10:20", "3sat:VARS:CLAUSES:SEED", "10:20"),
        ("3sat:10:20:1:2", "3sat:VARS:CLAUSES:SEED", "10:20:1:2"),
        ("3sat", "3sat:VARS:CLAUSES:SEED", ""),
        ("onemax:4:5", "onemax:N", "4:5"),
        ("trap:3:", "trap:PAIRS", "3:"),
    ], ids=["3sat-two", "3sat-four", "3sat-none", "onemax-two", "trap-two"])
    def test_spec_field_count_names_the_form(self, spec, form, rest):
        message = f"cannot load problem {spec!r}: expected {form}, got {rest!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_problem(spec)
