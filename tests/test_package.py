"""The package's lazy re-exports: every public name, from the module that defines it."""

import importlib

import pytest

import fibword

# submodule -> the names `fibword` re-exports from it
EXPORTS = {
    "complexity": """ComplexityProfile SquareFreeCensus arithmetic_complexity delta_apply
        delta_factorize delta_morphism factor_complexity is_square_free is_sturmian_profile
        palindromic_factor_count scattered_palindrome_count scattered_palindromes_by_length
        square_free_census square_free_words""",
    "density": """GOLDEN_RATIO RARE_LETTER_TARGET BalanceReport FrequencyReport PerronData
        balance_check fibonacci_ratio frequency_report golden_density golden_deviation
        golden_deviation_below perron_eigenvalue symbol_frequency window_frequency_sup""",
    "errors": "BalanceViolation BudgetError DomainError FactorizationError",
    "factorial_word": """CoverageReport WeylReport coverage_profile factor_search
        factorial_blocks factorial_word_prefix leading_digits_search
        logfactorial_equidistribution""",
    "modfib": """DensityResult PrimeContext bruteforce_trace density_formula fib fib_mod
        fib_pair fib_pair_mod is_prime lucas lucas_zeros pisano_period prime_context
        residue_density_bruteforce restricted_period""",
    "words": """Alphabet Morphism Word adjacency_matrix binary_alphabet compose_sturmian
        digit_alphabet fibonacci_morphism fixed_point_prefix identity_morphism
        mbonacci_alphabet mbonacci_morphism sturmian_generator ternary_alphabet
        thue_morse_morphism tribonacci_morphism""",
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names.split()]


def test_all_lists_every_export_once():
    assert len(NAMES) == 71
    assert sorted(fibword.__all__) == sorted(name for _, name in NAMES)
    assert len(set(fibword.__all__)) == len(fibword.__all__)


@pytest.mark.parametrize("module, name", NAMES)
def test_export_is_the_submodule_attribute(module, name):
    assert getattr(fibword, name) is getattr(importlib.import_module(f"fibword.{module}"), name)


def test_dir_lists_every_export():
    assert set(fibword.__all__) <= set(dir(fibword))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from fibword import *", namespace)
    assert set(fibword.__all__) <= set(namespace)


@pytest.mark.parametrize("name", ["factor_complexit", "lucas_mod", "numpy", "_periods"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(fibword, name)
    assert not hasattr(fibword, name)


def test_submodules_are_attributes():
    for module in EXPORTS:
        assert getattr(fibword, module) is importlib.import_module(f"fibword.{module}")
