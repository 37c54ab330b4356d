"""Combinatorics on words: substitutions, complexity, densities, and friends.

The names below are loaded on first use (PEP 562), so `import fibword` compiles
no library module and each CLI request imports only the modules it runs.
"""

# submodule -> the names the package re-exports from it
_MODULES = {
    "complexity": (
        "ComplexityProfile",
        "SquareFreeCensus",
        "arithmetic_complexity",
        "delta_apply",
        "delta_factorize",
        "delta_morphism",
        "factor_complexity",
        "is_square_free",
        "is_sturmian_profile",
        "palindromic_factor_count",
        "scattered_palindrome_count",
        "scattered_palindromes_by_length",
        "square_free_census",
        "square_free_words",
    ),
    "density": (
        "GOLDEN_RATIO",
        "RARE_LETTER_TARGET",
        "BalanceReport",
        "FrequencyReport",
        "PerronData",
        "balance_check",
        "fibonacci_ratio",
        "frequency_report",
        "golden_density",
        "golden_deviation",
        "golden_deviation_below",
        "perron_eigenvalue",
        "symbol_frequency",
        "window_frequency_sup",
    ),
    "errors": ("BalanceViolation", "BudgetError", "DomainError", "FactorizationError"),
    "factorial_word": (
        "CoverageReport",
        "WeylReport",
        "coverage_profile",
        "factor_search",
        "factorial_blocks",
        "factorial_word_prefix",
        "leading_digits_search",
        "logfactorial_equidistribution",
    ),
    "modfib": (
        "DensityResult",
        "PrimeContext",
        "bruteforce_trace",
        "density_formula",
        "fib",
        "fib_mod",
        "fib_pair",
        "fib_pair_mod",
        "is_prime",
        "lucas",
        "lucas_zeros",
        "pisano_period",
        "prime_context",
        "residue_density_bruteforce",
        "restricted_period",
    ),
    "words": (
        "Alphabet",
        "Morphism",
        "Word",
        "adjacency_matrix",
        "binary_alphabet",
        "compose_sturmian",
        "digit_alphabet",
        "fibonacci_morphism",
        "fixed_point_prefix",
        "identity_morphism",
        "mbonacci_alphabet",
        "mbonacci_morphism",
        "sturmian_generator",
        "ternary_alphabet",
        "thue_morse_morphism",
        "tribonacci_morphism",
    ),
}

# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    module = name if name in _MODULES else _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ binds the submodule here; unlike importlib.import_module, it
    # is an import that -X importtime reports
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
