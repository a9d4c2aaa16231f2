"""The 20-function evaluation suite of Table 2.

Functions come from the Hotel Reservation application (DeathStarBench),
Google's Online Boutique, AWS authentication samples and FunctionBench;
Fibonacci, AES and Authentication appear in all three language runtimes.

Per-function parameters are calibrated to the paper's measurements:

* footprints span ~300KB (compact Go services) to ~800KB (Python/NodeJS),
  matching Fig. 6a;
* crypto/recursion workloads (AES, Fib) are loop-heavy, which is why they
  show the *smallest* perfect-I-cache opportunity in Fig. 10 (AES-P: 6.2%
  Jukebox speedup), while dispatch-heavy services (Auth-N/G) show the
  largest (Auth-N: 46% perfect-I$; Auth-G: 29.5% Jukebox);
* Pay-N has the largest working set and is the most metadata-budget
  sensitive function in Fig. 9; ProdL-G is among the least sensitive.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.workloads.profiles import (
    FunctionProfile,
    LANG_GO,
    LANG_NODEJS,
    LANG_PYTHON,
    LANGUAGE_DEFAULTS,
)

APP_HOTEL = "Hotel Reservation"
APP_BOUTIQUE = "Online Boutique"
APP_OTHER = "Other"

#: Share of every function's footprint in hot (revisited) segments.
_HOT_FRACTION = 0.35


def _profile(name: str, abbrev: str, language: str, application: str,
             footprint_kb: int, instructions: int, data_ws_kb: int,
             loopiness: float, branch_bias: float = 0.85) -> FunctionProfile:
    defaults = LANGUAGE_DEFAULTS[language]
    return FunctionProfile(
        name=name,
        abbrev=abbrev,
        language=language,
        application=application,
        footprint_kb=footprint_kb,
        instructions=instructions,
        data_ws_kb=data_ws_kb,
        density=float(defaults["density"]),
        optional_fraction=float(defaults["optional_fraction"]),
        optional_include_prob=float(defaults["optional_include_prob"]),
        insts_per_block=int(defaults["insts_per_block"]),
        loopiness=loopiness,
        hot_fraction=_HOT_FRACTION,
        branch_bias=branch_bias,
    )


def build_suite() -> List[FunctionProfile]:
    """Construct the full 20-function suite in the paper's plot order."""
    return [
        # -- Python ------------------------------------------------------
        _profile("Fibonacci", "Fib-P", LANG_PYTHON, APP_OTHER,
                 footprint_kb=540, instructions=1_000_000, data_ws_kb=140,
                 loopiness=0.66, branch_bias=0.9),
        _profile("AES encryption", "AES-P", LANG_PYTHON, APP_OTHER,
                 footprint_kb=600, instructions=1_650_000, data_ws_kb=200,
                 loopiness=0.86, branch_bias=0.92),
        _profile("Authentication", "Auth-P", LANG_PYTHON, APP_OTHER,
                 footprint_kb=700, instructions=820_000, data_ws_kb=170,
                 loopiness=0.20, branch_bias=0.82),
        _profile("Email", "Email-P", LANG_PYTHON, APP_BOUTIQUE,
                 footprint_kb=760, instructions=1_000_000, data_ws_kb=210,
                 loopiness=0.26, branch_bias=0.84),
        _profile("Recommendation", "RecO-P", LANG_PYTHON, APP_BOUTIQUE,
                 footprint_kb=640, instructions=950_000, data_ws_kb=240,
                 loopiness=0.32, branch_bias=0.85),
        # -- NodeJS ------------------------------------------------------
        _profile("Fibonacci", "Fib-N", LANG_NODEJS, APP_OTHER,
                 footprint_kb=500, instructions=950_000, data_ws_kb=130,
                 loopiness=0.62, branch_bias=0.9),
        _profile("AES encryption", "AES-N", LANG_NODEJS, APP_OTHER,
                 footprint_kb=620, instructions=1_500_000, data_ws_kb=190,
                 loopiness=0.84, branch_bias=0.92),
        _profile("Authentication", "Auth-N", LANG_NODEJS, APP_OTHER,
                 footprint_kb=790, instructions=760_000, data_ws_kb=160,
                 loopiness=0.12, branch_bias=0.80),
        _profile("Currency", "Curr-N", LANG_NODEJS, APP_BOUTIQUE,
                 footprint_kb=560, instructions=800_000, data_ws_kb=150,
                 loopiness=0.30, branch_bias=0.86),
        _profile("Payment", "Pay-N", LANG_NODEJS, APP_BOUTIQUE,
                 footprint_kb=810, instructions=1_050_000, data_ws_kb=260,
                 loopiness=0.24, branch_bias=0.83),
        # -- Go ----------------------------------------------------------
        _profile("Fibonacci", "Fib-G", LANG_GO, APP_OTHER,
                 footprint_kb=310, instructions=800_000, data_ws_kb=100,
                 loopiness=0.66, branch_bias=0.9),
        _profile("AES encryption", "AES-G", LANG_GO, APP_OTHER,
                 footprint_kb=340, instructions=1_400_000, data_ws_kb=160,
                 loopiness=0.85, branch_bias=0.92),
        _profile("Authentication", "Auth-G", LANG_GO, APP_OTHER,
                 footprint_kb=430, instructions=640_000, data_ws_kb=120,
                 loopiness=0.14, branch_bias=0.81),
        _profile("Geo", "Geo-G", LANG_GO, APP_HOTEL,
                 footprint_kb=380, instructions=700_000, data_ws_kb=140,
                 loopiness=0.30, branch_bias=0.86),
        _profile("ProductCatalog", "ProdL-G", LANG_GO, APP_BOUTIQUE,
                 footprint_kb=330, instructions=680_000, data_ws_kb=110,
                 loopiness=0.32, branch_bias=0.87),
        _profile("Profile", "Prof-G", LANG_GO, APP_HOTEL,
                 footprint_kb=360, instructions=700_000, data_ws_kb=130,
                 loopiness=0.30, branch_bias=0.86),
        _profile("Rate", "Rate-G", LANG_GO, APP_HOTEL,
                 footprint_kb=400, instructions=720_000, data_ws_kb=150,
                 loopiness=0.28, branch_bias=0.85),
        _profile("Recommendation", "RecH-G", LANG_GO, APP_HOTEL,
                 footprint_kb=370, instructions=690_000, data_ws_kb=140,
                 loopiness=0.30, branch_bias=0.86),
        _profile("User", "User-G", LANG_GO, APP_HOTEL,
                 footprint_kb=350, instructions=660_000, data_ws_kb=110,
                 loopiness=0.24, branch_bias=0.84),
        _profile("Shipping", "Ship-G", LANG_GO, APP_BOUTIQUE,
                 footprint_kb=410, instructions=730_000, data_ws_kb=140,
                 loopiness=0.28, branch_bias=0.86),
    ]


#: The canonical suite instance, in the paper's plot order.
SUITE: List[FunctionProfile] = build_suite()

#: Lookup by abbreviation ("Auth-G", "Pay-N", ...).
BY_ABBREV: Dict[str, FunctionProfile] = {p.abbrev: p for p in SUITE}

#: The representative per-language trio used by Figs. 9 and 13.
REPRESENTATIVES = ("Email-P", "Pay-N", "ProdL-G")


def get_profile(abbrev: str) -> FunctionProfile:
    """Return the suite profile for ``abbrev``, with a helpful error."""
    try:
        return BY_ABBREV[abbrev]
    except KeyError:
        known = ", ".join(sorted(BY_ABBREV))
        raise ConfigurationError(
            f"unknown function {abbrev!r}; known: {known}"
        ) from None


def suite_subset(abbrevs: Optional[List[str]] = None) -> List[FunctionProfile]:
    """Return the listed profiles (or the full suite), preserving order.

    A repeated abbreviation is a configuration error: the function would
    be swept and weighed in every aggregate once per mention.
    """
    if abbrevs is None:
        return list(SUITE)
    repeated = sorted({a for a in abbrevs if abbrevs.count(a) > 1})
    if repeated:
        raise ConfigurationError(
            f"function(s) listed more than once: {', '.join(repeated)}")
    return [get_profile(a) for a in abbrevs]
