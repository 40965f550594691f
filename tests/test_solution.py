"""One result type and one rule for k for every solver, whatever its objective."""

import dataclasses

import pytest

from kinclust import (
    Solution,
    bsearch,
    kcenter_gonzalez,
    md_value,
    md_wellsep_dp,
    sd_exact_goodseq,
    sd_value,
    sd_wellsep_dp,
)
from kinclust.oracle import (
    brute_opt,
    brute_opt_md,
    brute_opt_sd,
    brute_opt_wellsep,
    enumerate_partitions,
    goodseq_by_frontier,
    wellsep_dp_by_sets,
)

from conftest import make_instance

CERTIFICATES = ("sequence", "chain", "interval", "delta", "iterations")

# name: (solver taking (S, k), its objective, the certificate fields it sets)
SOLVERS = {
    "sd_exact_goodseq": (sd_exact_goodseq, "sd", {"sequence"}),
    "sd_wellsep_dp": (sd_wellsep_dp, "sd", {"chain"}),
    "md_wellsep_dp": (md_wellsep_dp, "md", {"chain"}),
    "bsearch": (bsearch, "md", {"interval", "delta", "iterations"}),
    "brute_opt_sd": (brute_opt_sd, "sd", set()),
    "brute_opt_md": (brute_opt_md, "md", set()),
    "brute_opt_wellsep_sd": (lambda S, k: brute_opt_wellsep(S, k, "sd"), "sd", set()),
    "brute_opt_wellsep_md": (lambda S, k: brute_opt_wellsep(S, k, "md"), "md", set()),
}
VALUE = {"sd": sd_value, "md": md_value}

# Every function taking a number of clusters k, as (S, k).
TAKES_K = {
    **{name: solver for name, (solver, _, _) in SOLVERS.items()},
    "kcenter_gonzalez": kcenter_gonzalez,
    "brute_opt": brute_opt,
    "wellsep_dp_by_sets_sd": lambda S, k: wellsep_dp_by_sets(S, k, "sd"),
    "wellsep_dp_by_sets_md": lambda S, k: wellsep_dp_by_sets(S, k, "md"),
    "goodseq_by_frontier": goodseq_by_frontier,
    "enumerate_partitions": lambda S, k: enumerate_partitions(len(S), k),
}


def test_fields():
    names = [field.name for field in dataclasses.fields(Solution)]
    assert names == ["clustering", "value", "objective", "method", *CERTIFICATES]


@pytest.mark.parametrize("seed, n, k", [(1, 6, 2), (2, 7, 3), (3, 5, 1)])
@pytest.mark.parametrize("name", list(SOLVERS))
def test_every_solver_returns_a_solution(name, seed, n, k):
    solver, objective, certificate = SOLVERS[name]
    S = make_instance(seed, n)
    sol = solver(S, k)
    assert type(sol) is Solution
    assert sol.objective == objective
    assert sol.value == VALUE[objective](S, sol.clustering)
    assert {field for field in CERTIFICATES if getattr(sol, field) is not None} == certificate


@pytest.mark.parametrize("k", [2.5, True, "3"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("name", list(TAKES_K))
def test_k_must_be_an_int(name, k):
    with pytest.raises(ValueError, match=r"k must satisfy 1 <= k <= 5, got "):
        TAKES_K[name](make_instance(4, 5), k)
