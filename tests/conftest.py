"""Shared fixtures: the model corpus and cached analysis runs.

The analysis of the four-state benchmark takes several seconds, so the
report and the construction artifacts are computed once per session and
reused across test modules.
"""

import pathlib

import pytest

from flatcheck import analysis, construction, modelfile

MODELS_DIR = pathlib.Path(__file__).resolve().parent.parent / "models"


def load(name):
    return modelfile.load_model(MODELS_DIR / ("%s.sys" % name))


@pytest.fixture(scope="session")
def models_dir():
    return MODELS_DIR


@pytest.fixture(scope="session")
def load_system():
    return load


@pytest.fixture(scope="session")
def flat4():
    return load("flat4")


@pytest.fixture(scope="session")
def flat4_report(flat4):
    return analysis.run_algorithm1(flat4)


@pytest.fixture(scope="session")
def flat4_artifacts(flat4, flat4_report):
    flat_output, trace = construction.extract_flat_output(flat4, flat4_report)
    form = construction.to_implicit_triangular(trace)
    p = construction.parametrize_from_triangular(form)
    return flat_output, trace, form, p


@pytest.fixture(scope="session")
def chain2():
    return load("chain2")


@pytest.fixture(scope="session")
def chain2_report(chain2):
    return analysis.run_algorithm1(chain2)


@pytest.fixture(scope="session")
def shift1():
    return load("shift1")


@pytest.fixture(scope="session")
def sfl_quadratic():
    return load("sfl_quadratic")


@pytest.fixture(scope="session")
def sfl_quadratic_report(sfl_quadratic):
    return analysis.run_algorithm1(sfl_quadratic)


@pytest.fixture(scope="session")
def nonflat_bilinear():
    return load("nonflat_bilinear")


@pytest.fixture(scope="session")
def nonflat_bilinear_report(nonflat_bilinear):
    return analysis.run_algorithm1(nonflat_bilinear)


@pytest.fixture(scope="session")
def quad_chain():
    return load("quad_chain")


@pytest.fixture(scope="session")
def redundant_input():
    return load("redundant_input")
