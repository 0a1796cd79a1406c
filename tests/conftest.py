from importlib import resources

import pytest

from wortfolge import (
    Category,
    ClauseSpec,
    ClauseType,
    Constituent,
    FeatureBundle,
    VerbComplex,
)
from wortfolge.corpus import load_corpus
from wortfolge.lexicon import load_default_lexicon
from wortfolge.slots import build_slot_table


@pytest.fixture(scope="session")
def lex():
    return load_default_lexicon()


@pytest.fixture(scope="session")
def table():
    return build_slot_table()


@pytest.fixture(scope="session")
def corpus():
    """The shipped corpus cases."""
    return load_corpus(resources.files("wortfolge.data").joinpath("corpus.json").read_text("utf-8"))


def c(cid, category, surface, definite="na", animate="na", pron=False, svc=False,
      hoberg=None, key=None):
    return Constituent(
        id=cid,
        category=Category(category),
        surface=tuple(surface.split() if isinstance(surface, str) else surface),
        features=FeatureBundle(definite=definite, animate=animate, pronominal=pron, svc=svc),
        hoberg_index=hoberg,
        lexicon_key=key,
    )


def modifier(cid, lemma, index, surface=None):
    return c(cid, "M", surface or lemma, hoberg=index, key=f"{lemma}#{index}")


@pytest.fixture(scope="session")
def ex1_clause():
    return ClauseSpec(
        ClauseType.V2,
        VerbComplex(("werde",), ("besuchen",)),
        (
            c("ich", "N", "ich", pron=True),
            c("ihn", "A", "ihn", pron=True),
            modifier("morgen", "morgen", 26),
            modifier("vielleicht", "vielleicht", 12),
        ),
    )


@pytest.fixture(scope="session")
def ex2_clause():
    return ClauseSpec(
        ClauseType.V2,
        VerbComplex(("fuhr",)),
        (
            c("er", "N", "er", pron=True),
            modifier("dennoch", "dennoch", 20),
            modifier("ebenfalls", "ebenfalls", 35),
            c("nach-muenchen", "DIR", "nach München"),
        ),
    )


@pytest.fixture(scope="session")
def ex5_clause():
    return ClauseSpec(
        ClauseType.V2,
        VerbComplex(("habe",), ("gesehen",)),
        (
            c("ich", "N", "ich", pron=True),
            c("den-mann", "A", "den Mann", definite="+", animate="+"),
            modifier("gestern", "gestern", 26),
        ),
    )


@pytest.fixture(scope="session")
def ex5_vf_clause(ex5_clause):
    return ex5_clause._replace(clause_type=ClauseType.VF, complementizer="weil")


@pytest.fixture(scope="session")
def ex6_clause():
    return ClauseSpec(
        ClauseType.V2,
        VerbComplex(("habe",), ("ferngesehen",)),
        (
            c("ich", "N", "ich", pron=True),
            modifier("deshalb", "deshalb", 22),
            modifier("gestern", "gestern", 26),
            c("mit-wolf", "M", "mit Wolf", hoberg=42, key="mit + NP#42"),
        ),
    )


@pytest.fixture(scope="session")
def ex7_clause():
    return ClauseSpec(
        ClauseType.V2,
        VerbComplex(("bin",), ("davongelaufen",)),
        (
            modifier("damals", "damals", 26),
            c("ich", "N", "ich", pron=True),
            c("frauen", "D", "Frauen", definite="-", animate="+"),
            modifier("ohnehin", "ohnehin", 9),
            modifier("oft", "oft", 37),
            c("ueberstuerzt", "M", "überstürzt", hoberg=43, key="überstürzt#43"),
        ),
    )


@pytest.fixture(scope="session")
def ex8_clause():
    return ClauseSpec(
        ClauseType.V2,
        VerbComplex(("ist",), ("geflogen",)),
        (
            c("nach-frankreich", "DIR", "nach Frankreich"),
            c("vahe", "N", "Vahé", definite="+", animate="+"),
        ),
    )


@pytest.fixture(scope="session")
def ex9_clause():
    return ClauseSpec(
        ClauseType.V2,
        VerbComplex(("hat",), ("geheiratet",)),
        (
            c("einen-inder", "A", "einen Inder", definite="-", animate="+"),
            c("anne", "N", "Anne", definite="+", animate="+"),
        ),
    )


@pytest.fixture(scope="session")
def ex12_clause():
    return ClauseSpec(
        ClauseType.V2,
        VerbComplex(("las",)),
        (
            c("er", "N", "er", pron=True),
            c("den-artikel", "A", "den Artikel über Wortstellung", definite="+", animate="-"),
            modifier("dann", "dann", 23),
            modifier("wohl", "wohl", 33),
        ),
    )
