"""Multilingual factual-knowledge probing.

Verbalize (subject, relation, object) facts three ways, split each
verbalization into a prompt and the expected object form, rank the correct
forms against hash-sampled typed distractors by scorer log-probability,
and aggregate retrieval metrics.
"""

from .candidates import (
    CandidateSet,
    Distractor,
    assemble_candidate_set,
    keyed_pool,
    sample_distractors,
)
from .corpus import (
    Corpus,
    Entity,
    Fact,
    Relation,
    RelationFilterReport,
    filter_relations,
    load_corpus,
    save_corpus,
    unique_object_pool,
)
from .metrics import EvalRecord, mean_best_rank, pearson, recall_at_n
from .score import RankedResult, rank_candidates, rank_of_form, score_candidates
from .split import (
    Rejection,
    SplitResult,
    collect_correct_forms,
    match_object_form,
    split_verbalization,
)
from .verbalize import (
    Verbalization,
    VerbalizationSource,
    build_fewshot_prompt,
    fill_template,
    make_llm_verbalization,
    make_mt_verbalization,
    make_template_verbalization,
)

__version__ = "0.1.0"
