"""Task-oriented evaluation of text normalizers.

Scores a token normalizer (stemmer or lemmatizer) along five axes:
vocabulary Compression Ratio, Information Retention Score from pooled
document embeddings, the combined Stemming Effectiveness Score with its
distortion safety gate, Average Normalized Levenshtein Distance, and
downstream Model Performance Delta under cross-validation with paired
significance tests.
"""

__version__ = "0.1.0"

import os as _os

# OpenBLAS starts its worker threads when its library loads, and numpy
# and scipy each load one below. normeval's BLAS calls are far too small
# for OpenBLAS to split across threads, so unless the user has chosen a
# thread count (OpenBLAS reads these variables in this order) the
# libraries load single-threaded. The variable is removed again once they
# have read it, so child processes see the user's environment.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_cap_blas_threads = not any(name in _os.environ for name in _BLAS_THREAD_VARS)
if _cap_blas_threads:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    from .corpus import (
        Corpus,
        Document,
        FoldPlan,
        TokenizerConfig,
        TokenMapping,
        TypeTable,
        load_corpus,
        make_folds,
        tokenize,
        type_table,
    )
    from .downstream import (
        ALPHA,
        ClassifierSpec,
        EvalRun,
        MpdResult,
        accuracy,
        cross_validate_features,
        fold_features,
        fold_split,
        macro_f1,
        make_classifier_spec,
        mcnemar,
        mpd,
        paired_t_pvalue,
        train_folds,
    )
    from .embeddings import (
        EmbeddingProvider,
        HashedNgramProvider,
        HttpServiceProvider,
        IrsResult,
        VectorFileProvider,
        cosine_with_flag,
        irs,
        load_word2vec_text,
    )
    from .errors import (
        CorpusError,
        EmbeddingError,
        EvaluationError,
        MetricError,
        NormalizerError,
        NormEvalError,
    )
    from .metrics import (
        AnldResult,
        CompressionResult,
        anld,
        compression_ratio,
        levenshtein,
    )
    from .normalizers import (
        ExternalNormalizer,
        IdentityNormalizer,
        MappingNormalizer,
        Normalizer,
        SnowballEnglishNormalizer,
        TruncateNormalizer,
        load_mapping,
        type_mapping,
    )
    from .report import (
        ClassifierDelta,
        NormalizerReport,
        RunConfig,
        build_embedder,
        build_normalizer,
        emit_json,
        emit_markdown,
        run_evaluation,
        run_intrinsic,
    )
    from .ses import (
        DEFAULT_ANLD_THRESHOLD,
        SES_CONSISTENCY_TOLERANCE,
        SesResult,
        safety_gate,
        ses,
        ses_consistency_ok,
    )
finally:
    if _cap_blas_threads:
        del _os.environ["OPENBLAS_NUM_THREADS"]

__all__ = [
    "__version__",
    "Corpus",
    "Document",
    "FoldPlan",
    "TokenizerConfig",
    "TokenMapping",
    "TypeTable",
    "load_corpus",
    "make_folds",
    "tokenize",
    "type_table",
    "NormEvalError",
    "CorpusError",
    "NormalizerError",
    "EmbeddingError",
    "MetricError",
    "EvaluationError",
    "Normalizer",
    "IdentityNormalizer",
    "SnowballEnglishNormalizer",
    "TruncateNormalizer",
    "MappingNormalizer",
    "ExternalNormalizer",
    "load_mapping",
    "type_mapping",
    "AnldResult",
    "CompressionResult",
    "anld",
    "compression_ratio",
    "levenshtein",
    "EmbeddingProvider",
    "HashedNgramProvider",
    "VectorFileProvider",
    "HttpServiceProvider",
    "IrsResult",
    "cosine_with_flag",
    "irs",
    "load_word2vec_text",
    "DEFAULT_ANLD_THRESHOLD",
    "SES_CONSISTENCY_TOLERANCE",
    "SesResult",
    "ses",
    "safety_gate",
    "ses_consistency_ok",
    "ALPHA",
    "ClassifierSpec",
    "EvalRun",
    "MpdResult",
    "accuracy",
    "macro_f1",
    "make_classifier_spec",
    "fold_split",
    "fold_features",
    "cross_validate_features",
    "mcnemar",
    "mpd",
    "paired_t_pvalue",
    "train_folds",
    "ClassifierDelta",
    "NormalizerReport",
    "RunConfig",
    "build_embedder",
    "build_normalizer",
    "emit_json",
    "emit_markdown",
    "run_evaluation",
    "run_intrinsic",
]
