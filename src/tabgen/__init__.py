"""tabgen: condense unstructured text into validated tables and score the results."""

from tabgen.backends import (
    BackendConfig,
    BackendError,
    BackendTimeout,
    EmbeddingBackend,
    EmbeddingResponse,
    GenerationBackend,
    GenerationRequest,
    GenerationResponse,
    HttpBackend,
    MalformedResponse,
    MockEmbedder,
    MockOracleBackend,
    RateLimited,
    RequestStore,
    Unreachable,
)
from tabgen.corpus import (
    CorpusStats,
    InvalidGoldTable,
    Sample,
    SchemaError,
    corpus_stats,
    fixture_path,
    list_fixtures,
    load_jsonl,
)
from tabgen.kinds import DatasetKind
from tabgen.metrics import (
    GOLD_HEADERS,
    PREDICTED_HEADERS,
    PRF,
    EvalReport,
    SampleEval,
    error_rate,
    evaluate_corpus,
    evaluate_sample,
    exact_f1,
    semantic_score,
)
from tabgen.pipeline import (
    GenerationTrace,
    SkeletonDelta,
    baseline_generate,
    construct_structure,
    generate_content,
    generate_table,
    generate_table_traced,
    update_table,
)
from tabgen.prompts import (
    NoHeaders,
    PromptTemplate,
    build_qa_prompt,
    build_structure_prompt,
    detect_no_answer,
    extract_numeric,
    formulate_question,
    parse_header_sequence,
)
from tabgen.table import (
    CellTuple,
    EmptyInput,
    InvalidTable,
    Orientation,
    StructuralError,
    Table,
    normalize_text,
    parse_flat,
    serialize_flat,
    table_from_json,
    table_to_json,
    to_tuples,
)

__version__ = "0.1.0"
