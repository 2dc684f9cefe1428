"""The standard resource suite and its A/B/C/D service-set grouping.

Mirrors the paper's §6.2 inventory: "We use 15 services to generate 15
features: 14 are categorical and multivalent ... and two are
nonservable.  In addition, images possess 3 pre-trained embedding and
image-specific features.  We evaluate four types of services used to
generate feature sets: URL-based, keyword-based, topic-model-based,
page-content-based, labeled as sets A, B, C, and D, which provide us
with 3, 2, 5, and 5 features, respectively."

Our instantiation (nonservable features marked *):

* **A — URL-based (3):** url_category, url_risk_score,
  user_report_count.
* **B — keyword-based (2):** keywords, keyword_risk_score.
* **C — topic-model-based (5):** topics, content_category,
  named_entities, objects, topic_sensitivity*.
* **D — page-content-based (5):** page_categories, page_topics,
  page_entities, page_risk_score*, landing_quality.
* **IMG — image-specific (3):** org_embedding, generic_embedding,
  image_quality.
* **META:** language (outside the evaluated sets; used for the §6.7.1
  English-only slice and as a deliberately signal-free feature).
"""

from __future__ import annotations

from repro.datagen.entities import Modality
from repro.datagen.world import TaskRuntime, World
from repro.features.schema import FeatureKind, FeatureSchema, FeatureSpec
from repro.resources.aggregates import (
    AggregateStore,
    KeywordRiskService,
    PageRiskService,
    TopicSensitivityService,
    UrlRiskService,
    UserReportCountService,
)
from repro.resources.base import OrganizationalResource
from repro.resources.catalog import ResourceCatalog
from repro.resources.model_services import (
    ContentCategoryService,
    GenericEmbeddingService,
    ImageQualityService,
    KeywordExtractionService,
    LandingQualityService,
    LanguageDetectionService,
    NamedEntityService,
    ObjectDetectionService,
    OrgEmbeddingService,
    PageCategoryService,
    PageEntityService,
    PageTopicService,
    TopicModelService,
    UrlCategoryService,
)

__all__ = [
    "SERVICE_SETS",
    "IMAGE_SET",
    "build_resource_suite",
    "model_feature_schema",
]

#: the paper's four evaluated service sets, in cumulative order
SERVICE_SETS: tuple[str, ...] = ("A", "B", "C", "D")

#: tag for image-specific features (always included for image models)
IMAGE_SET = "IMG"

_VISUAL = frozenset({Modality.IMAGE, Modality.VIDEO})


def model_feature_schema(
    schema: FeatureSchema,
    service_sets: tuple[str, ...],
    include_image_features: bool,
    modality: Modality,
) -> FeatureSchema:
    """The features a deployed model reads for ``modality``: the
    servable features of ``service_sets``, plus the image-specific set
    for every non-text modality when ``include_image_features``.

    The one rule both the batch pipeline's training tables and the
    online server's request rows select by, so a served row carries
    exactly the columns the model was fitted on."""
    sets = list(service_sets)
    if include_image_features and modality is not Modality.TEXT:
        sets.append(IMAGE_SET)
    return schema.select(service_sets=sets, servable_only=True, modality=modality)


def _cat(name: str, service_set: str, servable: bool = True, description: str = "") -> FeatureSpec:
    return FeatureSpec(
        name=name,
        kind=FeatureKind.CATEGORICAL,
        servable=servable,
        service_set=service_set,
        description=description,
    )


def _num(
    name: str,
    service_set: str,
    servable: bool = True,
    modalities: frozenset[Modality] | None = None,
    description: str = "",
) -> FeatureSpec:
    return FeatureSpec(
        name=name,
        kind=FeatureKind.NUMERIC,
        servable=servable,
        service_set=service_set,
        modalities=modalities,
        description=description,
    )


def build_resource_suite(
    world: World,
    task: TaskRuntime,
    store: AggregateStore | None = None,
    n_history: int = 30_000,
    seed: int = 0,
) -> ResourceCatalog:
    """Build the standard 15 + 3 resource suite as a catalog.

    The aggregate services need a historical statistics store for the
    task; pass one in to share it across suites, or let this function
    simulate it.
    """
    cfg = world.config
    if store is None:
        store = AggregateStore(world, task, n_history=n_history, seed=seed)

    resources: list[OrganizationalResource] = [
        # --- set A: URL-based metadata ---------------------------------
        UrlCategoryService(
            _cat("url_category", "A", description="URL categorization (metadata)"),
            cfg.n_url_categories,
        ),
        UrlRiskService(
            _num("url_risk_score", "A", description="historical positive rate by URL category"),
            store,
        ),
        UserReportCountService(
            _num("user_report_count", "A", description="times the posting user was reported"),
            store,
        ),
        # --- set B: keyword-based ---------------------------------------
        KeywordExtractionService(
            _cat("keywords", "B", description="extracted keywords (captions for visual posts)"),
            cfg.n_keywords,
        ),
        KeywordRiskService(
            _num("keyword_risk_score", "B", description="max historical positive rate over keywords"),
            store,
        ),
        # --- set C: topic-model-based ------------------------------------
        TopicModelService(
            _cat("topics", "C", description="org-wide topic model"), cfg.n_topics
        ),
        ContentCategoryService(
            _cat("content_category", "C", description="coarse content taxonomy"),
            cfg.n_topics,
        ),
        NamedEntityService(
            _cat("named_entities", "C", description="knowledge-graph entities"),
            cfg.n_entities,
        ),
        ObjectDetectionService(
            _cat("objects", "C", description="object detector over content"),
            cfg.n_objects,
        ),
        TopicSensitivityService(
            _num(
                "topic_sensitivity",
                "C",
                servable=False,
                description="historical positive rate by topic (nonservable)",
            ),
            store,
        ),
        # --- set D: page-content-based ------------------------------------
        PageCategoryService(
            _cat("page_categories", "D", description="linked-page categories"),
            cfg.n_page_categories,
        ),
        PageTopicService(
            _cat("page_topics", "D", description="topic model over the linked page"),
            cfg.n_topics,
        ),
        PageEntityService(
            _cat("page_entities", "D", description="entities on the linked page"),
            cfg.n_entities,
        ),
        PageRiskService(
            _num(
                "page_risk_score",
                "D",
                servable=False,
                description="historical positive rate by page category (nonservable)",
            ),
            store,
        ),
        LandingQualityService(
            _num("landing_quality", "D", description="landing-page quality score"),
            risky_pages=task.definition.positive_page_categories,
        ),
        # --- image-specific -----------------------------------------------
        OrgEmbeddingService(
            FeatureSpec(
                name="org_embedding",
                kind=FeatureKind.EMBEDDING,
                service_set=IMAGE_SET,
                modalities=_VISUAL,
                description="organization-wide pretrained image embedding",
            )
        ),
        GenericEmbeddingService(
            FeatureSpec(
                name="generic_embedding",
                kind=FeatureKind.EMBEDDING,
                service_set=IMAGE_SET,
                modalities=_VISUAL,
                description="generic materialized CNN embedding",
            )
        ),
        ImageQualityService(
            _num(
                "image_quality",
                IMAGE_SET,
                modalities=_VISUAL,
                description="image quality score",
            )
        ),
        # --- outside the evaluated sets ------------------------------------
        LanguageDetectionService(
            _cat("language", "META", description="language id (no task signal)")
        ),
    ]
    catalog = ResourceCatalog()
    for resource in resources:
        catalog.register(resource)
    return catalog
