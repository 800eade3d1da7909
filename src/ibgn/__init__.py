"""Generative interval-network models for complex activity recognition.

A complex activity is a set of atomic action intervals; the temporal
signature lives in the forward relations between interval pairs.  This
package provides the relation algebra, consistency-guaranteed network
generation, collapsed Gibbs parameter learning with hyperparameter tuning,
BIC structure selection, per-class max-score classification, dataset
tooling, and a CLI (``ibgn``).
"""

from .algebra import (
    BaseRelation,
    CompositionClass,
    EMPTY_SET,
    FULL_SET,
    RelationSet,
    brute_force_compose,
    classify_constraint,
    compose,
    compose_sets,
    enumerate_composition_classes,
    intersect,
    relation_of,
)
from .classify import EPS, Prediction, predict, score_instance
from .dataset import (
    Corpus,
    build_synthetic_corpus,
    kfold_split,
    load_instances,
    perturb_durations,
    perturb_labels,
    save_instances,
)
from .generate import (
    ClassModel,
    count_seat,
    crp_table_distribution,
    realize_timestamps,
    sample_instance,
    sample_network,
    seat_next,
)
from .learning import (
    NULL_RELATION_CODE,
    BicFamilyCounts,
    SamplerState,
    TrainConfig,
    bic_family_score,
    collect_link_counts,
    digamma,
    estimate_phi,
    estimate_theta,
    learn_structure,
    run_gibbs,
    train_bundle,
    train_class_model,
    update_hyperparams,
)
from .model_io import SCHEMA_VERSION, ModelBundle, load_bundle, save_bundle
from .network import (
    ConsistencyReport,
    ConstraintMatrix,
    Instance,
    Interval,
    IntervalNetwork,
    NULL_ACTION,
    StructureMask,
    check_consistency,
    compute_constraint,
    instance_to_network,
    resolution_order,
    scan_link_constraints,
)
from . import errors

__version__ = "0.1.0"
