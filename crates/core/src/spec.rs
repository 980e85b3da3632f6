//! Declarative query specifications: the one way to write a query.
//!
//! A [`QuerySpec`] states one optimized-range question as inert data:
//! attribute *names* instead of schema handles, `Eq + Hash` throughout,
//! no references to an engine or relation. Build one from a
//! constructor ([`QuerySpec::boolean`], [`QuerySpec::average`],
//! [`QuerySpec::region2d`], [`QuerySpec::new`]) and the chaining
//! setters; set the rarer fields with struct-update syntax:
//!
//! ```
//! use optrules_core::{QuerySpec, Task};
//!
//! let spec = QuerySpec::boolean("Balance", "CardLoan")
//!     .min_support_pct(10)
//!     .task(Task::OptimizeSupport);
//! let parallel = QuerySpec { threads: Some(4), ..spec.clone() };
//! assert_ne!(spec, parallel);
//! ```
//!
//! That makes a spec
//!
//! * **storable** — batch files, request logs, test fixtures;
//! * **serializable** — the JSON protocol of [`crate::json`] encodes
//!   and decodes exactly this type;
//! * **plannable** — [`SharedEngine::run_batch`] deduplicates the
//!   shared work units of a whole batch of specs by hashing their
//!   resolved cache keys (see [`crate::plan`]).
//!
//! Specs are resolved against a relation's schema only when they run,
//! so the same spec can be sent to engines over different relations;
//! unknown names surface as errors at run time.
//!
//! Floating-point fields are stored as [`Real`], an `f64` wrapper whose
//! equality and hash use the bit pattern — two specs are equal exactly
//! when they describe the same query.
//!
//! [`SharedEngine::run_batch`]: crate::shared::SharedEngine::run_batch

use crate::query::Task;
use crate::ratio::Ratio;
use optrules_relation::{Condition, Schema};

/// An `f64` with bitwise equality and hashing, so condition bounds and
/// thresholds can live in `Eq + Hash` specs. `NaN == NaN` holds (same
/// bits), and `0.0 != -0.0` — identity of the *description*, not IEEE
/// comparison semantics.
#[derive(Debug, Clone, Copy)]
pub struct Real(pub f64);

impl Real {
    /// The wrapped value.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl PartialEq for Real {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}

impl Eq for Real {}

impl std::hash::Hash for Real {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl From<f64> for Real {
    fn from(x: f64) -> Self {
        Self(x)
    }
}

/// A primitive condition by attribute *name* — the spec-level mirror of
/// [`Condition`], without schema handles. Conjunctions are `Vec`s of
/// these (an empty conjunction is always true).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CondSpec {
    /// `attr = yes` (`true`) / `attr = no` (`false`) for a Boolean
    /// attribute.
    BoolIs {
        /// Boolean attribute name.
        attr: String,
        /// Required value.
        value: bool,
    },
    /// `attr = value` for a numeric attribute (exact equality).
    NumEq {
        /// Numeric attribute name.
        attr: String,
        /// Required value.
        value: Real,
    },
    /// `attr ∈ [lo, hi]` (inclusive on both ends).
    NumInRange {
        /// Numeric attribute name.
        attr: String,
        /// Lower bound (inclusive).
        lo: Real,
        /// Upper bound (inclusive).
        hi: Real,
    },
}

impl CondSpec {
    /// Flattens a resolved [`Condition`] into a conjunction of named
    /// primitives, dropping `True`s — how a schema-handle condition
    /// becomes a [`QuerySpec::given`] argument.
    ///
    /// # Panics
    ///
    /// Panics if the condition holds an attribute handle that is out of
    /// range for `schema` — handles are constructed from a schema, so
    /// this indicates the condition was built against a different
    /// relation.
    pub fn from_condition(cond: &Condition, schema: &Schema) -> Vec<CondSpec> {
        let mut out = Vec::new();
        Self::flatten_into(cond, schema, &mut out);
        out
    }

    fn flatten_into(cond: &Condition, schema: &Schema, out: &mut Vec<CondSpec>) {
        match cond {
            Condition::True => {}
            Condition::BoolIs(attr, value) => out.push(CondSpec::BoolIs {
                attr: schema.boolean_name(*attr).to_string(),
                value: *value,
            }),
            Condition::NumEq(attr, value) => out.push(CondSpec::NumEq {
                attr: schema.numeric_name(*attr).to_string(),
                value: Real(*value),
            }),
            Condition::NumInRange(attr, lo, hi) => out.push(CondSpec::NumInRange {
                attr: schema.numeric_name(*attr).to_string(),
                lo: Real(*lo),
                hi: Real(*hi),
            }),
            Condition::And(parts) => {
                for part in parts {
                    Self::flatten_into(part, schema, out);
                }
            }
        }
    }
}

/// Resolves a conjunction of [`CondSpec`]s into a [`Condition`] against
/// a schema, preserving order (so rendered descriptions list the
/// conjuncts as the spec does).
///
/// # Errors
///
/// Fails on unknown attribute names.
pub fn resolve_conjunction(parts: &[CondSpec], schema: &Schema) -> crate::error::Result<Condition> {
    let mut cond = Condition::True;
    for part in parts {
        let resolved = match part {
            CondSpec::BoolIs { attr, value } => Condition::BoolIs(schema.boolean(attr)?, *value),
            CondSpec::NumEq { attr, value } => Condition::NumEq(schema.numeric(attr)?, value.0),
            CondSpec::NumInRange { attr, lo, hi } => {
                Condition::NumInRange(schema.numeric(attr)?, lo.0, hi.0)
            }
        };
        cond = cond.and(resolved);
    }
    Ok(cond)
}

/// A spec's objective: what the mined rules imply.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ObjectiveSpec {
    /// `(target = yes)` for a Boolean attribute — the common case. It
    /// resolves to the same condition as a one-conjunct `Cond` of
    /// `(target = yes)`, and both share the all-Booleans scan.
    Bool {
        /// Boolean attribute name.
        target: String,
    },
    /// An arbitrary conjunction as the objective `C2`. An empty
    /// conjunction is always true.
    Cond {
        /// The conjuncts.
        all: Vec<CondSpec>,
    },
    /// Section 5: optimize ranges by `avg(target)`.
    Average {
        /// Numeric target attribute name.
        target: String,
    },
}

/// A fully declarative query — the only query type, and the unit of
/// the JSON request protocol ([`crate::json`]).
///
/// `None` fields fall back to the engine's
/// [`EngineConfig`](crate::EngineConfig) when the spec runs, so
/// one spec file works across sessions with different defaults.
///
/// Run one spec with
/// [`SharedEngine::run_spec`](crate::shared::SharedEngine::run_spec),
/// or a batch — with shared work deduplicated and fanned out — with
/// [`SharedEngine::run_batch`](crate::shared::SharedEngine::run_batch).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QuerySpec {
    /// Name of the bucketed numeric attribute `A`.
    pub attr: String,
    /// Second bucketed numeric attribute for the §1.4 two-attribute
    /// extension: when set, the query mines an optimized **rectangle**
    /// `((attr, attr2) ∈ X) ⇒ C` over an equi-depth grid instead of a
    /// 1-D range. Only Boolean/conjunction objectives are valid; the
    /// per-axis bucket count is `buckets` when set, else the integer
    /// square root of the engine default (so the grid's cell count
    /// matches the session's 1-D bucket budget).
    pub attr2: Option<String>,
    /// Presumptive conjunction `C1` (§4.3); empty for plain rules.
    pub given: Vec<CondSpec>,
    /// The objective.
    pub objective: ObjectiveSpec,
    /// Which optimization(s) to run.
    pub task: Task,
    /// Minimum support (optimized-confidence rule / §5 maximum-average
    /// range); engine default when `None`.
    pub min_support: Option<Ratio>,
    /// Minimum confidence (optimized-support rule); engine default when
    /// `None`. Only valid for boolean-objective specs.
    pub min_confidence: Option<Ratio>,
    /// Minimum target average for the §5 maximum-support range
    /// (defaults to 0.0). Only valid for average specs.
    pub min_average: Option<Real>,
    /// Bucket count `M` override.
    pub buckets: Option<usize>,
    /// Samples-per-bucket override (Algorithm 3.1).
    pub samples_per_bucket: Option<u64>,
    /// Sampling-seed override.
    pub seed: Option<u64>,
    /// Counting-scan worker count override (part of the scan cache key:
    /// float sums depend on addition order).
    pub threads: Option<usize>,
    /// Whether a simple boolean spec's scan counts every Boolean
    /// attribute (default `true`, the §6.1 all-pairs trick).
    pub scan_all_booleans: bool,
}

impl QuerySpec {
    /// A spec over `attr` with the given objective and engine defaults
    /// for everything else.
    pub fn new(attr: impl Into<String>, objective: ObjectiveSpec) -> Self {
        Self {
            attr: attr.into(),
            attr2: None,
            given: Vec::new(),
            objective,
            task: Task::Both,
            min_support: None,
            min_confidence: None,
            min_average: None,
            buckets: None,
            samples_per_bucket: None,
            seed: None,
            threads: None,
            scan_all_booleans: true,
        }
    }

    /// Shorthand for the common boolean-objective spec
    /// `(attr ∈ I) ⇒ (target = yes)`.
    pub fn boolean(attr: impl Into<String>, target: impl Into<String>) -> Self {
        Self::new(
            attr,
            ObjectiveSpec::Bool {
                target: target.into(),
            },
        )
    }

    /// Shorthand for the §1.4 two-attribute rectangle spec
    /// `((attr, attr2) ∈ X) ⇒ (target = yes)`.
    pub fn region2d(
        attr: impl Into<String>,
        attr2: impl Into<String>,
        target: impl Into<String>,
    ) -> Self {
        let mut spec = Self::boolean(attr, target);
        spec.attr2 = Some(attr2.into());
        spec
    }

    /// Shorthand for the §5 average spec: optimize ranges of `attr` by
    /// `avg(target)`.
    pub fn average(attr: impl Into<String>, target: impl Into<String>) -> Self {
        Self::new(
            attr,
            ObjectiveSpec::Average {
                target: target.into(),
            },
        )
    }

    /// The §1.3 "all combinations" sweep over `schema`: one
    /// [`QuerySpec::boolean`] per (numeric attribute, Boolean attribute)
    /// pair, numeric-major. Run them eagerly with
    /// [`SharedEngine::run_batch`](crate::shared::SharedEngine::run_batch)
    /// or lazily with `specs.iter().map(|s| engine.run_spec(s))` — each
    /// numeric attribute's first pair scans, the rest hit its cache.
    pub fn all_pairs(schema: &Schema) -> Vec<QuerySpec> {
        schema
            .numeric_attrs()
            .flat_map(|a| {
                schema
                    .boolean_attrs()
                    .map(move |b| Self::boolean(schema.numeric_name(a), schema.boolean_name(b)))
            })
            .collect()
    }

    /// Adds presumptive conjuncts `C1` (§4.3): the rule becomes
    /// `(A ∈ I) ∧ C1 ⇒ C2` and support counts only tuples meeting `C1`
    /// (measured against the full row count). Repeated calls conjoin.
    /// For an average spec the average is likewise taken over tuples
    /// meeting `C1` only.
    pub fn given(mut self, conds: impl IntoIterator<Item = CondSpec>) -> Self {
        self.given.extend(conds);
        self
    }

    /// Which optimization(s) to run (default [`Task::Both`]).
    pub fn task(mut self, task: Task) -> Self {
        self.task = task;
        self
    }

    /// Minimum support as a whole-number percentage.
    pub fn min_support_pct(mut self, pct: u64) -> Self {
        self.min_support = Some(Ratio::percent(pct));
        self
    }

    /// Minimum confidence as a whole-number percentage. Only valid for
    /// boolean-objective specs; an average spec with it fails to run.
    pub fn min_confidence_pct(mut self, pct: u64) -> Self {
        self.min_confidence = Some(Ratio::percent(pct));
        self
    }

    /// Minimum target average for the §5 maximum-support range. Only
    /// valid for average specs; a boolean spec with it fails to run.
    pub fn min_average(mut self, threshold: f64) -> Self {
        self.min_average = Some(Real(threshold));
        self
    }

    /// Overrides the bucket count `M` (per axis for a rectangle spec).
    pub fn buckets(mut self, buckets: usize) -> Self {
        self.buckets = Some(buckets);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optrules_relation::{BoolAttr, NumAttr};
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn schema() -> Schema {
        Schema::builder()
            .numeric("Balance")
            .numeric("Age")
            .boolean("CardLoan")
            .boolean("AutoWithdraw")
            .build()
    }

    fn hash_of<T: Hash>(x: &T) -> u64 {
        let mut h = DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    #[test]
    fn real_uses_bit_identity() {
        assert_eq!(Real(f64::NAN), Real(f64::NAN));
        assert_ne!(Real(0.0), Real(-0.0));
        assert_eq!(Real(1.5), Real(1.5));
        assert_eq!(hash_of(&Real(2.25)), hash_of(&Real(2.25)));
    }

    #[test]
    fn condition_round_trips_through_cond_specs() {
        let s = schema();
        let cond = Condition::BoolIs(BoolAttr(0), true)
            .and(Condition::NumInRange(NumAttr(0), 10.0, 20.0))
            .and(Condition::NumEq(NumAttr(1), 34.0));
        let specs = CondSpec::from_condition(&cond, &s);
        assert_eq!(specs.len(), 3);
        let back = resolve_conjunction(&specs, &s).unwrap();
        assert_eq!(back, cond);
        // True flattens to nothing and resolves back to True.
        assert!(CondSpec::from_condition(&Condition::True, &s).is_empty());
        assert_eq!(resolve_conjunction(&[], &s).unwrap(), Condition::True);
    }

    #[test]
    fn unknown_names_fail_resolution() {
        let s = schema();
        let bad = CondSpec::BoolIs {
            attr: "NoSuch".into(),
            value: true,
        };
        assert!(resolve_conjunction(&[bad], &s).is_err());
    }

    #[test]
    fn specs_are_hashable_keys() {
        let a = QuerySpec::boolean("Balance", "CardLoan");
        let mut b = QuerySpec::boolean("Balance", "CardLoan");
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        b.min_average = Some(Real(5.0));
        assert_ne!(a, b);
        let mut set = std::collections::HashSet::new();
        set.insert(a.clone());
        set.insert(b);
        set.insert(a);
        assert_eq!(set.len(), 2);
    }
}
