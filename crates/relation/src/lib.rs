//! Storage substrate for `optrules`.
//!
//! Fukuda et al. evaluate their mining system against "huge databases
//! that occupy much more space than the main memory" (Section 1.3) — the
//! whole motivation for randomized bucketing is that sorting such a
//! relation per numeric attribute is infeasible. This crate provides the
//! pieces of that setting:
//!
//! * [`schema`] — relations with named numeric and Boolean attributes
//!   (Definition 2.1);
//! * [`memory`] — an in-memory columnar [`memory::Relation`] for data
//!   that fits in RAM;
//! * [`chunked`] — copy-on-write relation *versions*
//!   ([`chunked::ChunkedRelation`]): an immutable base store plus
//!   `Arc`-shared frozen segments of appended rows, so producing the
//!   next version after appending `k` rows is O(k) amortized and old
//!   versions stay bit-stable snapshots (the substrate of the engine's
//!   live-relation generations);
//! * [`file`] — a file-backed fixed-width row store
//!   ([`file::FileRelation`]) matching the paper's §6.1 layout (8
//!   numeric and 8 Boolean attributes = 72 bytes/tuple), scanned
//!   sequentially through buffered I/O;
//! * [`scan`] — the [`scan::TupleScan`] / [`scan::RandomAccess`] traits
//!   that bucketing and mining are written against, so every algorithm
//!   runs unchanged on either store (a whole sample is fetched by one
//!   [`scan::RandomAccess::numeric_at_many`] call, which the file store
//!   turns into coalesced reads);
//! * [`columnar`] — the opt-in [`columnar::ColumnarScan`] fast path:
//!   per-segment contiguous column slices, bit-packed Boolean spans,
//!   and zone maps for the columns a scan's
//!   [`columnar::Projection`] names, discovered at runtime via
//!   [`scan::TupleScan::as_columnar`] and consumed by the counting
//!   kernels in the bucketing crate;
//! * [`durable`] — crash-safe live relations
//!   ([`durable::DurableRelation`]): a checksummed write-ahead log plus
//!   segment spill over [`chunked::ChunkedRelation`], so appended rows
//!   survive `kill -9` and restarts resume at the right generation;
//! * [`condition`] — primitive conditions and conjunctions
//!   (`A = yes`, `A ∈ [v1, v2]`, …) used for presumptive/objective
//!   conditions of rules;
//! * [`gen`] — seeded synthetic data generators: the paper's §6.1
//!   uniform workload, bank-customer and retail-basket scenarios with
//!   *planted* confident ranges so tests can verify mined rules against
//!   known ground truth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitcol;
pub mod chunked;
pub mod columnar;
pub mod condition;
pub mod durable;
pub mod encoding;
pub mod error;
pub mod file;
pub mod gen;
pub mod memory;
pub mod scan;
pub mod schema;

pub use bitcol::{BitColumn, BitSpan};
pub use chunked::{AppendRows, ChunkedRelation, RowFrame};
pub use columnar::{BlockVisitor, ColumnBlock, ColumnarScan, Projection};
pub use condition::Condition;
pub use durable::{
    Durability, DurabilityConfig, DurabilityMetrics, DurabilityStats, DurableRelation, Recovery,
    WalSync,
};
pub use error::RelationError;
pub use file::{FileRelation, FileRelationWriter};
pub use memory::Relation;
pub use scan::{RandomAccess, TupleScan};
pub use schema::{BoolAttr, NumAttr, Schema, SchemaBuilder};
