//! Observability: structured trace events, metrics, and pluggable sinks.
//!
//! This is a re-export of [`negassoc_txdb::obs`], the dependency-free base
//! layer the whole workspace shares (the worker pool at the bottom of the
//! stack emits events too, so the types must live below this crate). See
//! that module — and DESIGN.md §11 — for the event schema, the sink
//! contract, and the overhead budget.
//!
//! Attach an observer to a run through
//! [`RunControl::with_observer`](crate::ctrl::RunControl::with_observer):
//!
//! ```
//! use negassoc::ctrl::RunControl;
//! use negassoc::obs::{Obs, RingBufferSink};
//! use std::sync::Arc;
//!
//! let ring = Arc::new(RingBufferSink::new(1024));
//! let obs = Obs::disabled().with_sink(ring.clone());
//! let ctrl = RunControl::new().with_observer(obs.clone());
//! // ... NegativeMiner::mine_with_controls(..., &ctrl) ...
//! // Completed or interrupted, the run's passes are on the ledger:
//! assert!(obs.passes().is_empty());
//! ```

pub use negassoc_txdb::obs::*;
