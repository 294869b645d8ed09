//! Transaction database substrate for the negative-association miner.
//!
//! The mining algorithms of the paper are expressed as a sequence of *passes*
//! over a database of customer transactions `⟨TID, i_j, i_k, …, i_n⟩`. This
//! crate provides everything those passes need:
//!
//! * [`TransactionDb`] — a compact in-memory store (flat item array +
//!   offsets) built via [`TransactionDbBuilder`],
//! * [`Transaction`] — a borrowed view of one basket (TID + sorted items),
//! * [`TransactionSource`] — the pass abstraction shared by in-memory and
//!   on-disk databases, plus [`PassCounter`] so tests and benchmarks can
//!   verify the paper's `2n` vs `n + 1` pass counts,
//! * [`binfmt`] / [`textfmt`] — a varint-compressed, per-block CRC-32
//!   checksummed binary file format (strict and salvage reads) and a
//!   human-readable text format, both streamable,
//! * [`crc32`] / [`fault`] — the vendored checksum plus deterministic
//!   fault injection ([`fault::FaultySource`], [`fault::FaultyReader`])
//!   and bounded retry ([`fault::RetryPolicy`], [`fault::RetryingSource`])
//!   so the multi-pass miners survive transient I/O failures,
//! * [`block`] — fixed-size transaction blocks plus the scoped worker-pool
//!   pass executor ([`block::parallel_pass`]) and the [`Parallelism`]
//!   policy behind every multi-threaded counting pass,
//! * [`ctrl`] — cooperative run control: the lock-free
//!   [`ctrl::CancelToken`] checked at block/pass boundaries, wall-clock
//!   [`ctrl::Deadline`]s and the [`ctrl::Watchdog`] stall monitor,
//! * [`obs`] — the observability substrate: structured [`obs::Event`]
//!   trace records, the sharded [`obs::Metrics`] registry and pluggable
//!   [`obs::TraceSink`]s behind the cheap [`obs::Obs`] handle,
//! * [`partition`] — horizontal partitioning for memory-bounded or parallel
//!   counting,
//! * [`shard`] — sharded on-disk databases behind a checksummed manifest:
//!   [`shard::ShardedSource`] streams shards one at a time with bounded
//!   memory, and each shard is its own fault domain (retry → salvage →
//!   [`shard::ShardQuarantine`]) so one corrupt shard degrades the run
//!   instead of killing it,
//! * [`vertical`] — packed TID-bitmap indexes with AND + popcount
//!   support counting, the building blocks of the bitmap counting backend.
//!
//! # Example
//!
//! ```
//! use negassoc_txdb::{TransactionDbBuilder, TransactionSource};
//! use negassoc_taxonomy::ItemId;
//!
//! let mut b = TransactionDbBuilder::new();
//! b.add([ItemId(0), ItemId(2)]);
//! b.add([ItemId(1), ItemId(2), ItemId(0)]);
//! let db = b.build();
//!
//! assert_eq!(db.len(), 2);
//! let mut total_items = 0;
//! db.pass(&mut |t| total_items += t.items().len()).unwrap();
//! assert_eq!(total_items, 5);
//! ```

pub mod binfmt;
pub mod block;
pub mod crc32;
pub mod ctrl;
pub mod fault;
pub mod obs;
pub mod partition;
pub mod shard;
pub mod stats;
pub mod textfmt;
pub mod throttle;
pub mod vertical;

mod database;
mod scan;
mod transaction;

pub use block::Parallelism;
pub use database::{TransactionDb, TransactionDbBuilder};
pub use scan::{PassCounter, TransactionSource};
pub use transaction::Transaction;
