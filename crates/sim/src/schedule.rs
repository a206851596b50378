//! The levelized evaluation schedule both engines share.
//!
//! The schedule moved to [`fpga_fabric::schedule`] so the placer's
//! incremental static-timing kernel ([`fpga_fabric::sta`]) can reuse the
//! same levelized traversal without a dependency cycle (`netsim` depends
//! on `fpga_fabric`, not the other way around). This module re-exports it
//! under the historical `netsim::schedule` path; both simulation engines
//! and all external callers keep compiling unchanged.

pub use fpga_fabric::schedule::Schedule;
