//! Hardware counter width.
//!
//! Intel PMCs and ARM PMEVCNTR are 48 bits wide and wrap. Each core's
//! counter budget and event availability live in
//! [`crate::uarch::UarchParams`]; the kernel layer (`simos::perf`) keeps
//! 64-bit per-event counts, which `read()` returns, and its counter-wrap
//! fault truncates a biased count to these 48 bits on the rdpmc userpage
//! only, so an rdpmc reader sees the register wrap.

/// Width of a hardware counter in bits (Intel PMCs and ARM PMEVCNTR are
/// effectively 48-bit in this era).
pub const COUNTER_BITS: u32 = 48;

/// Wrap mask for counter values.
pub const COUNTER_MASK: u64 = (1 << COUNTER_BITS) - 1;
