//! adv-profile: kernel-level continuous profiling for the reproduction
//! stack.
//!
//! The crate is dependency-free (std plus `adv-obs` for the registry
//! export), always compiled into release binaries, and runtime-gated — the
//! same deployment contract as `adv-obs`. Three pieces:
//!
//! * [`kernel`] — **kernel accounting**: [`KernelScope`] is an RAII guard
//!   wrapped around every hot kernel in `adv-tensor` (matmul, direct conv,
//!   the im2col/col2im of the conv backward pass, pooling, elementwise,
//!   reductions), `adv-nn` (softmax) and `adv-magnet` (detector-distance
//!   loops, JSD). Each scope records wall time, call count, element count
//!   and the kernel's declared FLOP/byte volume, so a profile reports
//!   *achieved GFLOP/s per kernel* — the attribution the SIMD roadmap item
//!   needs before and after vectorizing. Scopes nest;
//!   self time is total time minus time inside child scopes, so every
//!   nanosecond lands in exactly one kernel. Aggregation is per-thread
//!   with drop-not-block flushing into process-wide atomics, the same
//!   discipline as `adv-telemetry`'s recorder.
//! * [`trace`] — **causal request traces**: a [`TraceId`] minted at
//!   `submit` time rides through queue wait, batch formation, defense
//!   stages and kernel scopes. Latency exemplars map each latency
//!   histogram bucket to the most recent trace that landed in it, so a
//!   slow request resolves to a full span tree instead of a bucket count.
//! * [`report`] — exports: a per-kernel table, a collapsed-stack
//!   (flamegraph-compatible) text dump, and gauges published into an
//!   `adv-obs` [`Registry`](adv_obs::Registry).
//!
//! # Enabling profiling
//!
//! Everything is gated on a process-wide flag read from the `ADV_PROFILE`
//! environment variable (`off|on`, read once on first use) or set
//! programmatically via [`set_enabled`]. While off, every instrumentation
//! point is one relaxed atomic load and a predictable branch — the
//! `server_b32_profile_off` bench variant pins this at <2% of serve
//! throughput. Profiling never changes numerical results at any setting;
//! it only reads clocks and bumps atomics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernel;
pub mod report;
pub mod trace;

pub use kernel::{dropped_stacks, flush_current_thread, KernelKind, KernelScope, StageScope, Work};
pub use report::{
    collapsed, kernel_reports, kernel_table, publish_to, total_kernel_self_ns, KernelReport,
};
pub use trace::{
    dropped_spans, latency_exemplars, link, next_trace_id, observe_latency, record_event,
    record_into, render_trace, spans_for, TraceGuard, TraceId, TraceSpan,
};

use std::sync::atomic::{AtomicU8, Ordering};

/// Sentinel meaning "not yet initialised from `ADV_PROFILE`".
const ENABLED_UNSET: u8 = u8::MAX;

static ENABLED: AtomicU8 = AtomicU8::new(ENABLED_UNSET);

#[cold]
fn init_enabled_from_env() -> bool {
    let on = std::env::var("ADV_PROFILE")
        .ok()
        .map(|v| matches!(v.to_ascii_lowercase().as_str(), "on" | "1" | "true"))
        .unwrap_or(false);
    // Keep an explicit `set_enabled` that raced ahead of us.
    // lint-ok(ordering-justified): the flag byte is self-contained state;
    // the CAS only needs atomicity and the follow-up load only needs to
    // see *a* committed value — both orderings are free to be Relaxed.
    let _ = ENABLED.compare_exchange(
        ENABLED_UNSET,
        u8::from(on),
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    // lint-ok(ordering-justified): see the CAS above; any committed flag
    // byte is a valid answer here.
    ENABLED.load(Ordering::Relaxed) == 1
}

/// `true` when profiling instrumentation records (initialised from
/// `ADV_PROFILE` on first call). This is the hot-path gate: one relaxed
/// load and a compare.
#[inline]
pub fn enabled() -> bool {
    // lint-ok(ordering-justified): a momentarily stale flag only delays
    // when profiling switches on/off; no data is guarded by it.
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        ENABLED_UNSET => init_enabled_from_env(),
        _ => false,
    }
}

/// Turns profiling on or off for the whole process (the probe binaries'
/// programmatic switch; overrides `ADV_PROFILE`).
pub fn set_enabled(on: bool) {
    // lint-ok(ordering-justified): last-writer-wins flag; readers tolerate
    // observing the change late (see `enabled`).
    ENABLED.store(u8::from(on), Ordering::Relaxed);
}

/// Clears every accumulated profile: kernel slots, collapsed stacks,
/// trace spans, links, exemplars, and drop counters. Flushes the calling
/// thread first; other threads' unflushed tails are picked up once they
/// flush or exit (tests and probes).
pub fn reset() {
    kernel::flush_current_thread();
    kernel::reset_kernels();
    trace::reset_traces();
}

#[cfg(test)]
pub(crate) fn test_enabled_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_enabled_controls_gate() {
        let _guard = test_enabled_lock();
        let before = enabled();
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(before);
    }
}
