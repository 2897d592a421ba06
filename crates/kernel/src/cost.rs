//! Calibrated costs of kernel crossings and in-kernel work.
//!
//! These constants model the Linux 5.4 path on the paper's testbed
//! (Xeon E5-2670 v3 @ 2.3 GHz, KPTI-era syscall cost). They are the knobs
//! the whole baseline model hangs on; `EXPERIMENTS.md` records how the
//! resulting shapes line up against the paper's figures.

use labstor_sim::Ctx;

/// One user→kernel→user syscall round trip (mode switches, entry assembly,
/// KPTI page-table swap).
pub(crate) const SYSCALL_NS: u64 = 700;

/// A full context switch to another thread (scheduler pick, register and
/// address-space switch, cache disturbance). Paid e.g. when an AIO thread
/// or an interrupt wakeup hands control.
pub(crate) const CONTEXT_SWITCH_NS: u64 = 1_800;

/// Hard interrupt + completion soft-irq processing for interrupt-driven
/// devices (SATA, HDD).
pub(crate) const INTERRUPT_NS: u64 = 1_500;

/// Allocating and initializing a `bio`/`request` pair in the block layer.
pub(crate) const BIO_ALLOC_NS: u64 = 450;

/// Per-request block-layer bookkeeping (plug list, merge attempt, tag
/// allocation, software-queue insertion).
pub(crate) const BLOCK_LAYER_NS: u64 = 550;

/// I/O scheduler decision cost (even NoOp keys a request to a queue).
pub(crate) const SCHED_DECIDE_NS: u64 = 120;

/// MQ driver doorbell write + command packaging.
pub(crate) const DRIVER_SUBMIT_NS: u64 = 150;

/// Fixed cost of touching one page-cache page (lookup in the per-file
/// tree, locking the page).
pub(crate) const PAGE_LOOKUP_NS: u64 = 250;

/// Copying between user and kernel buffers, per byte (≈3.3 GB/s single
/// threaded, memcpy through cold cache).
pub(crate) const COPY_NS_PER_KB: u64 = 300;

/// VFS path-walk cost per path component (dcache hash lookup + RCU walk).
pub(crate) const PATH_COMPONENT_NS: u64 = 180;

/// Client-side predicate scan over payload bytes, per KiB (branchy
/// record-at-a-time compare loop, ≈1 GB/s — slower than straight memcpy
/// because of the per-record control flow). This is the cost pushdown
/// avoids by filtering in-stack and shipping bytes, not pages.
pub(crate) const SCAN_NS_PER_KB: u64 = 1_000;

/// Scheduler wakeup of a task blocked on I/O completion.
pub(crate) const WAKEUP_NS: u64 = 900;

/// Charge one syscall round trip.
pub(crate) fn syscall(ctx: &mut Ctx) {
    ctx.advance(SYSCALL_NS);
}

/// Charge a context switch.
pub(crate) fn context_switch(ctx: &mut Ctx) {
    ctx.advance(CONTEXT_SWITCH_NS);
}

/// Charge a user↔kernel copy of `bytes`.
pub(crate) fn copy(ctx: &mut Ctx, bytes: usize) {
    ctx.advance(copy_ns(bytes));
}

/// Modeled cost of copying `bytes` between user and kernel space.
pub(crate) fn copy_ns(bytes: usize) -> u64 {
    (bytes as u64 * COPY_NS_PER_KB) / 1024
}

/// Modeled cost of a client-side predicate scan over `bytes` of payload.
pub(crate) fn scan_ns(bytes: usize) -> u64 {
    (bytes as u64 * SCAN_NS_PER_KB) / 1024
}

/// Charge a client-side predicate scan over `bytes`.
pub fn scan(ctx: &mut Ctx, bytes: usize) {
    ctx.advance(scan_ns(bytes));
}

/// Charge a VFS path resolution over `components` path elements.
pub(crate) fn path_walk(ctx: &mut Ctx, components: usize) {
    ctx.advance(PATH_COMPONENT_NS * components.max(1) as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_add_up() {
        let mut ctx = Ctx::new();
        syscall(&mut ctx);
        context_switch(&mut ctx);
        assert_eq!(ctx.now(), SYSCALL_NS + CONTEXT_SWITCH_NS);
    }

    #[test]
    fn copy_scales_with_size() {
        assert_eq!(copy_ns(1024), COPY_NS_PER_KB);
        assert_eq!(copy_ns(4096), 4 * COPY_NS_PER_KB);
        let mut ctx = Ctx::new();
        copy(&mut ctx, 2048);
        assert_eq!(ctx.now(), 2 * COPY_NS_PER_KB);
    }

    #[test]
    fn scan_is_slower_than_copy() {
        // The client-side scan the pushdown path displaces costs more
        // per byte than a straight memcpy.
        assert!(scan_ns(4096) > copy_ns(4096));
        let mut ctx = Ctx::new();
        scan(&mut ctx, 1024);
        assert_eq!(ctx.now(), SCAN_NS_PER_KB);
    }

    #[test]
    fn path_walk_charges_per_component() {
        let mut a = Ctx::new();
        let mut b = Ctx::new();
        path_walk(&mut a, 1);
        path_walk(&mut b, 4);
        assert_eq!(b.now(), 4 * a.now());
    }

    #[test]
    fn relative_magnitudes_match_linux() {
        // A context switch costs more than a bare syscall; an interrupt
        // round trip sits in between.
        const _: () = assert!(CONTEXT_SWITCH_NS > SYSCALL_NS);
        const _: () = assert!(INTERRUPT_NS > SYSCALL_NS);
        // The block layer path (bio + bookkeeping + sched + driver) is
        // over a microsecond — the overhead Fig. 6 shows SPDK avoiding.
        let blk = BIO_ALLOC_NS + BLOCK_LAYER_NS + SCHED_DECIDE_NS + DRIVER_SUBMIT_NS;
        assert!(blk > 1_000);
    }
}
