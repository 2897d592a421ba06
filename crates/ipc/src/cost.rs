//! Calibrated IPC cost model.
//!
//! The paper's Fig. 4a attributes 8.4% of a ~17 µs 4 KB write to IPC:
//! "since the Runtime is on a separate core, the request needs to be
//! fetched from another core's cache or directly from DRAM". Our queue
//! operations are real, but the *time* they would take on the testbed —
//! a cross-core cache-line bounce of the request descriptor — is charged
//! to the consuming actor's virtual clock.

use labstor_sim::Ctx;

/// Cost of transferring a request descriptor to another core's cache
/// (one direction). Two hops per request/response round trip lands IPC at
/// ≈1.2 µs, the paper's 8.4% share of a ~15 µs 4 KB write.
pub(crate) const CROSS_DOMAIN_HOP_NS: u64 = 600;

/// Cost of handing a request to a LabMod in the *same* address space
/// (a function call through the registry) — negligible but nonzero.
pub const SAME_DOMAIN_HOP_NS: u64 = 20;

/// Charge the cross-domain transfer cost to `ctx`.
pub(crate) fn cross_domain_hop(ctx: &mut Ctx) {
    ctx.advance(CROSS_DOMAIN_HOP_NS);
}

/// Charge the same-domain hand-off cost to `ctx`.
pub fn same_domain_hop(ctx: &mut Ctx) {
    ctx.advance(SAME_DOMAIN_HOP_NS);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hops_charge_the_clock() {
        let mut ctx = Ctx::new();
        cross_domain_hop(&mut ctx);
        assert_eq!(ctx.now(), CROSS_DOMAIN_HOP_NS);
        same_domain_hop(&mut ctx);
        assert_eq!(ctx.now(), CROSS_DOMAIN_HOP_NS + SAME_DOMAIN_HOP_NS);
    }

    #[test]
    fn cross_domain_costs_more() {
        const _: () = assert!(CROSS_DOMAIN_HOP_NS > SAME_DOMAIN_HOP_NS);
    }
}
