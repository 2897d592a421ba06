//! Multi-tenant QoS (labtenant): declare per-tenant policies at connect
//! time and watch the Runtime police the noisy neighbor.
//!
//! Walks DESIGN.md §11 end to end:
//!
//! 1. mount an async block LabStack (NoOp scheduler → Kernel Driver),
//! 2. connect a latency-sensitive tenant and a rate-limited batch
//!    tenant with [`Runtime::connect_with_policy`],
//! 3. drive I/O; the batch tenant hits the token bucket and handles the
//!    typed `Throttled { retry_after_ns }` backpressure by idling its
//!    virtual clock forward,
//! 4. stage a hot policy update through the live-upgrade path,
//! 5. dump the per-tenant accounting table (labtelem histograms).
//!
//! Run with: `cargo run --release --example multi_tenant`

use labstor::core::client::ClientError;
use labstor::core::{BlockOp, Payload, Runtime, RuntimeConfig};
use labstor::ipc::Credentials;
use labstor::mods::DeviceRegistry;
use labstor::qos::TenantPolicy;
use labstor::sim::DeviceKind;

fn main() {
    // 1. A simulated NVMe behind a minimal async block stack.
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt = Runtime::start(RuntimeConfig::default());
    labstor::mods::install_all(&rt.mm, &devices);
    let stack = rt
        .mount_stack_json(
            r#"{
        "mount": "blk::/q", "exec": "async", "authorized_uids": [0],
        "labmods": [
            { "uuid": "sched_q", "type": "noop_sched", "outputs": ["drv_q"] },
            { "uuid": "drv_q", "type": "kernel_driver",
              "params": {"device": "nvme0"} }
        ]
    }"#,
        )
        .expect("stack mounts");

    // 2. Two tenants with declared policies. Tenant 1 is latency
    //    sensitive (weighted-fair share 4); tenant 2 is a batch job
    //    rate-limited to 1 MiB of payload per virtual second.
    let latency_tenant = Credentials::new(1, 0, 0).with_tenant(1.into());
    let batch_tenant = Credentials::new(2, 0, 0).with_tenant(2.into());
    let mut fast =
        rt.connect_with_policy(latency_tenant, 1, TenantPolicy::default().with_weight(4));
    let mut batch = rt.connect_with_policy(
        batch_tenant,
        1,
        TenantPolicy::rate_limited(1 << 20, 256 << 10).with_weight(1),
    );

    // 3. The latency tenant reads 4 KiB pages; the batch tenant pushes
    //    256 KiB writes until the bucket pushes back.
    for i in 0..32u64 {
        let (_, lat) = fast
            .execute(
                &stack,
                Payload::Block(BlockOp::ReadBuf {
                    lba: i * 8,
                    len: 4096,
                }),
            )
            .expect("read");
        assert!(lat > 0, "virtual latency is modeled");
    }
    let mut throttled = 0u32;
    let mut admitted = 0u32;
    for i in 0..8u64 {
        loop {
            let payload = Payload::Block(BlockOp::Write {
                lba: i * 512,
                data: vec![0xbe; 256 << 10],
            });
            match batch.execute(&stack, payload) {
                Ok(_) => {
                    admitted += 1;
                    break;
                }
                Err(ClientError::Throttled { retry_after_ns }) => {
                    // Typed backpressure: idle the tenant's virtual
                    // clock to the bucket's retry hint and resubmit.
                    throttled += 1;
                    let target = batch.ctx.now() + retry_after_ns;
                    batch.ctx.idle_until(target);
                }
                Err(e) => panic!("batch tenant: {e}"),
            }
        }
    }
    println!("batch tenant: {admitted} writes admitted, {throttled} throttles served");
    assert_eq!(admitted, 8);
    assert!(throttled > 0, "the bucket must have pushed back");

    // 4. Hot policy update: double the batch tenant's rate through the
    //    staged path (normally applied by the admin tick; applied
    //    directly here so the effect is immediate and observable).
    rt.tenants.request_policy_update(
        2.into(),
        TenantPolicy::rate_limited(2 << 20, 512 << 10).with_weight(2),
    );
    let applied = rt.tenants.apply_pending();
    assert_eq!(applied, 1);
    println!("hot policy update applied to {applied} tenant(s)");

    // 5. Per-tenant accounting: admitted/rejected counts, service
    //    virtual-ns and latency percentiles from labtelem histograms.
    let table = rt.tenants.export_json();
    println!("{}", serde_json::to_string_pretty(&table).expect("json"));
    let fast_p99 = rt.tenants.resolve(1.into()).expect("registered").p99_ns();
    println!("latency tenant p99: {fast_p99} virtual ns");
    assert!(fast_p99 > 0);

    rt.shutdown();
    println!("multi_tenant: OK");
}
