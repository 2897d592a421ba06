//! Criterion benchmarks for the IPC hot path: the queue-pair batched
//! verbs (`submit_batch`/`consume_batch`/`complete_batch`/`reap_batch`)
//! across batch size (1/8/32) and client-thread count (1/4). The
//! `bench_ipc` binary is the JSON-emitting CI gate; this group is the
//! interactive drill-down over the same matrix.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use labstor_ipc::{Envelope, QueueFlags, QueuePair};
use labstor_sim::Ctx;

const DEPTH: usize = 1024;
const RUNTIME_DOMAIN: u32 = 0;
/// Ops each client thread pushes through per measured iteration in the
/// 4-thread variants — large enough that thread-spawn overhead (paid
/// identically by every config) stays in the noise.
const MT_OPS_PER_CLIENT: usize = 2048;

fn queue(id: u64) -> Arc<QueuePair<u64>> {
    Arc::new(QueuePair::new(id, DEPTH, QueueFlags::default()))
}

/// Single-thread roundtrip: one submit/consume/complete/reap burst of
/// `batch` requests per iteration, client and worker interleaved.
fn bench_single(c: &mut Criterion) {
    let mut g = c.benchmark_group("ipc_hotpath_t1");
    for batch in [1usize, 8, 32] {
        g.throughput(Throughput::Elements(batch as u64));
        let name = format!("b{batch}");
        g.bench_function(&name, |b| {
            let qp = queue(0);
            let mut client = Ctx::new();
            let mut worker = Ctx::new();
            let mut pend: Vec<u64> = Vec::with_capacity(batch);
            let mut inbox: Vec<Envelope<u64>> = Vec::with_capacity(batch);
            let mut done: Vec<(u64, u64)> = Vec::with_capacity(batch);
            let mut outbox: Vec<Envelope<u64>> = Vec::with_capacity(batch);
            b.iter(|| {
                pend.clear();
                pend.extend(0..batch as u64);
                while !pend.is_empty() {
                    qp.submit_batch(&mut pend, client.now(), 1);
                }
                let mut consumed = 0;
                while consumed < batch {
                    inbox.clear();
                    consumed += qp.consume_batch(&mut worker, RUNTIME_DOMAIN, &mut inbox, batch);
                    for env in inbox.drain(..) {
                        done.push((env.payload, worker.now()));
                    }
                    while !done.is_empty() {
                        qp.complete_batch(&mut done, RUNTIME_DOMAIN);
                    }
                }
                let mut reaped = 0;
                while reaped < batch {
                    outbox.clear();
                    reaped += qp.reap_batch(&mut client, 1, &mut outbox, batch);
                    std::hint::black_box(&outbox);
                }
            });
        });
    }
    g.finish();
}

/// Four client threads (one queue pair each, preserving the SPSC
/// per-direction contract) against one worker thread; each iteration
/// pushes `4 * MT_OPS_PER_CLIENT` requests end-to-end.
fn bench_multi(c: &mut Criterion) {
    let mut g = c.benchmark_group("ipc_hotpath_t4");
    g.sample_size(10);
    for batch in [1usize, 8, 32] {
        g.throughput(Throughput::Elements(4 * MT_OPS_PER_CLIENT as u64));
        let name = format!("b{batch}");
        g.bench_function(&name, |b| {
            b.iter(|| {
                let qps: Vec<Arc<QueuePair<u64>>> = (0..4).map(|i| queue(i as u64)).collect();
                let stop = Arc::new(AtomicBool::new(false));
                let worker = {
                    let qps = qps.clone();
                    let stop = stop.clone();
                    std::thread::spawn(move || {
                        let mut ctx = Ctx::new();
                        let mut inbox: Vec<Envelope<u64>> = Vec::with_capacity(batch);
                        let mut done: Vec<(u64, u64)> = Vec::with_capacity(batch);
                        while !stop.load(Ordering::Acquire) {
                            for q in &qps {
                                inbox.clear();
                                if q.consume_batch(&mut ctx, RUNTIME_DOMAIN, &mut inbox, batch) == 0
                                {
                                    continue;
                                }
                                for env in inbox.drain(..) {
                                    done.push((env.payload, ctx.now()));
                                }
                                while !done.is_empty() && !stop.load(Ordering::Acquire) {
                                    if q.complete_batch(&mut done, RUNTIME_DOMAIN) == 0 {
                                        std::hint::spin_loop();
                                    }
                                }
                                done.clear();
                            }
                        }
                    })
                };
                let clients: Vec<_> = qps
                    .iter()
                    .enumerate()
                    .map(|(i, qp)| {
                        let qp = qp.clone();
                        std::thread::spawn(move || {
                            let domain = i as u32 + 1;
                            let mut ctx = Ctx::new();
                            let mut pend: Vec<u64> = Vec::with_capacity(batch);
                            let mut outbox: Vec<Envelope<u64>> = Vec::with_capacity(batch);
                            let mut next: u64 = 0;
                            let mut reaped = 0usize;
                            while reaped < MT_OPS_PER_CLIENT {
                                if pend.is_empty() && (next as usize) < MT_OPS_PER_CLIENT {
                                    let n = batch.min(MT_OPS_PER_CLIENT - next as usize);
                                    for _ in 0..n {
                                        pend.push(next);
                                        next += 1;
                                    }
                                }
                                if !pend.is_empty() {
                                    qp.submit_batch(&mut pend, ctx.now(), domain);
                                }
                                outbox.clear();
                                let got = qp.reap_batch(&mut ctx, domain, &mut outbox, batch);
                                if got == 0 {
                                    std::hint::spin_loop();
                                }
                                reaped += got;
                                std::hint::black_box(&outbox);
                            }
                        })
                    })
                    .collect();
                for h in clients {
                    h.join().expect("client thread");
                }
                stop.store(true, Ordering::Release);
                worker.join().expect("worker thread");
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_single, bench_multi);
criterion_main!(benches);
