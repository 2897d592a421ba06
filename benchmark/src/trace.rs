//! The per-layer split, measured from outside the stack.
//!
//! Pass V reads the labtelem flight recorder (virtual ns) of an unmodified
//! stack. Pass H mounts the same stack with a `bench_probe` LabMod in front of
//! every real vertex; a probe stamps the host clock around `env.forward`, so
//! a layer's host self time is its probe's span minus the next probe's spans
//! inside it. No crate of the repository is edited for either pass.

use std::any::Any;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use labstor::core::{
    LabMod, ModType, ModuleManager, Request, RespPayload, StackEnv, StackSpec, VertexSpec,
};
use labstor::sim::Ctx;
use labstor::telemetry::{anatomy, chrome_trace, SpanEvent, Stage};

use crate::trial::TrialResult;

const PROBE_TYPE: &str = "bench_probe";

/// The layer names used in metric names, by LabMod type.
pub fn layer_name(type_name: &str) -> &'static str {
    match type_name {
        "permissions" => "perms",
        "labfs" => "labfs",
        "lru_cache" => "lru",
        "noop_sched" => "sched",
        "kernel_driver" => "driver",
        "labkvs" => "labkvs",
        _ => "other",
    }
}

/// The layers a per-layer metric exists for, in stack order.
pub const LAYERS: [&str; 6] = ["perms", "labfs", "lru", "sched", "driver", "labkvs"];

/// One probe observation: request `req` spent `[start, end]` (host ns since
/// the trial's epoch) at or below stack vertex `vertex`. Its parent is the
/// span of the previous probe that encloses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostSpan {
    pub req: u64,
    pub vertex: usize,
    pub start: u64,
    pub end: u64,
}

/// Where probes record. Preallocated so that recording does not allocate
/// inside the timed region.
pub struct ProbeSink {
    epoch: Instant,
    spans: Mutex<Vec<HostSpan>>,
}

impl ProbeSink {
    /// Register the `bench_probe` LabMod type on `mm`, recording into the
    /// returned sink with timestamps relative to `epoch`.
    pub fn install(mm: &ModuleManager, epoch: Instant) -> Arc<ProbeSink> {
        let sink = Arc::new(ProbeSink {
            epoch,
            spans: Mutex::new(Vec::with_capacity(1 << 21)),
        });
        let for_factory = sink.clone();
        mm.register_factory(
            PROBE_TYPE,
            Arc::new(move |_params| {
                Arc::new(Probe {
                    sink: for_factory.clone(),
                }) as Arc<dyn LabMod>
            }),
        );
        sink
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: HostSpan) {
        self.spans.lock().expect("probe sink poisoned").push(span);
    }

    pub fn clear(&self) {
        self.spans.lock().expect("probe sink poisoned").clear();
    }

    pub fn take(&self) -> Vec<HostSpan> {
        std::mem::take(&mut *self.spans.lock().expect("probe sink poisoned"))
    }
}

/// A pass-through LabMod that times everything downstream of it.
struct Probe {
    sink: Arc<ProbeSink>,
}

// labmod-default-ok: a probe keeps no state to hand over or repair
impl LabMod for Probe {
    fn type_name(&self) -> &'static str {
        PROBE_TYPE
    }
    fn mod_type(&self) -> ModType {
        ModType::Dummy
    }
    fn process(&self, ctx: &mut Ctx, req: Request, env: &StackEnv<'_>) -> RespPayload {
        let id = req.id;
        let start = self.sink.now();
        let resp = env.forward(ctx, req);
        self.sink.push(HostSpan {
            req: id,
            vertex: env.vertex,
            start,
            end: self.sink.now(),
        });
        resp
    }
    fn est_processing_time(&self, _req: &Request) -> u64 {
        1_000
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// `spec` with a probe vertex in front of every vertex: real vertex `k`
/// becomes vertex `2k + 1` and its probe vertex `2k`.
pub fn instrument(spec: &StackSpec) -> StackSpec {
    let probe_of = |uuid: &str| format!("probe_{uuid}");
    let mut labmods = Vec::with_capacity(spec.labmods.len() * 2);
    for v in &spec.labmods {
        labmods.push(VertexSpec {
            uuid: probe_of(&v.uuid),
            type_name: PROBE_TYPE.into(),
            params: serde_json::Value::Null,
            outputs: vec![v.uuid.clone()],
        });
        labmods.push(VertexSpec {
            outputs: v.outputs.iter().map(|o| probe_of(o)).collect(),
            ..v.clone()
        });
    }
    StackSpec {
        labmods,
        ..spec.clone()
    }
}

/// Self time per probe vertex: each span's duration minus the spans nested
/// directly inside it. Spans come from one thread at a time (the worker, or
/// the client of a sync stack), so nesting in time is nesting in the stack.
pub fn self_times(spans: &[HostSpan], vertices: usize) -> Vec<u64> {
    let mut sorted: Vec<&HostSpan> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start, std::cmp::Reverse(s.end), s.vertex));
    let mut self_ns = vec![0u64; vertices];
    // Open ancestors: (end, vertex, exclusive time so far).
    let mut open: Vec<(u64, usize, u64)> = Vec::new();
    let mut close = |(_, vertex, exclusive): (u64, usize, u64)| {
        if let Some(slot) = self_ns.get_mut(vertex) {
            *slot += exclusive;
        }
    };
    for s in sorted {
        while open.last().is_some_and(|&(end, _, _)| end <= s.start) {
            close(open.pop().expect("checked non-empty"));
        }
        let duration = s.end - s.start;
        if let Some(parent) = open.last_mut() {
            parent.2 = parent.2.saturating_sub(duration);
        }
        open.push((s.end, s.vertex, duration));
    }
    open.into_iter().for_each(&mut close);
    self_ns
}

/// The host-clock split of one pass-H trial, in ns summed over the trial.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct HostSplit {
    /// Connector call start to head-probe entry (and, inside a burst, from
    /// one request's head-probe exit to the next one's entry).
    pub req_hop_ns: u64,
    /// Last head-probe exit to connector call return.
    pub resp_hop_ns: u64,
    /// Self time per layer name.
    pub layer_self_ns: Vec<(&'static str, u64)>,
}

/// Split a pass-H trial. Every head-probe span must lie inside exactly one
/// client call interval, in order; anything else is a harness bug.
pub fn host_split(t: &TrialResult) -> Result<HostSplit, String> {
    let per_vertex = self_times(&t.host_spans, t.layers.len() * 2);
    let layer_self_ns = t
        .layers
        .iter()
        .enumerate()
        .map(|(k, &layer)| (layer, per_vertex[2 * k]))
        .collect();
    let mut heads: Vec<&HostSpan> = t.host_spans.iter().filter(|s| s.vertex == 0).collect();
    heads.sort_by_key(|s| s.start);
    let mut heads = heads.into_iter().peekable();
    let (mut req_hop_ns, mut resp_hop_ns) = (0u64, 0u64);
    for &(call_start, call_end) in &t.client_calls {
        let mut cursor = call_start;
        let mut inside = 0;
        while let Some(h) = heads.next_if(|h| h.start < call_end) {
            if h.start < cursor || h.end > call_end {
                return Err(format!(
                    "probe span {h:?} escapes client call [{call_start}, {call_end}]"
                ));
            }
            req_hop_ns += h.start - cursor;
            cursor = h.end;
            inside += 1;
        }
        if inside == 0 {
            return Err(format!(
                "client call [{call_start}, {call_end}] reached no probe"
            ));
        }
        resp_hop_ns += call_end - cursor;
    }
    if heads.peek().is_some() {
        return Err("probe spans outside every client call".into());
    }
    Ok(HostSplit {
        req_hop_ns,
        resp_hop_ns,
        layer_self_ns,
    })
}

/// The virtual-clock split of one pass-V trial, in virtual ns summed over it.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct VirtualSplit {
    pub hop_ns: u64,
    pub device_ns: u64,
    pub layer_self_ns: Vec<(&'static str, u64)>,
    pub total_ns: u64,
    pub requests: u64,
    pub spans: u64,
}

fn virtual_label(layers: &[&'static str], s: &SpanEvent) -> String {
    match s.stage {
        Stage::Vertex => layers.get(s.vertex as usize).copied().unwrap_or("other"),
        Stage::Device => "device",
        _ => "hop",
    }
    .to_string()
}

/// Fold a pass-V trial's spans into per-layer exclusive virtual time.
pub fn virtual_split(t: &TrialResult) -> VirtualSplit {
    let a = anatomy(&t.spans, |s| virtual_label(&t.layers, s));
    VirtualSplit {
        hop_ns: a.ns("hop"),
        device_ns: a.ns("device"),
        layer_self_ns: t.layers.iter().map(|&l| (l, a.ns(l))).collect(),
        total_ns: a.total_ns,
        requests: a.requests,
        spans: t.spans.len() as u64,
    }
}

/// Events kept in each Chrome trace: enough to read a few hundred requests,
/// small enough to open.
const TRACE_EVENTS: usize = 20_000;

/// Pass V as a Chrome trace (virtual µs on the timeline).
pub fn virtual_chrome_trace(t: &TrialResult) -> String {
    let head = &t.spans[..t.spans.len().min(TRACE_EVENTS)];
    chrome_trace(head, |s| virtual_label(&t.layers, s))
}

/// Pass H as a Chrome trace (host µs since the trial's epoch): one track for
/// the client's connector calls, one for the probe spans.
pub fn host_chrome_trace(t: &TrialResult) -> String {
    let us = |ns: u64| format!("{}.{:03}", ns / 1000, ns % 1000);
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut event = |name: &str, tid: u32, start: u64, end: u64, args: String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"name\":\"{name}\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
            us(start),
            us(end - start)
        );
    };
    for &(start, end) in t.client_calls.iter().take(TRACE_EVENTS / 8) {
        event("connector call", 1, start, end, String::new());
    }
    let mut spans: Vec<&HostSpan> = t.host_spans.iter().collect();
    spans.sort_by_key(|s| (s.start, std::cmp::Reverse(s.end), s.vertex));
    for s in spans.into_iter().take(TRACE_EVENTS) {
        let layer_at = |v: usize| t.layers.get(v / 2).copied().unwrap_or("other");
        let layer = layer_at(s.vertex);
        let parent = match s.vertex {
            0 => "client".to_string(),
            v => format!("probe before {}", layer_at(v - 2)),
        };
        let args = format!(
            "\"req\":{},\"vertex\":{},\"parent\":\"{parent}\"",
            s.req, s.vertex
        );
        event(&format!("{layer} and below"), 2, s.start, s.end, args);
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use labstor_bench::{labfs_stack_spec, LabVariant};

    fn span(req: u64, vertex: usize, start: u64, end: u64) -> HostSpan {
        HostSpan {
            req,
            vertex,
            start,
            end,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // Request 1: head [0,100] holds vertex 2 [10,90], which forwards
        // twice to vertex 4: [20,40] and [40,70] (abutting). Request 2
        // starts the instant request 1 ends.
        let spans = [
            span(1, 4, 20, 40),
            span(1, 4, 40, 70),
            span(1, 2, 10, 90),
            span(1, 0, 0, 100),
            span(2, 2, 105, 110),
            span(2, 0, 100, 120),
        ];
        let s = self_times(&spans, 6);
        assert_eq!(s[0], 20 + 15);
        assert_eq!(s[2], 30 + 5);
        assert_eq!(s[4], 50);
        assert_eq!(s.iter().sum::<u64>(), 120, "self times tile the head spans");
    }

    #[test]
    fn zero_length_child_stays_under_its_parent() {
        let spans = [span(1, 0, 5, 5), span(1, 2, 5, 5), span(2, 0, 5, 9)];
        assert_eq!(self_times(&spans, 4), vec![4, 0, 0, 0]);
    }

    fn trial_with(host_spans: Vec<HostSpan>, client_calls: Vec<(u64, u64)>) -> TrialResult {
        TrialResult {
            outcome: crate::trial::VirtualOutcome {
                ops: 0,
                failed: 0,
                user_bytes: 0,
                pool_alloc_fails: 0,
                virt_ns: 0,
                lat_sum_vns: 0,
                lat_p50_vns: 0,
                lat_p99_vns: 0,
                counters: Default::default(),
            },
            setup_s: 0.0,
            setup_speed: crate::harness::Speed::measure(),
            wall_ns: 0,
            speed: crate::harness::Speed::measure(),
            peak_rss_mib: 0.0,
            pool_live_after: 0,
            spans: Vec::new(),
            dropped_spans: 0,
            host_spans,
            client_calls,
            layers: vec!["labfs", "driver"],
        }
    }

    #[test]
    fn hops_and_layers_tile_the_client_calls() {
        // A single call, then a burst of two requests in one call.
        let t = trial_with(
            vec![
                span(1, 0, 10, 50),
                span(1, 2, 20, 45),
                span(2, 0, 110, 130),
                span(3, 0, 135, 160),
            ],
            vec![(0, 60), (100, 170)],
        );
        let split = host_split(&t).unwrap();
        assert_eq!(split.req_hop_ns, 10 + 10 + 5);
        assert_eq!(split.resp_hop_ns, 10 + 10);
        assert_eq!(
            split.layer_self_ns,
            vec![("labfs", 15 + 20 + 25), ("driver", 25)]
        );
        let layers: u64 = split.layer_self_ns.iter().map(|(_, ns)| ns).sum();
        assert_eq!(split.req_hop_ns + split.resp_hop_ns + layers, 60 + 70);
    }

    #[test]
    fn a_span_outside_its_call_is_an_error() {
        let t = trial_with(vec![span(1, 0, 10, 70)], vec![(0, 60)]);
        assert!(host_split(&t).is_err());
        let t = trial_with(vec![span(1, 0, 70, 80)], vec![(0, 60)]);
        assert!(host_split(&t).is_err());
    }

    #[test]
    fn instrumented_spec_interleaves_probes() {
        let spec = labfs_stack_spec(LabVariant::All, "fs::/b", "nvme0", 1, 1 << 20);
        let probed = instrument(&spec);
        assert_eq!(probed.labmods.len(), spec.labmods.len() * 2);
        let stack = probed.to_stack().expect("valid DAG");
        for (k, v) in spec.labmods.iter().enumerate() {
            assert_eq!(probed.labmods[2 * k].type_name, PROBE_TYPE);
            assert_eq!(stack.vertices[2 * k].outputs, vec![2 * k + 1]);
            assert_eq!(probed.labmods[2 * k + 1].uuid, v.uuid);
            let next: Vec<usize> = v.outputs.iter().map(|_| 2 * k + 2).collect();
            assert_eq!(stack.vertices[2 * k + 1].outputs, next);
        }
    }

    #[test]
    fn virtual_stages_tile_latency() {
        let ev = |stage, vertex, t0, t1| SpanEvent {
            req_id: 9,
            stage,
            stack: 1,
            vertex,
            ring: 0,
            t_start_vns: t0,
            t_end_vns: t1,
        };
        let mut t = trial_with(Vec::new(), Vec::new());
        t.spans = vec![
            ev(Stage::Submit, 0, 0, 0),
            ev(Stage::HopReq, 0, 0, 600),
            ev(Stage::Vertex, 0, 600, 5_000),
            ev(Stage::Hop, 1, 700, 720),
            ev(Stage::Vertex, 1, 720, 4_900),
            ev(Stage::Device, 1, 1_000, 4_800),
            ev(Stage::HopResp, 0, 5_000, 5_600),
        ];
        let v = virtual_split(&t);
        assert_eq!((v.requests, v.total_ns, v.spans), (1, 5_600, 7));
        assert_eq!(v.hop_ns, 600 + 20 + 600);
        assert_eq!(v.device_ns, 3_800);
        assert_eq!(v.layer_self_ns, vec![("labfs", 200), ("driver", 380)]);
        let layers: u64 = v.layer_self_ns.iter().map(|(_, ns)| ns).sum();
        assert_eq!(v.hop_ns + v.device_ns + layers, v.total_ns);
    }
}
