//! The four archive workloads: `ae_bulk`, `rs_bulk`, `ae_small`, `ae_wan`.
//!
//! One cycle builds a fresh backend, scheme and [`Archive`], then replays
//! the seed-determined sequence *put all + seal → get all → damage →
//! degraded-get all → scrub → drop → `Archive::open`*, timing every
//! operation on its own and checking every output.

use crate::gen;
use crate::trace::{TracedScheme, TracedStore, Tracer};
use crate::workload::{Classes, Tally};
use ae_aio::{BlockOn, Clock, LatencyStore, LinkSpec, Runtime};
use ae_api::{BlockRepo, RedundancyScheme};
use ae_baselines::{ReedSolomon, Replication};
use ae_core::Code;
use ae_lattice::Config;
use ae_store::archive::{Archive, Entry};
use ae_store::MemStore;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Block size of every workload.
pub const BLOCK: usize = 4096;

/// The schemes the benchmark drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    /// AE(3,2,5), the paper's headline configuration.
    Ae325,
    /// RS(10,4), the equal-overhead baseline.
    Rs104,
    /// 3-way replication.
    Repl3,
}

impl SchemeKind {
    /// A fresh instance, plus the concrete Reed-Solomon handle when the
    /// scheme is one (its decode-matrix cache counters are read off it).
    pub fn build(self) -> (Arc<dyn RedundancyScheme>, Option<Arc<ReedSolomon>>) {
        match self {
            SchemeKind::Ae325 => {
                let cfg = Config::new(3, 2, 5).expect("AE(3,2,5) is a valid configuration");
                (Arc::new(Code::new(cfg, BLOCK)), None)
            }
            SchemeKind::Rs104 => {
                let rs = Arc::new(ReedSolomon::new(10, 4).expect("RS(10,4) is valid"));
                (Arc::clone(&rs) as Arc<dyn RedundancyScheme>, Some(rs))
            }
            SchemeKind::Repl3 => (Arc::new(Replication::new(3)), None),
        }
    }
}

/// A latency-wrapped in-memory backend behind the sync adapter.
pub type WanStore = BlockOn<LatencyStore<MemStore>>;

/// A backend the archive workloads can build per cycle and reach under:
/// damage is injected into, and contents are read off, the innermost
/// [`MemStore`], never through the latency model or the tracer.
pub trait Bed: BlockRepo + Send + Sync + Sized + 'static {
    /// A fresh, empty backend.
    fn fresh(rtt: Option<Duration>, tracer: Option<&Arc<Tracer>>) -> Arc<Self>;
    /// The in-memory store at the bottom.
    fn mem(&self) -> &MemStore;
}

impl Bed for MemStore {
    fn fresh(_rtt: Option<Duration>, _tracer: Option<&Arc<Tracer>>) -> Arc<Self> {
        Arc::new(MemStore::new())
    }

    fn mem(&self) -> &MemStore {
        self
    }
}

impl Bed for WanStore {
    fn fresh(rtt: Option<Duration>, _tracer: Option<&Arc<Tracer>>) -> Arc<Self> {
        let link = LinkSpec::rtt(rtt.expect("the WAN backend needs an RTT"));
        let rt = Runtime::new(Clock::real());
        // No jitter is configured, so the latency seed draws nothing.
        Arc::new(LatencyStore::uniform(Arc::new(MemStore::new()), rt, link, 0).into_sync())
    }

    fn mem(&self) -> &MemStore {
        self.inner().inner()
    }
}

impl<B: Bed> Bed for TracedStore<B> {
    fn fresh(rtt: Option<Duration>, tracer: Option<&Arc<Tracer>>) -> Arc<Self> {
        let tracer = tracer.expect("a traced backend needs its tracer");
        Arc::new(TracedStore::new(B::fresh(rtt, None), Arc::clone(tracer)))
    }

    fn mem(&self) -> &MemStore {
        self.inner().mem()
    }
}

/// What one archive workload does per cycle.
#[derive(Debug, Clone, Copy)]
pub struct ArchiveSpec {
    /// Scheme under the archive.
    pub scheme: SchemeKind,
    /// Files per cycle.
    pub files: usize,
    /// Bytes per file.
    pub file_len: usize,
    /// Whether the cycle damages the backend and then serves degraded
    /// reads and a scrub.
    pub damage: bool,
    /// Round-trip time of the backend link; `None` is a plain `MemStore`.
    pub rtt: Option<Duration>,
}

impl ArchiveSpec {
    /// User bytes one cycle archives.
    pub fn user_bytes(&self) -> u64 {
        (self.files * self.file_len) as u64
    }
}

/// The seed-determined inputs of an archive workload.
pub struct Inputs {
    /// The `--seed` argument (drives the victim offsets).
    pub seed: u64,
    /// File names, `f000000` upward.
    pub names: Vec<String>,
    /// One payload per file.
    pub payloads: Vec<Vec<u8>>,
}

impl Inputs {
    /// Generates the inputs of `spec` under `seed`.
    pub fn generate(spec: &ArchiveSpec, seed: u64) -> Self {
        Inputs {
            seed,
            names: (0..spec.files).map(|i| format!("f{i:06}")).collect(),
            payloads: gen::payloads(seed, spec.files, spec.file_len),
        }
    }
}

/// Everything one cycle produced besides its timings.
pub struct CycleOut<B> {
    /// Per-op wall times by class, in cycle order.
    pub classes: Classes,
    /// The backend as the cycle left it.
    pub store: Arc<B>,
    /// Blocks the damage step removed.
    pub victims: u64,
    /// Scheme blocks the backend holds at the end of the cycle.
    pub scheme_blocks: u64,
    /// Bytes of `Meta` (journal, checkpoint, pointer) blocks it holds.
    pub meta_bytes: u64,
    /// Journal records `Archive::open` replayed.
    pub replayed_records: u64,
    /// Decode-matrix cache `(hits, misses)` of the cycle's RS instance.
    pub rs_cache: Option<(u64, u64)>,
}

/// The per-cycle bookkeeping every operation goes through: the op
/// counter, the wall timings by class and the correctness tally.
struct Ops<'a> {
    tracer: Option<&'a Arc<Tracer>>,
    cycle: u32,
    next_op: u32,
    classes: Classes,
    tally: &'a mut Tally,
}

impl Ops<'_> {
    /// Runs `f` as the cycle's next op: wall-timed always, and inside a
    /// root span named `span` when tracing.
    fn timed<T>(&mut self, span: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.tracer.map(|t| {
            t.set_context(self.cycle, self.next_op);
            t.enter(span)
        });
        self.next_op += 1;
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as f64;
        if let (Some(t), Some(id)) = (self.tracer, open) {
            t.exit(id, true);
        }
        (out, ns)
    }

    /// Reads every file back and compares it with its payload, byte for
    /// byte, outside the timed region.
    fn read_all<B: Bed>(
        &mut self,
        ar: &Archive<B>,
        inputs: &Inputs,
        class: &'static str,
        span: &'static str,
    ) {
        let mut times = Vec::with_capacity(inputs.names.len());
        for (name, payload) in inputs.names.iter().zip(&inputs.payloads) {
            let (res, ns) = self.timed(span, || ar.get(name));
            self.tally
                .check(res.as_ref().is_ok_and(|got| got == payload), || {
                    format!("{class} {name}: {:?}", res.as_ref().map(Vec::len))
                });
            times.push(ns);
        }
        self.classes.push(class, times);
    }
}

/// One full cycle of `spec` over a fresh backend of type `B`.
pub fn run_cycle<B: Bed>(
    spec: &ArchiveSpec,
    inputs: &Inputs,
    tracer: Option<&Arc<Tracer>>,
    cycle: u32,
    tally: &mut Tally,
) -> CycleOut<B> {
    let store = B::fresh(spec.rtt, tracer);
    let wrap = |scheme: Arc<dyn RedundancyScheme>| -> Arc<dyn RedundancyScheme> {
        match tracer {
            Some(t) => Arc::new(TracedScheme::new(scheme, Arc::clone(t))),
            None => scheme,
        }
    };
    let (scheme, rs) = spec.scheme.build();
    let mut ar = Archive::with_scheme(wrap(scheme), BLOCK, Arc::clone(&store));
    let mut ops = Ops {
        tracer,
        cycle,
        next_op: 0,
        classes: Classes::default(),
        tally,
    };

    let mut put = Vec::with_capacity(spec.files);
    for (name, payload) in inputs.names.iter().zip(&inputs.payloads) {
        let (res, ns) = ops.timed("op.put", || ar.put(name, payload));
        ops.tally.check(res.is_ok(), || {
            format!("put {name}: {:?}", res.as_ref().err())
        });
        put.push(ns);
    }
    ops.classes.push("put", put);
    let (res, ns) = ops.timed("op.seal", || ar.seal());
    ops.tally
        .check(res.is_ok(), || format!("seal: {:?}", res.as_ref().err()));
    ops.classes.push("seal", vec![ns]);
    ops.read_all(&ar, inputs, "get", "op.get");

    let mut victims = Vec::new();
    if spec.damage {
        victims = gen::victims(ar.stored_ids(), inputs.seed, gen::DAMAGE_WINDOW, false);
        for &id in &victims {
            store.mem().remove(id);
        }
        ops.read_all(&ar, inputs, "degraded_get", "op.degraded_get");
        let (restored, ns) = ops.timed("op.scrub", || ar.scrub());
        ops.tally.check(restored == victims.len() as u64, || {
            format!("scrub restored {restored} of {} victims", victims.len())
        });
        ops.classes.push("scrub", vec![ns]);
    }
    let rs_cache = rs.map(|rs| rs.decode_cache_stats());

    // The crash: the process state is gone, the backend is what is left.
    let before: Vec<(String, Entry)> = ar
        .manifest()
        .map(|(name, entry)| (name.to_string(), entry.clone()))
        .collect();
    drop(ar);
    let (fresh, _) = spec.scheme.build();
    let fresh = wrap(fresh);
    let (reopened, ns) = ops.timed("op.open", || Archive::open(fresh, Arc::clone(&store)));
    ops.classes.push("open", vec![ns]);
    let mut replayed_records = 0;
    match reopened {
        Ok(ar) => {
            replayed_records = ar.replayed_records();
            let same = ar
                .manifest()
                .eq(before.iter().map(|(name, entry)| (name.as_str(), entry)));
            ops.tally.check(same, || {
                "reopened manifest differs from the pre-crash one".into()
            });
        }
        Err(err) => ops.tally.check(false, || format!("open: {err}")),
    }

    let mem = store.mem();
    let mut scheme_blocks = 0;
    let mut meta_bytes = 0;
    for id in mem.ids() {
        if id.is_meta() {
            meta_bytes += mem.get(id).map_or(0, |b| b.len() as u64);
        } else {
            scheme_blocks += 1;
        }
    }
    CycleOut {
        classes: ops.classes,
        victims: victims.len() as u64,
        scheme_blocks,
        meta_bytes,
        replayed_records,
        rs_cache,
        store,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(id, crc)` of every block a backend holds, in id order — what two
    /// runs must agree on to have left identical backends.
    fn fingerprint(mem: &MemStore) -> Vec<(ae_blocks::BlockId, u32)> {
        let mut ids = mem.ids();
        ids.sort();
        ids.into_iter()
            .map(|id| (id, mem.get(id).map_or(0, |b| b.crc())))
            .collect()
    }

    fn spec(scheme: SchemeKind) -> ArchiveSpec {
        ArchiveSpec {
            scheme,
            files: 12,
            file_len: 10 * BLOCK + 123,
            damage: true,
            rtt: None,
        }
    }

    /// Tracing must not change what the program does: same returned
    /// bytes (every get is compared with its payload in both runs) and
    /// the same final backend, for AE, RS and replication.
    #[test]
    fn traced_cycle_leaves_the_same_backend_as_untraced() {
        for scheme in [SchemeKind::Ae325, SchemeKind::Rs104, SchemeKind::Repl3] {
            let spec = spec(scheme);
            let inputs = Inputs::generate(&spec, 9);
            let mut plain_tally = Tally::default();
            let plain = run_cycle::<MemStore>(&spec, &inputs, None, 0, &mut plain_tally);
            let tracer = Tracer::new();
            let mut traced_tally = Tally::default();
            let traced = run_cycle::<TracedStore<MemStore>>(
                &spec,
                &inputs,
                Some(&tracer),
                0,
                &mut traced_tally,
            );
            assert_eq!(plain_tally.failed, 0, "{scheme:?}: {:?}", plain_tally.notes);
            assert_eq!(
                traced_tally.failed, 0,
                "{scheme:?}: {:?}",
                traced_tally.notes
            );
            assert_eq!(plain_tally.attempted, traced_tally.attempted);
            assert!(plain.victims > 0 && plain.victims == traced.victims);
            assert_eq!(
                fingerprint(plain.store.mem()),
                fingerprint(traced.store.mem()),
                "{scheme:?}"
            );
            let spans = tracer.take();
            let fold = crate::trace::fold(&spans);
            assert_eq!(fold.op("op.put").ops, 12);
            assert_eq!(fold.op("op.degraded_get").ops, 12);
            assert!(fold.op("op.put").count("backend.store") > 0);
            assert!(fold.op("op.put").count("journal.store") > 0);
            assert!(fold.op("op.open").count("journal.fetch") > 0);
        }
    }

    #[test]
    fn wan_backend_cycles_and_reaches_its_memory() {
        let spec = ArchiveSpec {
            scheme: SchemeKind::Ae325,
            files: 2,
            file_len: 3 * BLOCK,
            damage: true,
            rtt: Some(Duration::from_micros(50)),
        };
        let inputs = Inputs::generate(&spec, 4);
        let mut tally = Tally::default();
        let tracer = Tracer::new();
        let out = run_cycle::<TracedStore<WanStore>>(&spec, &inputs, Some(&tracer), 0, &mut tally);
        assert_eq!(tally.failed, 0, "{:?}", tally.notes);
        assert!(out.scheme_blocks > 0 && out.meta_bytes > 0);
        // Pipelined reads go through the traced async surface.
        let fold = crate::trace::fold(&tracer.take());
        assert!(fold.op("op.get").count("backend.fetch") >= 6);
    }
}
