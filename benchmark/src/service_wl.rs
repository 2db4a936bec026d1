//! `svc_mixed`: six tenants of three schemes behind one
//! [`ArchiveService`] shard, driven open-loop at a fixed rate.
//!
//! The only workload where the service queue and the thread hand-off are
//! on the path. Per cycle: fresh service over one `MemStore`, warm every
//! tenant (closed loop, untimed), damage 2 % of each tenant's warm
//! blocks, then replay the seed-determined schedule at a fixed rate from
//! one generator thread. Every request is timed from its **due** time to
//! the moment the generator sees its ticket complete, so a stall is
//! charged to every request it delays.

use crate::archive_wl::{SchemeKind, BLOCK};
use crate::gen;
use crate::workload::{Classes, Tally};
use ae_api::{mix64, BlockSink};
use ae_service::{
    ArchiveService, ServiceClient, ServiceConfig, ServiceError, ServiceReport, SharedBackend,
    TenantId, Ticket,
};
use ae_store::archive::Entry;
use ae_store::MemStore;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tenant roster: two of each scheme.
pub const TENANTS: [SchemeKind; 6] = [
    SchemeKind::Ae325,
    SchemeKind::Ae325,
    SchemeKind::Rs104,
    SchemeKind::Rs104,
    SchemeKind::Repl3,
    SchemeKind::Repl3,
];
/// Warm files per tenant.
pub const WARM_FILES: usize = 64;
/// Bytes per file, warm and put alike.
pub const FILE_LEN: usize = 64 * 1024;
/// Offered load of the open-loop schedule, requests per second.
pub const RATE: u64 = 1500;
/// Length of the schedule in seconds.
pub const SCHEDULE_SECS: u64 = 1;
/// One victim per this many consecutive stored positions (2 % damage).
pub const DAMAGE_WINDOW: usize = 48;
/// Distinct payloads the scheduled puts draw from.
const PUT_POOL: usize = 16;
/// A put or get that completes within this of its due time is goodput.
pub const GOODPUT_LIMIT: Duration = Duration::from_millis(2);
/// Submission-queue capacity of the one shard: deeper than the whole
/// schedule, so a request is never refused for queue space.
pub const QUEUE_DEPTH: usize = 4096;

/// What one scheduled request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// Read warm file `file` of `tenant`.
    Get {
        /// Tenant index.
        tenant: usize,
        /// Warm file index.
        file: usize,
    },
    /// Archive a new file under `tenant` (payload `payload` of the pool).
    Put {
        /// Tenant index.
        tenant: usize,
        /// Index into the put-payload pool.
        payload: usize,
    },
    /// Scrub `tenant`.
    Scrub {
        /// Tenant index.
        tenant: usize,
    },
}

/// The seed-determined inputs of the service workload.
pub struct Inputs {
    /// The `--seed` argument.
    pub seed: u64,
    /// Warm payloads, `tenant * WARM_FILES + file`.
    pub warm: Vec<Vec<u8>>,
    /// Payload pool the scheduled puts draw from.
    pub put_pool: Vec<Vec<u8>>,
    /// The schedule; request `k` is due at `k / RATE` seconds.
    pub schedule: Vec<Req>,
}

impl Inputs {
    /// Generates the inputs under `seed`. The schedule's shape is fixed,
    /// so every seed offers the same work in the same order: request `k`
    /// goes to tenant `k % 6`; it is a put when `k % 10 == (k / 10) % 10`
    /// (one put in every ten requests, its place rotating so that every
    /// tenant takes puts) and a get of a warm file otherwise; every
    /// tenant is scrubbed once, at evenly spread offsets. The seed picks
    /// which file a get reads and every payload byte.
    pub fn generate(seed: u64) -> Self {
        let n = (RATE * SCHEDULE_SECS) as usize;
        let tenants = TENANTS.len();
        let mut schedule: Vec<Req> = (0..n)
            .map(|k| {
                let tenant = k % tenants;
                let draw = mix64(k as u64, seed ^ 0x5C4E_D01E) as usize;
                if k % 10 == (k / 10) % 10 {
                    Req::Put {
                        tenant,
                        payload: draw % PUT_POOL,
                    }
                } else {
                    Req::Get {
                        tenant,
                        file: draw % WARM_FILES,
                    }
                }
            })
            .collect();
        for tenant in 0..tenants {
            schedule[n * (2 * tenant + 1) / (2 * tenants)] = Req::Scrub { tenant };
        }
        Inputs {
            seed,
            warm: gen::payloads(seed, tenants * WARM_FILES, FILE_LEN),
            put_pool: gen::payloads(seed ^ 0xB00C, PUT_POOL, FILE_LEN),
            schedule,
        }
    }

    fn warm_payload(&self, tenant: usize, file: usize) -> &[u8] {
        &self.warm[tenant * WARM_FILES + file]
    }
}

/// How the schedule is pushed through the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// Paced at [`RATE`] from one generator thread through one shard.
    OpenLoop,
    /// One outstanding request at a time through one shard, unpaced.
    ClosedLoop,
    /// Unpaced on the submitting thread (`ServiceConfig::serial()`).
    Inline,
}

/// One cycle's results.
pub struct CycleOut {
    /// Class `request`: per-request latency from due time (open loop) or
    /// submission (the other drives) to observed completion, in ns.
    pub classes: Classes,
    /// How late the generator sent each request, in ns (open loop only;
    /// empty for the unpaced drives).
    pub late_ns: Vec<f64>,
    /// Wall time of the whole schedule, in ns.
    pub wall_ns: f64,
    /// The driving run's service report.
    pub report: ServiceReport,
}

enum Pending {
    Get(Ticket<Vec<u8>>, usize, usize),
    Put(Ticket<Entry>),
    Scrub(Ticket<u64>, usize),
}

/// A completed request's verdict, or the ticket back if still running.
enum Polled {
    Done(Result<(), String>),
    NotYet(Pending),
}

struct Live<'a> {
    inputs: &'a Inputs,
    victims: &'a [u64],
}

impl Live<'_> {
    fn submit(&self, client: &ServiceClient<'_>, k: usize) -> Result<Pending, ServiceError> {
        Ok(match self.inputs.schedule[k] {
            Req::Get { tenant, file } => Pending::Get(
                client.get(TenantId(tenant as u16), &format!("w{file:03}"))?,
                tenant,
                file,
            ),
            Req::Put { tenant, payload } => Pending::Put(client.put(
                TenantId(tenant as u16),
                &format!("p{k:05}"),
                &self.inputs.put_pool[payload],
            )?),
            Req::Scrub { tenant } => Pending::Scrub(client.scrub(TenantId(tenant as u16))?, tenant),
        })
    }

    /// Waits up to `timeout` for `pending` and checks its output.
    fn poll(&self, pending: Pending, timeout: Option<Duration>) -> Polled {
        fn settle<T>(
            ticket: Ticket<T>,
            timeout: Option<Duration>,
        ) -> Result<Result<T, ServiceError>, Ticket<T>> {
            match timeout {
                Some(t) => ticket.wait_timeout(t),
                None => Ok(ticket.wait()),
            }
        }
        match pending {
            Pending::Get(ticket, tenant, file) => match settle(ticket, timeout) {
                Ok(res) => Polled::Done(match res {
                    Ok(bytes) if bytes == self.inputs.warm_payload(tenant, file) => Ok(()),
                    Ok(bytes) => Err(format!(
                        "get t{tenant} w{file}: {} wrong bytes",
                        bytes.len()
                    )),
                    Err(err) => Err(format!("get t{tenant} w{file}: {err}")),
                }),
                Err(ticket) => Polled::NotYet(Pending::Get(ticket, tenant, file)),
            },
            Pending::Put(ticket) => match settle(ticket, timeout) {
                Ok(res) => Polled::Done(res.map(|_| ()).map_err(|err| format!("put: {err}"))),
                Err(ticket) => Polled::NotYet(Pending::Put(ticket)),
            },
            Pending::Scrub(ticket, tenant) => match settle(ticket, timeout) {
                Ok(res) => Polled::Done(match res {
                    Ok(n) if n == self.victims[tenant] => Ok(()),
                    Ok(n) => Err(format!(
                        "scrub t{tenant} restored {n} of {}",
                        self.victims[tenant]
                    )),
                    Err(err) => Err(format!("scrub t{tenant}: {err}")),
                }),
                Err(ticket) => Polled::NotYet(Pending::Scrub(ticket, tenant)),
            },
        }
    }
}

/// Sleeps until `deadline` on `clock`. No spinning: this VM's second
/// vCPU is not a second core (two busy threads take twice as long as
/// one), so a spinning generator would slow the very worker it times.
/// What the sleep overshoots is reported as the generator's lateness and
/// is charged to the request, as a late client's would be.
fn wait_until(clock: Instant, deadline: Duration) {
    if let Some(left) = deadline.checked_sub(clock.elapsed()) {
        std::thread::sleep(left);
    }
}

/// Builds the service, warms and damages every tenant; returns the
/// service and each tenant's victim count.
fn prepare(inputs: &Inputs, drive: Drive, tally: &mut Tally) -> (ArchiveService, Vec<u64>) {
    let backend: SharedBackend = Arc::new(MemStore::new());
    let config = ServiceConfig {
        shards: Some(1),
        queue_depth: QUEUE_DEPTH,
        inline: drive == Drive::Inline,
        ..ServiceConfig::default()
    };
    let mut svc = ArchiveService::new(backend, config);
    for kind in TENANTS {
        svc.add_tenant(kind.build().0, BLOCK);
    }
    svc.run(|client| {
        for tenant in 0..TENANTS.len() {
            for file in 0..WARM_FILES {
                let res = client
                    .put(
                        TenantId(tenant as u16),
                        &format!("w{file:03}"),
                        inputs.warm_payload(tenant, file),
                    )
                    .and_then(Ticket::wait);
                tally.check(res.is_ok(), || format!("warm t{tenant} w{file}: {res:?}"));
            }
        }
    });
    let victims = (0..TENANTS.len())
        .map(|tenant| {
            let ar = svc.archive(TenantId(tenant as u16));
            // The newest window is spared: RS tenants keep taking puts,
            // so their newest stripe is still buffered and unprotected.
            let picked = gen::victims(
                ar.stored_ids(),
                inputs.seed ^ tenant as u64,
                DAMAGE_WINDOW,
                true,
            );
            for &id in &picked {
                ar.store().remove(id);
            }
            picked.len() as u64
        })
        .collect();
    (svc, victims)
}

/// One cycle: fresh service, warm, damage, then the schedule under
/// `drive`.
pub fn run_cycle(inputs: &Inputs, drive: Drive, tally: &mut Tally) -> CycleOut {
    let (mut svc, victims) = prepare(inputs, drive, tally);
    let live = Live {
        inputs,
        victims: &victims,
    };
    let n = inputs.schedule.len();
    let mut latency = vec![0.0f64; n];
    let mut late_ns = Vec::with_capacity(n);
    let mut verdicts: Vec<Result<(), String>> = Vec::with_capacity(n);
    let step = Duration::from_nanos(1_000_000_000 / RATE);
    let (wall_ns, report) = svc.run(|client| {
        let clock = Instant::now();
        match drive {
            Drive::OpenLoop => {
                let mut pending: VecDeque<(usize, Pending)> = VecDeque::new();
                let mut finish = |k: usize, verdict: Result<(), String>, now: Duration| {
                    latency[k] = now.saturating_sub(step * k as u32).as_nanos() as f64;
                    verdicts.push(verdict);
                };
                for k in 0..n {
                    let due = step * k as u32;
                    // Between sends, watch the oldest outstanding ticket:
                    // one shard completes in FIFO order.
                    while let Some((oldest, ticket)) = pending.pop_front() {
                        let left = due.saturating_sub(clock.elapsed());
                        if left.is_zero() {
                            pending.push_front((oldest, ticket));
                            break;
                        }
                        match live.poll(ticket, Some(left)) {
                            Polled::Done(verdict) => finish(oldest, verdict, clock.elapsed()),
                            Polled::NotYet(ticket) => {
                                pending.push_front((oldest, ticket));
                                break;
                            }
                        }
                    }
                    wait_until(clock, due);
                    late_ns.push(clock.elapsed().saturating_sub(due).as_nanos() as f64);
                    match live.submit(client, k) {
                        Ok(ticket) => pending.push_back((k, ticket)),
                        // Refused: the request misses every limit.
                        Err(err) => finish(k, Err(format!("request {k}: {err}")), clock.elapsed()),
                    }
                }
                for (k, ticket) in pending {
                    if let Polled::Done(verdict) = live.poll(ticket, None) {
                        finish(k, verdict, clock.elapsed());
                    }
                }
            }
            Drive::ClosedLoop | Drive::Inline => {
                for (k, slot) in latency.iter_mut().enumerate() {
                    let sent = Instant::now();
                    let verdict = match live.submit(client, k) {
                        Ok(ticket) => match live.poll(ticket, None) {
                            Polled::Done(verdict) => verdict,
                            Polled::NotYet(_) => Err(format!("request {k} never completed")),
                        },
                        Err(err) => Err(format!("request {k}: {err}")),
                    };
                    *slot = sent.elapsed().as_nanos() as f64;
                    verdicts.push(verdict);
                }
            }
        }
        clock.elapsed().as_nanos() as f64
    });
    tally.check(verdicts.len() == n, || {
        format!("{} of {n} requests completed", verdicts.len())
    });
    for verdict in verdicts {
        tally.check(verdict.is_ok(), || verdict.clone().unwrap_err());
    }
    let mut classes = Classes::default();
    classes.push("request", latency);
    CycleOut {
        classes,
        late_ns,
        wall_ns,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_holds_one_scrub_per_tenant() {
        let a = Inputs::generate(3);
        let b = Inputs::generate(3);
        assert_eq!(a.schedule, b.schedule);
        assert_ne!(a.schedule, Inputs::generate(4).schedule);
        assert_eq!(a.schedule.len(), (RATE * SCHEDULE_SECS) as usize);
        for tenant in 0..TENANTS.len() {
            let scrubs = a
                .schedule
                .iter()
                .filter(|r| **r == Req::Scrub { tenant })
                .count();
            assert_eq!(scrubs, 1);
        }
        // One put per ten requests, less the few a scrub overwrote, on
        // every tenant; the shape does not depend on the seed.
        let kinds = |inputs: &Inputs| -> Vec<(u8, usize)> {
            inputs
                .schedule
                .iter()
                .map(|r| match *r {
                    Req::Get { tenant, .. } => (0, tenant),
                    Req::Put { tenant, .. } => (1, tenant),
                    Req::Scrub { tenant } => (2, tenant),
                })
                .collect()
        };
        assert_eq!(kinds(&a), kinds(&Inputs::generate(99)));
        for tenant in 0..TENANTS.len() {
            let puts = kinds(&a).iter().filter(|k| **k == (1, tenant)).count();
            assert!((20..=30).contains(&puts), "tenant {tenant}: {puts} puts");
        }
    }

    #[test]
    fn every_drive_completes_the_schedule_correctly() {
        let inputs = Inputs::generate(5);
        for drive in [Drive::Inline, Drive::ClosedLoop, Drive::OpenLoop] {
            let mut tally = Tally::default();
            let out = run_cycle(&inputs, drive, &mut tally);
            assert_eq!(tally.failed, 0, "{drive:?}: {:?}", tally.notes);
            assert_eq!(out.classes.0[0].1.len(), inputs.schedule.len());
            assert_eq!(out.report.saturated, 0);
            assert!(out.wall_ns > 0.0);
        }
    }
}
