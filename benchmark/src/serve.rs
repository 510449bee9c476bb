//! The `serve_mixed` workload and the serve stages of the traced run.

use crate::common::{
    alternate, dataset, overhead_pct, same_matches, time_left, Checks, Ctx, Timed, ONCE,
};
use crate::report::Metrics;
use crate::spec::{TAU, THETA};
use crate::stats::{max, median, percentile, ratio, slope, SplitMix};
use crate::trace::Tracer;
use au_core::signature::FilterKind;
use au_core::{Engine, JoinSpec};
use au_datagen::LabeledDataset;
use au_serve::{
    scan_log, FileStorage, MemStorage, RetryPolicy, ServeConfig, Service, Storage, Wal,
};
use au_text::record::Corpus;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

type Answers = Vec<Vec<(u64, f64)>>;

fn config(ctx: &Ctx) -> ServeConfig {
    ServeConfig {
        sim: ctx.sizes.sim_config(),
        theta: THETA,
        filter: FilterKind::AuDp { tau: TAU },
        compact_threshold: ctx.sizes.serve_threshold,
        ..ServeConfig::default()
    }
}

fn base_lines(ds: &LabeledDataset, count: usize) -> Vec<&str> {
    ds.s.records()
        .iter()
        .take(count)
        .map(|r| r.raw.as_str())
        .collect()
}

fn fresh_dir(ctx: &Ctx, name: &str) -> io::Result<PathBuf> {
    let dir = ctx.work_dir.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

// ---------------------------------------------------------------------
// The mixed loop
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    Insert,
    Delete,
}

#[derive(Debug, Clone, Copy)]
struct Sample {
    kind: Kind,
    ms: f64,
    /// Records in the delta segment when the operation started.
    delta_len: usize,
    /// The insert that reached the threshold and paid for the compaction.
    compacted: bool,
}

/// Where the mixed loop stands and what it has measured; calling
/// [`mixed_cycles`] again carries on from here.
#[derive(Debug, Default)]
struct Cycles {
    /// Operations and writes issued so far, and the next base id to delete.
    i: usize,
    w: usize,
    next_delete: u64,
    samples: Vec<Sample>,
    /// `(pause ms, live records)` of each compaction.
    pauses: Vec<(f64, usize)>,
    wall_s: f64,
    inserted_bytes: u64,
}

impl Cycles {
    fn ms_of(&self, keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.ms)
            .collect()
    }

    fn writes_ms(&self) -> Vec<f64> {
        self.ms_of(|s| s.kind != Kind::Read)
    }

    fn timed(&self) -> Timed {
        Timed {
            setup_s: 0.0,
            op_ms: self.ms_of(|s| s.kind == Kind::Read),
            ingest_ms: self.writes_ms(),
            ops: self.samples.len(),
            wall_s: self.wall_s,
        }
    }
}

/// Whole compaction cycles of the mixed traffic, closed loop, one client:
/// even operations search for T record `7·i mod n`; odd operations write, in
/// the cycle insert, insert, insert, delete-the-oldest-base-record. An
/// iteration ends with the insert that triggers the auto-compaction, so
/// every iteration does the same operations and carries one stall.
fn mixed_cycles(
    ctx: &Ctx,
    svc: &Service,
    ds: &LabeledDataset,
    seconds: f64,
    checks: &mut Checks,
    out: &mut Cycles,
) {
    let t = ds.t.records();
    let mut stats = svc.stats();
    let started = Instant::now();
    loop {
        // An insert is three of every eight operations; a cycle that has not
        // compacted after this many lost its trigger.
        let cycle_limit = out.i + 8 * ctx.sizes.serve_threshold.max(1);
        loop {
            if out.i >= cycle_limit {
                checks.check("no compaction within a cycle", false);
                out.wall_s += started.elapsed().as_secs_f64();
                return;
            }
            ctx.tracer.next_op();
            let delta_len = stats.delta_len;
            if out.i.is_multiple_of(2) {
                let text = &t[(7 * out.i) % t.len()].raw;
                let (found, secs) = ctx.tracer.span("serve.search", || svc.search(text));
                checks.op("search", found);
                out.samples.push(Sample {
                    kind: Kind::Read,
                    ms: secs * 1e3,
                    delta_len,
                    compacted: false,
                });
                out.i += 1;
                continue;
            }
            let (kind, (done, secs)) = if out.w % 4 == 3 {
                let id = out.next_delete;
                out.next_delete += 1;
                (
                    Kind::Delete,
                    ctx.tracer.span("serve.delete", || svc.delete_record(id)),
                )
            } else {
                let text = &t[(11 * out.w) % t.len()].raw;
                out.inserted_bytes += text.len() as u64;
                (
                    Kind::Insert,
                    ctx.tracer.span("serve.insert", || svc.insert_record(text)),
                )
            };
            checks.op("write", done);
            out.i += 1;
            out.w += 1;
            let after = svc.stats();
            let compacted = after.compactions > stats.compactions;
            if compacted {
                out.pauses
                    .push((after.last_compact_nanos as f64 / 1e6, after.live));
            }
            stats = after;
            out.samples.push(Sample {
                kind,
                ms: secs * 1e3,
                delta_len,
                compacted,
            });
            if compacted {
                break;
            }
        }
        if !time_left(started, seconds) {
            break;
        }
    }
    out.wall_s += started.elapsed().as_secs_f64();
}

// ---------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------

/// The loop stops right after a compaction. A few more writes, not timed,
/// leave records in the delta segment and tombstones on the base, so the
/// oracle compares merged answers and recovery has both to rebuild.
/// Returns the bytes of text inserted.
fn unsettle(ctx: &Ctx, svc: &Service, ds: &LabeledDataset, checks: &mut Checks) -> u64 {
    let t = ds.t.records();
    let mut inserted = 0;
    for k in 0..6 {
        let text = &t[(13 * k + 1) % t.len()].raw;
        inserted += text.len() as u64;
        checks.op("insert", svc.insert_record(text));
    }
    // The loop deletes base records from the oldest up; these are the newest.
    for k in 1..=2 {
        checks.op(
            "delete",
            svc.delete_record((ctx.sizes.serve_base - k) as u64),
        );
    }
    inserted
}

/// The texts the oracle replays: a seeded sample of T.
fn oracle_texts<'a>(ctx: &Ctx, ds: &'a LabeledDataset) -> Vec<&'a str> {
    SplitMix::new(ctx.seed ^ 0x0a11)
        .sample(ds.t.len(), ctx.sizes.oracle_queries)
        .into_iter()
        .map(|i| ds.t.records()[i].raw.as_str())
        .collect()
}

fn live_answers(svc: &Service, texts: &[&str], checks: &mut Checks) -> Answers {
    texts
        .iter()
        .map(|text| {
            checks
                .op("search", svc.search(text))
                .map_or(Vec::new(), |r| r.matches)
        })
        .collect()
}

/// The same queries against a from-scratch `prepare_owned` of the live
/// records — what the service's base + delta + tombstones must add up to.
fn rebuilt_answers(
    svc: &Service,
    cfg: &ServeConfig,
    texts: &[&str],
    checks: &mut Checks,
) -> Option<(Answers, usize)> {
    let snap = svc.snapshot();
    let engine = checks.op(
        "Engine::new",
        Engine::new(snap.knowledge().clone(), cfg.sim),
    )?;
    let mut corpus = Corpus::new();
    let mut ids = Vec::new();
    for (id, record) in snap.live_records() {
        corpus.push_tokens(record.tokens.clone(), record.raw.clone());
        ids.push(id);
    }
    let prepared = checks.op("prepare_owned", engine.prepare_owned(corpus))?;
    let spec = JoinSpec::threshold(cfg.theta).filter(cfg.filter);
    let searcher = checks.op("searcher", engine.searcher(&prepared, &spec))?;
    // Rows ascend with global ids, so the searcher's tie order carries over.
    let answers = texts
        .iter()
        .map(|text| {
            let found = searcher.query(text).matches;
            found
                .iter()
                .map(|&(row, sim)| (ids[row as usize], sim))
                .collect()
        })
        .collect();
    Some((answers, ids.len()))
}

fn same_answers(a: &Answers, b: &Answers) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_matches(x, y))
}

/// Write `log` into a fresh directory and open a service on it; returns
/// the service and how long `Service::open` took.
fn recover(
    ctx: &Ctx,
    ds: &LabeledDataset,
    log: &[u8],
    name: &str,
    checks: &mut Checks,
) -> Option<(Service, f64)> {
    let dir = checks.op("work dir", fresh_dir(ctx, name))?;
    checks.op("copy log", std::fs::write(dir.join("wal.log"), log))?;
    ctx.tracer.next_op();
    let (svc, secs) = ctx.tracer.span("serve.open", || {
        Service::open(ds.kn.clone(), config(ctx), &dir)
    });
    Some((checks.op("Service::open", svc)?, secs))
}

// ---------------------------------------------------------------------
// Untraced run
// ---------------------------------------------------------------------

/// One part of the untraced run: set-up (dataset + durable
/// `Service::create` over a `FileStorage`), mixed cycles for `ctx.seconds`,
/// then the oracle: live service, from-scratch rebuild and recovered service
/// must answer a query sample identically and count the same live records.
pub fn timed(ctx: &Ctx, checks: &mut Checks) -> Timed {
    let cfg = config(ctx);
    let Some(dir) = checks.op("work dir", fresh_dir(ctx, "live")) else {
        return Timed::default();
    };
    let started = Instant::now();
    let ds = dataset(ctx.sizes.n, ctx.seed);
    let svc = Service::create(
        ds.kn.clone(),
        base_lines(&ds, ctx.sizes.serve_base),
        cfg,
        &dir,
    );
    let setup_s = started.elapsed().as_secs_f64();
    let Some(svc) = checks.op("Service::create", svc) else {
        return Timed::default();
    };
    let mut cycles = Cycles::default();
    mixed_cycles(ctx, &svc, &ds, ctx.seconds, checks, &mut cycles);

    unsettle(ctx, &svc, &ds, checks);
    let texts = oracle_texts(ctx, &ds);
    let live = live_answers(&svc, &texts, checks);
    let live_count = svc.stats().live;
    if let Some((rebuilt, rebuilt_count)) = rebuilt_answers(&svc, &cfg, &texts, checks) {
        checks.check(
            "served answers differ from a from-scratch rebuild",
            same_answers(&live, &rebuilt),
        );
        checks.check(
            "live counts differ from a from-scratch rebuild",
            live_count == rebuilt_count,
        );
    }
    // Crash: the service goes away without `save`; what recovery sees is
    // the log as the service left it.
    drop(svc);
    if let Some(log) = checks.op("read log", std::fs::read(dir.join("wal.log"))) {
        if let Some((recovered, _)) = recover(ctx, &ds, &log, "recovered", checks) {
            let answers = live_answers(&recovered, &texts, checks);
            checks.check(
                "recovered answers differ from the live ones",
                same_answers(&live, &answers),
            );
            checks.check(
                "recovered live count differs",
                recovered.stats().live == live_count,
            );
        }
    }
    Timed {
        setup_s,
        ..cycles.timed()
    }
}

// ---------------------------------------------------------------------
// Traced run: storage wrapper and layer metrics
// ---------------------------------------------------------------------

/// What the storage wrapper counts; shared with the harness because the
/// service owns the wrapper itself.
#[derive(Debug, Default, Clone)]
pub struct StorageLog {
    pub appends: u64,
    pub syncs: u64,
    pub bytes: u64,
    pub append_us: Vec<f64>,
    pub sync_us: Vec<f64>,
    /// Current length of the log.
    pub len: u64,
    /// Length covered by the last successful `sync`: a crash keeps this
    /// prefix and nothing the operating system may still hold in cache.
    pub synced_len: u64,
}

impl StorageLog {
    fn busy_us(&self) -> f64 {
        self.append_us.iter().sum::<f64>() + self.sync_us.iter().sum::<f64>()
    }
}

/// A [`Storage`] that counts and times `append` and `sync` (each a child
/// span of the write that caused it) and tracks the synced length.
#[derive(Debug)]
pub struct TimedStorage<S: Storage> {
    inner: S,
    tracer: Tracer,
    log: Arc<Mutex<StorageLog>>,
}

fn lock(log: &Mutex<StorageLog>) -> MutexGuard<'_, StorageLog> {
    // Counters only: valid whatever a panicking holder left behind.
    log.lock().unwrap_or_else(|e| e.into_inner())
}

impl<S: Storage> TimedStorage<S> {
    pub fn new(inner: S, tracer: Tracer) -> io::Result<(Self, Arc<Mutex<StorageLog>>)> {
        let len = inner.len()?;
        let log = Arc::new(Mutex::new(StorageLog {
            len,
            synced_len: len,
            ..StorageLog::default()
        }));
        let shared = log.clone();
        Ok((Self { inner, tracer, log }, shared))
    }
}

impl<S: Storage> Storage for TimedStorage<S> {
    fn append(&mut self, buf: &[u8]) -> io::Result<usize> {
        let (written, secs) = self
            .tracer
            .span("storage.append", || self.inner.append(buf));
        let written = written?;
        let mut log = lock(&self.log);
        log.appends += 1;
        log.bytes += written as u64;
        log.len += written as u64;
        log.append_us.push(secs * 1e6);
        Ok(written)
    }

    fn sync(&mut self) -> io::Result<()> {
        let (synced, secs) = self.tracer.span("storage.sync", || self.inner.sync());
        synced?;
        let mut log = lock(&self.log);
        log.syncs += 1;
        log.synced_len = log.len;
        log.sync_us.push(secs * 1e6);
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.inner.read_all()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)?;
        let mut log = lock(&self.log);
        log.len = log.len.min(len);
        log.synced_len = log.synced_len.min(len);
        Ok(())
    }

    fn replace(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.replace(bytes)?;
        let mut log = lock(&self.log);
        log.len = bytes.len() as u64;
        log.synced_len = log.len;
        Ok(())
    }
}

fn create_traced(
    ctx: &Ctx,
    ds: &LabeledDataset,
    dir: &Path,
    checks: &mut Checks,
) -> Option<(Service, Arc<Mutex<StorageLog>>, f64)> {
    let file = checks.op("open log", FileStorage::open(dir.join("wal.log")))?;
    let (storage, log) = checks.op("wrap log", TimedStorage::new(file, ctx.tracer.clone()))?;
    ctx.tracer.next_op();
    let (svc, secs) = ctx.tracer.span("serve.create", || {
        Service::create_with(
            ds.kn.clone(),
            base_lines(ds, ctx.sizes.serve_base),
            config(ctx),
            Box::new(storage),
        )
    });
    Some((checks.op("Service::create_with", svc)?, log, secs))
}

/// Median `Service::search` minus median `Snapshot::search` on the same
/// queries, µs: what admission and the snapshot clone cost a read.
fn admission_overhead_us(svc: &Service, texts: &[&str], checks: &mut Checks) -> f64 {
    let (mut through, mut direct) = (Vec::new(), Vec::new());
    for text in texts {
        let started = Instant::now();
        let found = svc.search(text);
        through.push(started.elapsed().as_secs_f64() * 1e6);
        checks.op("search", found);
        let snap = svc.snapshot();
        let started = Instant::now();
        std::hint::black_box(snap.search(text));
        direct.push(started.elapsed().as_secs_f64() * 1e6);
    }
    median(&through) - median(&direct)
}

/// Reads and writes by how full the delta segment was, and the compaction
/// pauses.
fn loop_metrics(run: &Cycles, threshold: usize, m: &mut Metrics) {
    let lo = |s: &Sample| s.delta_len < threshold.div_ceil(8);
    let hi = |s: &Sample| s.delta_len >= threshold - threshold.div_ceil(8);
    let plain_insert = |s: &Sample| s.kind == Kind::Insert && !s.compacted;
    m.set(
        "serve.read_us.delta_lo",
        1e3 * median(&run.ms_of(|s| s.kind == Kind::Read && lo(s))),
    );
    m.set(
        "serve.read_us.delta_hi",
        1e3 * median(&run.ms_of(|s| s.kind == Kind::Read && hi(s))),
    );
    m.set(
        "serve.insert_us.delta_lo",
        1e3 * median(&run.ms_of(|s| plain_insert(s) && lo(s))),
    );
    m.set(
        "serve.insert_us.delta_hi",
        1e3 * median(&run.ms_of(|s| plain_insert(s) && hi(s))),
    );
    let by_delta: Vec<(f64, f64)> = run
        .samples
        .iter()
        .filter(|s| plain_insert(s))
        .map(|s| (s.delta_len as f64, s.ms * 1e3))
        .collect();
    m.set("serve.insert_us_per_delta_record", slope(&by_delta));
    m.set(
        "serve.delete_us_p50",
        1e3 * median(&run.ms_of(|s| s.kind == Kind::Delete)),
    );
    m.set("serve.write_ms_p95", percentile(&run.writes_ms(), 95.0));

    let pauses_ms: Vec<f64> = run.pauses.iter().map(|p| p.0).collect();
    let per_record: Vec<f64> = run
        .pauses
        .iter()
        .map(|p| ratio(p.0 * 1e3, p.1 as f64))
        .collect();
    m.set("serve.compact_pause_ms_p50", median(&pauses_ms));
    m.set("serve.compact_pause_ms_max", max(&pauses_ms));
    m.set("serve.compact_us_per_live_record", median(&per_record));
}

/// Storage traffic per acknowledged write, the seeding batch excluded.
fn storage_metrics(seeded: &StorageLog, storage: &StorageLog, writes_ms: &[f64], m: &mut Metrics) {
    let acks = writes_ms.len() as f64;
    m.set(
        "storage.appends_per_ack",
        ratio((storage.appends - seeded.appends) as f64, acks),
    );
    m.set(
        "storage.syncs_per_ack",
        ratio((storage.syncs - seeded.syncs) as f64, acks),
    );
    m.set(
        "storage.bytes_per_ack",
        ratio((storage.bytes - seeded.bytes) as f64, acks),
    );
    m.set(
        "storage.append_us_p50",
        median(&storage.append_us[seeded.append_us.len()..]),
    );
    m.set(
        "storage.sync_us_p50",
        median(&storage.sync_us[seeded.sync_us.len()..]),
    );
    m.set(
        "serve.storage_share",
        ratio(
            storage.busy_us() - seeded.busy_us(),
            writes_ms.iter().sum::<f64>() * 1e3,
        ),
    );
}

/// The log format on its own: scan the crashed log, re-encode its frames.
fn wal_format_metrics(ctx: &Ctx, bytes: &[u8], checks: &mut Checks, m: &mut Metrics) {
    ctx.tracer.next_op();
    let (scanned, scan_s) = ctx.tracer.span("wal.scan_log", || scan_log(bytes));
    m.set(
        "wal.scan_ns_per_byte",
        ratio(scan_s * 1e9, bytes.len() as f64),
    );
    let Some(scanned) = checks.op("scan_log", scanned) else {
        return;
    };
    let memory = Wal::open(Box::new(MemStorage::new()), RetryPolicy::default());
    let Some((mut wal, _)) = checks.op("Wal::open", memory) else {
        return;
    };
    let (encoded, encode_s) = ctx.tracer.span("wal.encode", || {
        scanned.ops.iter().try_for_each(|op| wal.append_op(op))
    });
    checks.op("Wal::append_op", encoded);
    m.set(
        "wal.encode_ns_per_frame",
        ratio(encode_s * 1e9, scanned.ops.len() as f64),
    );
}

/// The serve stages over the first `serve_base` records of S, with the
/// storage wrapped: create, mixed cycles, then a crash that keeps only the
/// synced prefix of the log, and recovery from it. When the workload is
/// `serve_mixed` (`native`), a second service made by plain
/// `Service::create` does the same cycles with spans dropped, in turn with
/// the wrapped one, and the two median write latencies give
/// `trace.overhead_pct`.
pub fn profile(ctx: &Ctx, ds: &LabeledDataset, native: bool, checks: &mut Checks, m: &mut Metrics) {
    let Some(dir) = checks.op("work dir", fresh_dir(ctx, "traced")) else {
        return;
    };
    let Some((svc, log, create_s)) = create_traced(ctx, ds, &dir, checks) else {
        return;
    };
    m.set("serve.create_s", create_s);
    let seeded = lock(&log).clone();
    let mut run = Cycles::default();
    if native {
        let plain = checks
            .op("work dir", fresh_dir(ctx, "untraced"))
            .and_then(|dir| {
                let base = base_lines(ds, ctx.sizes.serve_base);
                checks.op(
                    "Service::create",
                    Service::create(ds.kn.clone(), base, config(ctx), &dir),
                )
            });
        let Some(plain) = plain else {
            return;
        };
        let mut dropped = Cycles::default();
        alternate(&ctx.tracer, ctx.sizes.traced_iterations, |kept| {
            let (svc, out) = if kept {
                (&svc, &mut run)
            } else {
                (&plain, &mut dropped)
            };
            mixed_cycles(ctx, svc, ds, ONCE, checks, out);
        });
        m.set(
            "trace.overhead_pct",
            overhead_pct(&dropped.writes_ms(), &run.writes_ms()),
        );
    } else {
        mixed_cycles(ctx, &svc, ds, ONCE, checks, &mut run);
    }
    let storage = lock(&log).clone();

    loop_metrics(&run, ctx.sizes.serve_threshold, m);
    storage_metrics(&seeded, &storage, &run.writes_ms(), m);

    let texts = oracle_texts(ctx, ds);
    m.set(
        "serve.admission_overhead_us",
        admission_overhead_us(&svc, &texts, checks),
    );
    let inserted_bytes = run.inserted_bytes + unsettle(ctx, &svc, ds, checks);
    let stats = svc.stats();
    m.set("serve.compactions", stats.compactions as f64);
    m.set("serve.overloads", stats.admission.overloads as f64);
    m.set("serve.wal_frames", stats.wal.frames as f64);
    let base_bytes: usize = base_lines(ds, ctx.sizes.serve_base)
        .iter()
        .map(|l| l.len())
        .sum();
    m.set(
        "wal.bytes_per_user_byte",
        ratio(
            stats.wal.bytes as f64,
            base_bytes as f64 + inserted_bytes as f64,
        ),
    );
    let live = live_answers(&svc, &texts, checks);
    let live_count = stats.live;

    // Crash: keep the synced prefix only.
    drop(svc);
    let Some(mut bytes) = checks.op("read log", std::fs::read(dir.join("wal.log"))) else {
        return;
    };
    let synced = lock(&log).synced_len as usize;
    checks.check(
        "the log is shorter than its synced length",
        bytes.len() >= synced,
    );
    bytes.truncate(synced);
    checks.check(
        "the synced prefix is not the acknowledged log",
        synced as u64 == stats.wal.bytes,
    );

    let mut recoveries = Vec::new();
    let mut replayed = 0.0;
    for k in 0..ctx.sizes.recoveries {
        let Some((recovered, secs)) = recover(ctx, ds, &bytes, &format!("recovered-{k}"), checks)
        else {
            return;
        };
        recoveries.push(secs);
        let after = recovered.stats();
        replayed = after.wal.replayed_frames as f64;
        if k == 0 {
            let answers = live_answers(&recovered, &texts, checks);
            checks.check(
                "recovered answers differ from the live ones",
                same_answers(&live, &answers),
            );
            checks.check("recovered live count differs", after.live == live_count);
            checks.check(
                "recovery did not replay every frame",
                after.wal.replayed_frames == stats.wal.frames,
            );
        }
    }
    m.set("serve.recovery_s", median(&recoveries));
    m.set(
        "serve.recovery_us_per_frame",
        ratio(median(&recoveries) * 1e6, replayed),
    );

    wal_format_metrics(ctx, &bytes, checks, m);
}
