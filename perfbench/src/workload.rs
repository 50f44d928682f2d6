//! The workloads, how a deployment is stood up for them, and the timed
//! closed loop that drives it.
//!
//! Every workload talks to C2 over loopback TCP. The untraced standup is
//! the engine's own (`TransportKind::Tcp`); the traced standup mirrors it
//! through [`SknnEngine::setup_with_sessions`] so that a [`TracedTransport`]
//! can sit on both ends of every connection.

use crate::trace::{self, End, ThreadSampler, TracedTransport, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sknn_core::{
    plain_knn_records, squared_euclidean_distance, CoalesceConfig, DataOwner, FederationConfig,
    LocalKeyHolder, PoolConfig, PoolStats, Protocol, QueryProfile, RandomnessPool,
    SessionKeyHolder, ShardingConfig, SknnEngine, Table, TransportKind,
};
use sknn_protocols::stats::CommSnapshot;
use sknn_protocols::transport::{serve, SessionPool, TcpTransport};
use std::collections::{BTreeMap, VecDeque};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The dataset every workload registers.
pub const DATASET: &str = "bench";

/// One benchmark workload: a closed loop from one generator thread.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub protocol: Protocol,
    pub key_bits: usize,
    /// Live records (constant under churn: every step adds and removes
    /// `churn` records).
    pub records: usize,
    pub attributes: usize,
    pub k: usize,
    /// The distance-domain bit length `l`.
    pub distance_bits: usize,
    pub threads: usize,
    pub shards: usize,
    pub sessions: usize,
    /// Queries per round: 1 runs `SknnEngine::run`, more runs one
    /// `SknnEngine::run_batch` per round.
    pub batch: usize,
    /// Records appended and tombstoned per update step (0: no writes).
    pub churn: usize,
    /// Compact the dataset after every this many update steps.
    pub compact_every: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "basic-k1024",
        why: "SkNN_b at the paper's large key, one query in flight: bound by C1's SSED \
              exponentiations, few round trips",
        protocol: Protocol::Basic,
        key_bits: 1024,
        records: 8,
        attributes: 6,
        k: 5,
        distance_bits: 12,
        threads: 1,
        shards: 1,
        sessions: 1,
        batch: 1,
        churn: 0,
        compact_every: 0,
    },
    Workload {
        name: "secure-k512",
        why: "SkNN_m at the paper's small key, one query in flight: bound by SBD, SMIN_n \
              and SBOR round trips; pool draws exceed its capacity",
        protocol: Protocol::Secure,
        key_bits: 512,
        records: 4,
        attributes: 6,
        k: 2,
        distance_bits: 10,
        threads: 1,
        shards: 1,
        sessions: 1,
        batch: 1,
        churn: 0,
        compact_every: 0,
    },
    Workload {
        name: "mixed-sharded",
        why: "batches of SkNN_b over 2 shards and 2 sessions with 2 threads, with durable \
              appends, tombstones, flushes and compactions between batches",
        protocol: Protocol::Basic,
        key_bits: 512,
        records: 16,
        attributes: 6,
        k: 5,
        distance_bits: 12,
        threads: 2,
        shards: 2,
        sessions: 2,
        batch: 4,
        churn: 4,
        compact_every: 4,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The largest attribute value that keeps every squared distance
    /// strictly below `2^l − 1` (the SkNN_m saturation value).
    pub fn value_bound(&self) -> u64 {
        let limit = (1u128 << self.distance_bits) - 1;
        let m = self.attributes as u128;
        let mut v = 0u64;
        while m * u128::from(v + 1) * u128::from(v + 1) < limit {
            v += 1;
        }
        v
    }

    pub fn point(&self, rng: &mut StdRng) -> Vec<u64> {
        let bound = self.value_bound();
        (0..self.attributes)
            .map(|_| rng.gen_range(0..=bound))
            .collect()
    }

    fn config(&self, store_root: &Path) -> FederationConfig {
        FederationConfig {
            key_bits: self.key_bits,
            distance_bits: Some(self.distance_bits),
            max_query_value: self.value_bound(),
            transport: TransportKind::Tcp,
            threads: self.threads,
            sharding: ShardingConfig {
                shards: self.shards,
                sessions: self.sessions,
            },
            store_root: Some(store_root.to_path_buf()),
            ..FederationConfig::default()
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "{:?} K={} n={} m={} k={} l={} threads={} shards={} sessions={} batch={} churn={} \
             Tcp",
            self.protocol,
            self.key_bits,
            self.records,
            self.attributes,
            self.k,
            self.distance_bits,
            self.threads,
            self.shards,
            self.sessions,
            self.batch,
            self.churn
        )
    }
}

/// Seeds for the independent input streams, all derived from `--seed`.
#[derive(Clone, Copy)]
pub enum Stream {
    Keys = 1,
    Table = 2,
    Queries = 3,
    Engine = 4,
    Ledger = 5,
}

pub fn rng_for(seed: u64, stream: Stream) -> StdRng {
    StdRng::seed_from_u64(seed ^ (stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

// ── The plaintext mirror and the correctness gate ───────────────────────

/// The benchmark's own copy of the live table, kept in step with every
/// append and tombstone, against which each result is checked.
pub struct Mirror {
    rows: Vec<Vec<u64>>,
    live: Vec<bool>,
    /// Live stable indices, oldest first.
    order: VecDeque<usize>,
    table: Table,
}

impl Mirror {
    pub fn new(rows: Vec<Vec<u64>>) -> Result<Mirror, String> {
        let table = Table::new(rows.clone()).map_err(|e| e.to_string())?;
        Ok(Mirror {
            live: vec![true; rows.len()],
            order: (0..rows.len()).collect(),
            rows,
            table,
        })
    }

    fn refresh(&mut self) -> Result<(), String> {
        let live: Vec<Vec<u64>> = self.order.iter().map(|&i| self.rows[i].clone()).collect();
        self.table = Table::new(live).map_err(|e| e.to_string())?;
        Ok(())
    }

    fn append(&mut self, stable: &[usize], rows: Vec<Vec<u64>>) -> Result<(), String> {
        for (&i, row) in stable.iter().zip(rows) {
            if i != self.rows.len() {
                return Err(format!(
                    "append returned stable index {i}, expected {}",
                    self.rows.len()
                ));
            }
            self.rows.push(row);
            self.live.push(true);
            self.order.push_back(i);
        }
        self.refresh()
    }

    fn oldest(&self) -> Option<usize> {
        self.order.front().copied()
    }

    fn tombstone(&mut self, i: usize) -> Result<(), String> {
        if self.order.front() != Some(&i) {
            return Err(format!("tombstoned {i} out of order"));
        }
        self.order.pop_front();
        self.live[i] = false;
        self.refresh()
    }

    /// Whether `result` is a correct k-NN answer for `query`: the multiset
    /// of its distances equals the plaintext oracle's (ties may resolve
    /// either way), and every returned record is a distinct live record.
    pub fn check(&self, query: &[u64], k: usize, result: &[Vec<u64>]) -> bool {
        let distances = |rows: &[Vec<u64>]| {
            let mut d: Vec<u128> = rows
                .iter()
                .map(|r| squared_euclidean_distance(r, query))
                .collect();
            d.sort_unstable();
            d
        };
        let expected = plain_knn_records(&self.table, query, k);
        if result.len() != expected.len() || distances(result) != distances(&expected) {
            return false;
        }
        let mut available: BTreeMap<&[u64], usize> = BTreeMap::new();
        for row in self.table.records() {
            *available.entry(row.as_slice()).or_default() += 1;
        }
        result
            .iter()
            .all(|r| match available.get_mut(r.as_slice()) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    true
                }
                _ => false,
            })
    }
}

// ── Standing a deployment up ────────────────────────────────────────────

/// A directory inside the benchmark's output area, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(out: &Path, label: &str) -> Result<ScratchDir, String> {
        let path = out.join(format!("store-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A stood-up engine plus everything the benchmark keeps beside it. Field
/// order is drop order: the engine (and its sessions) go first, the store
/// directory last.
pub struct Deployment {
    pub engine: SknnEngine,
    /// C2's randomness pool when the benchmark stood the sessions up itself
    /// (the engine only reports its own pools).
    c2_pool: Option<Arc<RandomnessPool>>,
    pub mirror: Mirror,
    pub store: ScratchDir,
}

impl Deployment {
    /// Pool counters over every pool serving this deployment.
    pub fn pool_stats(&self) -> PoolStats {
        let mut s = self.engine.pool_stats();
        if let Some(pool) = &self.c2_pool {
            let c2 = pool.stats();
            s.hits += c2.hits;
            s.fallbacks += c2.fallbacks;
            s.precomputed += c2.precomputed;
        }
        s
    }
}

/// Mirrors the engine's own `TransportKind::Tcp` standup — one listener and
/// one `sknn-c2-tcp-<i>` server thread per session, `serve` with
/// `threads` workers, the same coalescing rule and holder seeds — but with
/// a [`TracedTransport`] on both ends of every connection. The holders get
/// one shared offline pool, as in the engine's standup, because
/// `setup_with_sessions` leaves C2 unpooled.
fn traced_sessions(
    owner: &DataOwner,
    config: &FederationConfig,
    tracer: &Arc<Tracer>,
) -> Result<(SessionPool, Arc<RandomnessPool>), String> {
    let pk = owner.public_key().clone();
    let c2_pool = RandomnessPool::new(
        pk.clone(),
        PoolConfig {
            seed: config.pool.seed.map(|s| s ^ 0xC2),
            ..config.pool
        },
    );
    c2_pool.prewarm(config.pool_prewarm);
    let workers = config.threads.max(1);
    let coalesce = if config.coalesce && workers > 1 {
        CoalesceConfig::enabled()
    } else {
        CoalesceConfig::disabled()
    };
    let mut clients = Vec::new();
    let mut servers = Vec::new();
    for i in 0..config.sharding.sessions.max(1) {
        let seed = if i == 0 {
            config.c2_seed
        } else {
            config
                .c2_seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64))
        };
        let holder = LocalKeyHolder::new(owner.private_key().clone(), seed)
            .with_pool(Arc::clone(&c2_pool))
            .map_err(|e| e.to_string())?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let server_tracer = Arc::clone(tracer);
        let server = std::thread::Builder::new()
            .name(format!("sknn-c2-tcp-{i}"))
            .spawn(move || {
                let end = TracedTransport::new(
                    TcpTransport::accept(&listener)?,
                    server_tracer,
                    i,
                    End::Server,
                );
                serve(&end, &holder, workers)
            })
            .map_err(|e| e.to_string())?;
        servers.push(server);
        let client = TcpTransport::connect(addr).map_err(|e| e.to_string())?;
        let client = TracedTransport::new(client, Arc::clone(tracer), i, End::Client);
        clients.push(SessionKeyHolder::connect(
            pk.clone(),
            Arc::new(client),
            coalesce,
        ));
    }
    let pool = SessionPool::from_parts(clients, servers).map_err(|e| e.to_string())?;
    Ok((pool, c2_pool))
}

/// Stands a deployment up from scratch — seeded key generation, engine and
/// session standup, dataset encryption and registration (durable when the
/// workload writes), filling the offline pools — and runs one untimed,
/// checked warm-up query. Returns the deployment and how long all of that took.
pub fn stand_up(
    w: &Workload,
    seed: u64,
    tracer: Option<&Arc<Tracer>>,
    out: &Path,
    label: &str,
) -> Result<(Deployment, Duration), String> {
    let start = Instant::now();
    let store = ScratchDir::new(out, label)?;
    let owner = DataOwner::new(w.key_bits, &mut rng_for(seed, Stream::Keys));
    let config = w.config(store.path());
    let (mut engine, c2_pool) = match tracer {
        None => (
            SknnEngine::setup_with_owner(owner, config).map_err(|e| e.to_string())?,
            None,
        ),
        Some(tracer) => {
            let (sessions, c2_pool) = traced_sessions(&owner, &config, tracer)?;
            let engine = SknnEngine::setup_with_sessions(owner, config, sessions)
                .map_err(|e| e.to_string())?;
            (engine, Some(c2_pool))
        }
    };
    let mut table_rng = rng_for(seed, Stream::Table);
    let rows: Vec<Vec<u64>> = (0..w.records).map(|_| w.point(&mut table_rng)).collect();
    let mirror = Mirror::new(rows)?;
    let mut engine_rng = rng_for(seed, Stream::Engine);
    if w.churn > 0 {
        engine.register_dataset_persistent(DATASET, &mirror.table, &mut engine_rng)
    } else {
        engine.register_dataset(DATASET, &mirror.table, &mut engine_rng)
    }
    .map_err(|e| e.to_string())?;
    // Fill the offline pools to capacity so the timed loop starts in the
    // steady state instead of racing the refill threads' catch-up.
    let capacity = PoolConfig::default().capacity;
    engine.prewarm_pools(capacity);
    if let Some(pool) = &c2_pool {
        pool.prewarm(capacity);
    }
    let dep = Deployment {
        engine,
        c2_pool,
        mirror,
        store,
    };
    let query = w.point(&mut rng_for(seed ^ 0x5EED, Stream::Queries));
    let warm = dep
        .engine
        .query(DATASET)
        .k(w.k)
        .point(&query)
        .protocol(w.protocol)
        .run(&mut engine_rng)
        .map_err(|e| format!("warm-up query failed: {e}"))?;
    if !dep.mirror.check(&query, w.k, &warm.result) {
        return Err("warm-up query returned a wrong answer".to_string());
    }
    Ok((dep, start.elapsed()))
}

// ── The timed closed loop ───────────────────────────────────────────────

/// Everything one timed phase measured.
#[derive(Default)]
pub struct Phase {
    /// Per round: a query's wall time (serial) or a batch's (batched).
    pub latencies: Vec<f64>,
    /// Bob's `encrypt_query` of each query, in ms.
    pub encrypt_ms: Vec<f64>,
    /// Whole update steps, in ms.
    pub update_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub wall: Duration,
    pub cpu_s: f64,
    pub cpu_groups: BTreeMap<&'static str, f64>,
    pub comm: CommSnapshot,
    pub pool: PoolStats,
    pub peak_threads: usize,
    /// Every query's profile, merged.
    pub profile: QueryProfile,
}

impl Phase {
    pub fn per_query(&self, total: f64) -> f64 {
        total / self.attempted.max(1) as f64
    }
}

/// Runs rounds until `seconds` have passed: each round encrypts its
/// queries as Bob would (timed apart from the queries), runs them, checks
/// every answer against the mirror, and, for a writing workload, takes one
/// update step. Query errors and wrong answers count as failures; a failed
/// write stops the run.
pub fn run_phase(
    w: &Workload,
    dep: &mut Deployment,
    seconds: f64,
    query_rng: &mut StdRng,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Phase, String> {
    let mut engine_rng = StdRng::seed_from_u64(query_rng.gen());
    let mut phase = Phase::default();
    let sampler = ThreadSampler::start();
    let threads_before = trace::thread_cpu_s();
    let cpu_before = trace::process_cpu_s();
    let comm_before = dep.engine.comm_stats().unwrap_or_default();
    let pool_before = dep.pool_stats();
    if let Some(t) = tracer {
        t.set_recording(true);
    }
    let start = Instant::now();
    let mut steps = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        let points: Vec<Vec<u64>> = (0..w.batch).map(|_| w.point(query_rng)).collect();
        for p in &points {
            let t = Instant::now();
            dep.engine
                .query_user()
                .encrypt_query(p, &mut engine_rng)
                .map_err(|e| e.to_string())?;
            phase.encrypt_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let prepared: Vec<_> = points
            .iter()
            .map(|p| {
                dep.engine
                    .query(DATASET)
                    .k(w.k)
                    .point(p)
                    .protocol(w.protocol)
                    .build()
            })
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let t = Instant::now();
        let outcomes = if w.batch == 1 {
            vec![dep.engine.run(&prepared[0], &mut engine_rng)]
        } else {
            dep.engine.run_batch(&prepared, &mut engine_rng)
        };
        phase.latencies.push(t.elapsed().as_secs_f64());
        for (p, outcome) in points.iter().zip(&outcomes) {
            phase.attempted += 1;
            match outcome {
                Ok(o) if dep.mirror.check(p, w.k, &o.result) => phase.profile.merge(&o.profile),
                _ => phase.failed += 1,
            }
        }
        if w.churn > 0 {
            steps += 1;
            let t = Instant::now();
            update_step(w, dep, query_rng, &mut engine_rng)?;
            if w.compact_every > 0 && steps.is_multiple_of(w.compact_every) {
                dep.engine
                    .compact_dataset(DATASET)
                    .map_err(|e| e.to_string())?;
            }
            phase.update_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    phase.wall = start.elapsed();
    if let Some(t) = tracer {
        t.set_recording(false);
    }
    phase.cpu_s = trace::process_cpu_s() - cpu_before;
    phase.cpu_groups = trace::group_cpu_delta(&threads_before, &trace::thread_cpu_s(), phase.cpu_s);
    phase.comm = dep
        .engine
        .comm_stats()
        .unwrap_or_default()
        .since(&comm_before);
    phase.pool = dep.pool_stats().since(&pool_before);
    phase.peak_threads = sampler.stop();
    Ok(phase)
}

/// One update step: the owner encrypts `churn` new records, C1 appends
/// them, the oldest `churn` live records are tombstoned, and the store is
/// flushed. The mirror follows every change.
fn update_step(
    w: &Workload,
    dep: &mut Deployment,
    data_rng: &mut StdRng,
    engine_rng: &mut StdRng,
) -> Result<(), String> {
    let rows: Vec<Vec<u64>> = (0..w.churn).map(|_| w.point(data_rng)).collect();
    let mut records = Vec::with_capacity(rows.len());
    for row in &rows {
        records.push(
            dep.engine
                .owner()
                .encrypt_record(row, engine_rng)
                .map_err(|e| e.to_string())?,
        );
    }
    let stable = dep
        .engine
        .append_records(DATASET, records)
        .map_err(|e| e.to_string())?;
    dep.mirror.append(&stable, rows)?;
    for _ in 0..w.churn {
        let oldest = dep.mirror.oldest().ok_or("nothing left to tombstone")?;
        dep.engine
            .tombstone_record(DATASET, oldest)
            .map_err(|e| e.to_string())?;
        dep.mirror.tombstone(oldest)?;
    }
    dep.engine.flush().map_err(|e| e.to_string())
}

/// Total size of the files under `dir`, in bytes.
pub fn disk_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => disk_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mirror() -> Mirror {
        Mirror::new(vec![
            vec![0, 0],
            vec![3, 4],
            vec![1, 1],
            vec![1, 1],
            vec![9, 9],
        ])
        .expect("valid table")
    }

    #[test]
    fn correct_answers_pass_in_any_tie_order() {
        let m = mirror();
        assert!(m.check(&[0, 0], 2, &[vec![0, 0], vec![1, 1]]));
        assert!(m.check(&[1, 1], 2, &[vec![1, 1], vec![1, 1]]));
        assert!(m.check(&[1, 1], 3, &[vec![1, 1], vec![0, 0], vec![1, 1]]));
    }

    #[test]
    fn wrong_answers_are_flagged() {
        let m = mirror();
        // A farther record in place of a nearer one.
        assert!(!m.check(&[0, 0], 2, &[vec![0, 0], vec![3, 4]]));
        // Too few records.
        assert!(!m.check(&[0, 0], 2, &[vec![0, 0]]));
        // The right distance, but a record that is not in the table.
        assert!(m.check(&[2, 2], 1, &[vec![1, 1]]));
        assert!(!m.check(&[2, 2], 1, &[vec![3, 3]]));
        // One live copy returned twice.
        assert!(!m.check(&[0, 0], 2, &[vec![0, 0], vec![0, 0]]));
    }

    #[test]
    fn tombstoned_records_are_no_longer_answers() {
        let mut m = mirror();
        m.tombstone(0).expect("oldest first");
        assert!(!m.check(&[0, 0], 1, &[vec![0, 0]]));
        assert!(m.check(&[0, 0], 1, &[vec![1, 1]]));
        m.append(&[5], vec![vec![0, 1]]).expect("next stable index");
        assert!(m.check(&[0, 0], 1, &[vec![0, 1]]));
        assert!(m.tombstone(3).is_err(), "out of order");
        assert!(m.append(&[9], vec![vec![0, 0]]).is_err(), "index gap");
    }

    #[test]
    fn value_bound_keeps_distances_below_saturation() {
        for w in WORKLOADS {
            let v = w.value_bound() as u128;
            let worst = w.attributes as u128 * v * v;
            assert!(worst < (1u128 << w.distance_bits) - 1, "{}", w.name);
            let over = w.attributes as u128 * (v + 1) * (v + 1);
            assert!(over >= (1u128 << w.distance_bits) - 1, "{}", w.name);
        }
    }
}
