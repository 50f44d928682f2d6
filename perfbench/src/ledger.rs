//! Unit costs of each layer, timed standalone through the layer's public
//! functions at a workload's key size, and the per-stage predictions
//! (primitive count × unit cost) built from them.

use crate::stats::{median, Metrics};
use crate::workload::{disk_bytes, rng_for, Deployment, Stream, Workload};
use rand::Rng;
use sknn_bigint::{random_below, BigUint};
use sknn_core::{
    DataOwner, KeyHolder, LocalKeyHolder, PoolConfig, PooledEncryptor, Protocol, RandomnessPool,
    Stage, Table,
};
use sknn_protocols::{
    secure_bit_decompose, secure_bit_or, secure_min, secure_min_n, secure_multiply,
    secure_squared_distance,
};
use std::hint::black_box;
use std::time::Instant;

/// Median wall time of `reps` calls of `f`, in seconds.
fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Values SMIN_n is timed over: the workload's record count, capped so
/// the tournament stays a few SMINs long at the larger key.
fn smin_n_values(w: &Workload) -> usize {
    w.records.clamp(2, 4)
}

/// Unit costs in seconds, the inputs of the per-stage predictions.
#[derive(Clone, Copy, Debug, Default)]
pub struct Units {
    pub encrypt_pooled: f64,
    pub decrypt: f64,
    pub negate: f64,
    pub sm: f64,
    pub ssed: f64,
    pub sbd: f64,
    pub smin: f64,
    pub sbor: f64,
}

/// Times the bigint, Paillier and protocol primitives at `w`'s key size,
/// distance bits and attribute count. Protocols run against an in-process
/// [`LocalKeyHolder`] carrying an offline pool configured as the engine's.
pub fn unit_costs(w: &Workload, seed: u64) -> Result<(Metrics, Units), String> {
    let mut rng = rng_for(seed, Stream::Ledger);
    let owner = DataOwner::new(w.key_bits, &mut rng);
    let pk = owner.public_key().clone();
    let n = pk.n().clone();
    let n2 = pk.n_squared().clone();
    let mut m = Metrics::default();
    let mut u = Units::default();
    let fast = 15;
    let slow = 5;

    // bigint: a full-size exponent mod N² (what a negation costs), an
    // inverse mod N², and one modular multiply mod N² (a homomorphic add).
    let x = pk.encrypt(&random_below(&mut rng, &n), &mut rng).into_raw();
    let y = pk.encrypt(&random_below(&mut rng, &n), &mut rng).into_raw();
    let n_minus_1 = n.sub_ref(&BigUint::one());
    let pow = time_median(fast, || x.mod_pow(&n_minus_1, &n2));
    m.push("bigint.pow_full_us", pow * 1e6, "us");
    let inv = time_median(fast, || x.mod_inverse(&n2));
    m.push("bigint.mod_inverse_us", inv * 1e6, "us");
    const MULS: usize = 256;
    let mul = time_median(fast, || {
        let mut acc = x.clone();
        for _ in 0..MULS {
            acc = acc.mod_mul(&y, &n2);
        }
        acc
    }) / MULS as f64;
    m.push("bigint.mul_ns", mul * 1e9, "ns");

    // paillier
    let msg = random_below(&mut rng, &n);
    let cold = time_median(fast, || pk.encrypt(&msg, &mut rng));
    m.push("paillier.encrypt_cold_us", cold * 1e6, "us");
    let quiet = RandomnessPool::new(
        pk.clone(),
        PoolConfig {
            capacity: fast,
            background_refill: false,
            ..PoolConfig::default()
        },
    );
    quiet.prewarm(fast);
    let pooled_enc = PooledEncryptor::new(quiet);
    u.encrypt_pooled = time_median(fast, || pooled_enc.encrypt(&msg));
    m.push("paillier.encrypt_pooled_us", u.encrypt_pooled * 1e6, "us");
    let c2_pool = RandomnessPool::new(pk.clone(), PoolConfig::default());
    c2_pool.prewarm(sknn_core::FederationConfig::default().pool_prewarm);
    let holder = LocalKeyHolder::new(owner.private_key().clone(), seed)
        .with_pool(c2_pool)
        .map_err(|e| e.to_string())?;
    let c = pk.encrypt(&msg, &mut rng);
    u.decrypt = time_median(fast, || {
        holder.decrypt_masked_batch(std::slice::from_ref(&c))
    });
    m.push_note(
        "paillier.decrypt_us",
        u.decrypt * 1e6,
        "us",
        "C2's decrypt_masked_batch of one ciphertext",
    );
    let scalar = random_below(&mut rng, &n);
    let mul_plain = time_median(fast, || pk.mul_plain(&c, &scalar));
    m.push("paillier.mul_plain_us", mul_plain * 1e6, "us");
    u.negate = time_median(fast, || pk.negate(&c));
    m.push("paillier.negate_us", u.negate * 1e6, "us");

    // protocols, at the workload's l and m
    let bound = w.value_bound();
    let point = |rng: &mut rand::rngs::StdRng| -> Vec<_> {
        (0..w.attributes)
            .map(|_| pk.encrypt_u64(rng.gen_range(0..=bound), rng))
            .collect()
    };
    let (ex, ey) = (point(&mut rng), point(&mut rng));
    u.sm = time_median(fast, || {
        secure_multiply(&pk, &holder, &ex[0], &ey[0], &mut rng)
    });
    m.push("protocols.sm_us", u.sm * 1e6, "us");
    u.ssed = time_median(slow, || {
        secure_squared_distance(&pk, &holder, &ex, &ey, &mut rng)
    });
    m.push_note(
        "protocols.ssed_ms",
        u.ssed * 1e3,
        "ms",
        format!("m = {}", w.attributes),
    );
    let l = w.distance_bits;
    let bits_of = |v: u64, rng: &mut rand::rngs::StdRng| {
        secure_bit_decompose(&pk, &holder, &pk.encrypt_u64(v, rng), l, rng)
            .map_err(|e| e.to_string())
    };
    let top = (1u64 << l) - 2;
    let mut values = Vec::new();
    for _ in 0..smin_n_values(w) {
        let v = rng.gen_range(0..=top);
        values.push(bits_of(v, &mut rng)?);
    }
    let ez = pk.encrypt_u64(rng.gen_range(0..=top), &mut rng);
    u.sbd = time_median(slow, || {
        secure_bit_decompose(&pk, &holder, &ez, l, &mut rng)
    });
    m.push_note("protocols.sbd_ms", u.sbd * 1e3, "ms", format!("l = {l}"));
    u.smin = time_median(slow, || {
        secure_min(&pk, &holder, &values[0], &values[1], &mut rng)
    });
    m.push_note("protocols.smin_ms", u.smin * 1e3, "ms", format!("l = {l}"));
    let smin_n = time_median(1, || secure_min_n(&pk, &holder, &values, &mut rng));
    m.push_note(
        "protocols.smin_n_ms",
        smin_n * 1e3,
        "ms",
        format!("over {} values, one run", values.len()),
    );
    let (b0, b1) = (pk.encrypt_u64(0, &mut rng), pk.encrypt_u64(1, &mut rng));
    u.sbor = time_median(fast, || secure_bit_or(&pk, &holder, &b0, &b1, &mut rng));
    m.push("protocols.sbor_us", u.sbor * 1e6, "us");
    Ok((m, u))
}

/// Short metric-name form of an executor stage.
pub fn stage_name(stage: Stage) -> &'static str {
    match stage {
        Stage::DistanceComputation => "ssed",
        Stage::BitDecomposition => "sbd",
        Stage::ShardCandidates => "shard_topk",
        Stage::SecureMinimum => "smin_n",
        Stage::RecordSelection => "selection",
        Stage::DistanceFreezing => "sbor_freeze",
        Stage::Finalization => "finalize",
    }
}

/// Predicted seconds per query for `stage`: how many times the stage runs
/// its dominant primitives under `w`'s plan, times their unit costs.
pub fn predicted_s(w: &Workload, u: &Units, stage: Stage) -> f64 {
    let n = w.records as f64;
    let m = w.attributes as f64;
    let k = w.k as f64;
    let l = w.distance_bits as f64;
    let s = w.shards as f64;
    let secure = w.protocol == Protocol::Secure;
    let sharded = w.shards > 1;
    // Masking the k results and C2 revealing them.
    let finalize = k * m * (u.encrypt_pooled + u.decrypt);
    match stage {
        Stage::DistanceComputation => n * u.ssed,
        Stage::BitDecomposition if secure => n * u.sbd,
        Stage::SecureMinimum if secure => k * (n - 1.0) * u.smin,
        // Per round: negate and blind every distance difference, C2
        // decrypts each and answers with a fresh encryption, then one SM
        // per record attribute extracts the winner.
        Stage::RecordSelection if secure => {
            k * n * (m * u.sm + 2.0 * u.negate + u.decrypt + u.encrypt_pooled)
        }
        Stage::DistanceFreezing if secure => k * n * l * u.sbor,
        // SkNN_b: C2 decrypts every distance to rank them — per shard when
        // sharded, and then once more over the k·S gathered candidates.
        Stage::ShardCandidates if sharded => n * u.decrypt,
        Stage::RecordSelection if sharded => k * s * u.decrypt,
        Stage::RecordSelection => n * u.decrypt,
        Stage::Finalization => finalize,
        _ => 0.0,
    }
}

/// Times the durable store's write path through the engine on a small
/// probe dataset registered beside the workload's own: the owner's
/// `encrypt_record`, `append_records`, `tombstone_record`, `flush` and
/// `compact_dataset`, plus the bytes on disk per live record afterwards.
pub fn store_costs(w: &Workload, dep: &mut Deployment, seed: u64) -> Result<Metrics, String> {
    const PROBE: &str = "store-probe";
    const LIVE: usize = 16;
    const STEPS: usize = 4;
    const CHURN: usize = 4;
    let mut rng = rng_for(seed ^ 0x57, Stream::Ledger);
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let rows: Vec<Vec<u64>> = (0..LIVE).map(|_| w.point(&mut rng)).collect();
    let table = Table::new(rows).map_err(|e| e.to_string())?;
    let engine = &mut dep.engine;
    engine
        .register_dataset_persistent(PROBE, &table, &mut rng)
        .map_err(|e| e.to_string())?;
    let (mut enc, mut append, mut tomb, mut flush) = (vec![], vec![], vec![], vec![]);
    let mut oldest = 0usize;
    for _ in 0..STEPS {
        let mut records = Vec::new();
        for _ in 0..CHURN {
            let row = w.point(&mut rng);
            let t = Instant::now();
            records.push(
                engine
                    .owner()
                    .encrypt_record(&row, &mut rng)
                    .map_err(|e| e.to_string())?,
            );
            enc.push(ms(t));
        }
        let t = Instant::now();
        engine
            .append_records(PROBE, records)
            .map_err(|e| e.to_string())?;
        append.push(ms(t));
        for _ in 0..CHURN {
            let t = Instant::now();
            engine
                .tombstone_record(PROBE, oldest)
                .map_err(|e| e.to_string())?;
            tomb.push(ms(t));
            oldest += 1;
        }
        let t = Instant::now();
        engine.flush().map_err(|e| e.to_string())?;
        flush.push(ms(t));
    }
    let t = Instant::now();
    engine.compact_dataset(PROBE).map_err(|e| e.to_string())?;
    let compact = ms(t);
    let bytes = disk_bytes(&dep.store.path().join(PROBE));
    engine.remove_dataset(PROBE).map_err(|e| e.to_string())?;
    let mut m = Metrics::default();
    let note = format!("{STEPS} steps of {CHURN} records on a {LIVE}-record probe dataset");
    m.push_note("store.append_ms", median(&append), "ms", note.clone());
    m.push_note("store.tombstone_ms", median(&tomb), "ms", "per record");
    m.push("store.flush_ms", median(&flush), "ms");
    m.push("store.compact_ms", compact, "ms");
    m.push_note(
        "store.disk_bytes_per_live_record",
        bytes as f64 / LIVE as f64,
        "bytes",
        "after compaction",
    );
    m.push_note("owner.encrypt_record_ms", median(&enc), "ms", "per record");
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn every_stage_a_workload_runs_has_a_prediction() {
        let u = Units {
            encrypt_pooled: 1.0,
            decrypt: 1.0,
            negate: 1.0,
            sm: 1.0,
            ssed: 1.0,
            sbd: 1.0,
            smin: 1.0,
            sbor: 1.0,
        };
        for w in WORKLOADS {
            for stage in [
                Stage::DistanceComputation,
                Stage::RecordSelection,
                Stage::Finalization,
            ] {
                assert!(predicted_s(&w, &u, stage) > 0.0, "{} {stage:?}", w.name);
            }
            let secure = w.protocol == Protocol::Secure;
            for stage in [
                Stage::BitDecomposition,
                Stage::SecureMinimum,
                Stage::DistanceFreezing,
            ] {
                assert_eq!(
                    predicted_s(&w, &u, stage) > 0.0,
                    secure,
                    "{} {stage:?}",
                    w.name
                );
            }
            assert_eq!(
                predicted_s(&w, &u, Stage::ShardCandidates) > 0.0,
                w.shards > 1,
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn stage_names_are_metric_names() {
        for stage in Stage::ALL {
            assert!(crate::stats::valid_name(stage_name(stage)));
        }
    }
}
