//! The common KV interface every NVM index structure implements, so the
//! Figure 12 harness can drive them uniformly.

use crate::store::Result;
use e2nvm_sim::DeviceStats;

/// A persistent key-value store over simulated NVM.
pub trait NvmKvStore {
    /// Structure name for reports ("B+-Tree", "FP-Tree", ...).
    fn name(&self) -> &'static str;

    /// Insert or update.
    fn put(&mut self, key: u64, value: &[u8]) -> Result<()>;

    /// Look up a key.
    fn get(&mut self, key: u64) -> Result<Option<Vec<u8>>>;

    /// Delete a key; returns whether it existed.
    fn delete(&mut self, key: u64) -> Result<bool>;

    /// All pairs with `lo <= key <= hi`, in key order.
    fn scan(&mut self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>>;

    /// Like [`NvmKvStore::scan`], but return at most `limit` pairs
    /// (the lowest keys in the range). The wire protocol's SCAN_STREAM
    /// frame carries such a limit, which the server pages through
    /// [`NvmKvStore::scan_visit`]; the default implementation truncates
    /// a full scan, and structures with ordered indexes may override it
    /// to stop early.
    fn scan_limit(&mut self, lo: u64, hi: u64, limit: usize) -> Result<Vec<(u64, Vec<u8>)>> {
        let mut entries = self.scan(lo, hi)?;
        entries.truncate(limit);
        Ok(entries)
    }

    /// [`NvmKvStore::scan_limit`] without handing out owned values:
    /// call `f(key, value)` for each of the (at most `limit`) pairs in
    /// key order until it returns `false`, and return how many pairs it
    /// was called with. The whole page is found and read before the
    /// first call, so an error means `f` saw nothing. The serving layer
    /// scans through this; the default implementation iterates a
    /// `scan_limit`, and a store that can hand out its values in place
    /// overrides it (the E2 store visits them in device memory).
    fn scan_visit(
        &mut self,
        lo: u64,
        hi: u64,
        limit: usize,
        f: &mut dyn FnMut(u64, &[u8]) -> bool,
    ) -> Result<usize> {
        let entries = self.scan_limit(lo, hi, limit)?;
        let mut visited = 0;
        for (key, value) in &entries {
            visited += 1;
            if !f(*key, value) {
                break;
            }
        }
        Ok(visited)
    }

    /// Device statistics of the underlying store.
    fn stats(&self) -> DeviceStats;

    /// Reset device statistics.
    fn reset_stats(&mut self);

    /// Periodic maintenance hook: for E2-plugged stores this retrains
    /// the placement model on the current free-segment contents (the
    /// paper's lazy background retraining); a no-op otherwise.
    fn maintenance(&mut self) {}

    /// Force durable state to stable storage: take a snapshot and fsync
    /// the WALs, returning the snapshot bytes written. Stores without a
    /// persistence layer configured return `Ok(0)` — a documented no-op,
    /// so the wire protocol's FLUSH frame is safe against any store.
    fn flush(&mut self) -> Result<u64> {
        Ok(0)
    }

    /// Group-commit barrier: hand every WAL record buffered by the
    /// mutations since the last call to the kernel (one `write(2)` per
    /// dirty shard). The serving layer calls this once per pipelined
    /// request batch, **before** the batch's acknowledgements are
    /// flushed to the socket — that ordering is what makes an acked
    /// write survive a process kill. Stores without persistence keep
    /// the default no-op.
    fn commit(&mut self) -> Result<()> {
        Ok(())
    }
}

/// Exercise a store with a deterministic CRUD workload and verify
/// results against a shadow `BTreeMap` — shared by every structure's
/// tests.
#[cfg(test)]
pub fn check_against_shadow(
    store: &mut dyn NvmKvStore,
    ops: usize,
    value_len: usize,
    seed: u64,
) -> std::result::Result<(), String> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut shadow: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for op in 0..ops {
        let key = rng.gen_range(0..64u64);
        match rng.gen_range(0..12) {
            0..=5 | 10 => {
                let value: Vec<u8> = (0..value_len).map(|_| rng.gen()).collect();
                store
                    .put(key, &value)
                    .map_err(|e| format!("op {op}: put({key}) failed: {e}"))?;
                shadow.insert(key, value);
            }
            6..=7 | 11 => {
                let got = store
                    .get(key)
                    .map_err(|e| format!("op {op}: get({key}) failed: {e}"))?;
                if got.as_ref() != shadow.get(&key) {
                    return Err(format!(
                        "op {op}: get({key}) mismatch: got {:?} expected {:?}",
                        got.map(|v| v.len()),
                        shadow.get(&key).map(|v| v.len())
                    ));
                }
            }
            8 => {
                let existed = store
                    .delete(key)
                    .map_err(|e| format!("op {op}: delete({key}) failed: {e}"))?;
                if existed != shadow.remove(&key).is_some() {
                    return Err(format!("op {op}: delete({key}) existence mismatch"));
                }
            }
            _ => {
                let lo = key.saturating_sub(8);
                let got = store
                    .scan(lo, key)
                    .map_err(|e| format!("op {op}: scan failed: {e}"))?;
                let expect: Vec<(u64, Vec<u8>)> = shadow
                    .range(lo..=key)
                    .map(|(k, v)| (*k, v.clone()))
                    .collect();
                if got != expect {
                    let gk: Vec<u64> = got.iter().map(|(k, _)| *k).collect();
                    let ek: Vec<u64> = expect.iter().map(|(k, _)| *k).collect();
                    return Err(format!(
                        "op {op}: scan({lo}..={key}) mismatch: got {gk:?} expected {ek:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}
