//! Sharded concurrent solved-point cache with single-flight admission.
//!
//! The contention solves are pure functions of a handful of `f64` bit
//! patterns: a machine-repairman `waiting` depends only on
//! `(service, think, processors)`, a Patel operating point only on
//! `(rate, size, stages)`. Memoizing them turns a solve into a hash
//! lookup, which is what makes interactive query serving viable. The
//! server keeps one cache per machine family, and each is:
//!
//! * **Sharded** — N independently locked shards, so concurrent server
//!   threads rarely contend; the shard index is taken from bits 32 and
//!   up of the key's hash (see [`PointHashState`]).
//! * **Hashed** — each shard holds two hash maps: `ready` for solved
//!   values and `flights` for claims still being solved. Every
//!   operation consults at most both maps once, so admitting a miss
//!   costs the same in an empty cache as in one holding 10⁵ points. A
//!   probe counter in [`CacheStats`] counts those hash-table lookups and
//!   lets tests pin the constant, so neither a linear scan nor a search
//!   that grows with the shard can quietly come back.
//! * **Single-flight** — [`begin`](SolvedPointCache::begin) returns
//!   [`Admission::Claimed`] to exactly one caller per missing key;
//!   concurrent identical queries get [`Admission::Shared`] and block
//!   on a [`Flight`] instead of re-solving. The claimant publishes the
//!   value ([`publish_many`](SolvedPointCache::publish_many)) or, on
//!   failure, aborts the claim
//!   ([`abort_many`](SolvedPointCache::abort_many)), waking waiters
//!   empty-handed so they can fall back to solving themselves.
//! * **Lazy flights** — a claim is a `flights` entry with no flight
//!   attached. The first caller that finds the key claimed allocates
//!   the flight, and later callers share it, so a key nobody else asks
//!   for costs no allocation, and publishing it locks and wakes nothing.
//! * **Batched** — [`begin_many`](SolvedPointCache::begin_many),
//!   [`publish_many`](SolvedPointCache::publish_many) and
//!   [`abort_many`](SolvedPointCache::abort_many) group their keys by
//!   shard, lock each shard once, and update the counters once. They
//!   run the same per-key rules as the scalar calls, in key order
//!   within each shard, so they answer exactly as a loop of scalar
//!   calls would; flights are resolved after every lock is released.
//!   The scalar `get`, `insert`, `publish` and `abort` exist only in
//!   test builds, as the reference the batch calls must equal.
//!
//! Locks are the non-poisoning [`swcc_obs::sync`] wrappers: a worker
//! that panics mid-insert leaves a valid (merely smaller) shard behind
//! rather than wedging every later lookup.
//!
//! Keys are *bit patterns*, not floats: two demands hash and compare
//! equal exactly when their inputs are bit-identical, which is the same
//! criterion under which the batch engines ([`swcc_core::batch`]) are
//! proven to reproduce scalar solves bit-for-bit — so a value filled by
//! a batch grid is interchangeable with one filled by a scalar solve.

use std::collections::hash_map::{Entry, HashMap, RandomState};
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use swcc_obs::sync::{Condvar, Mutex};

/// Identifies one solved operating point.
///
/// The `(service, think)` fields are the `to_bits()` images of the
/// queueing inputs (for the network model: transaction size and rate),
/// and `machine` is the bus processor count or the network stage count.
/// No field names the scheme: a solved value depends on the scheme only
/// through the demand bits, so two schemes (or two workloads) that
/// induce the same queue share one entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PointKey {
    /// Bit pattern of the service-time-like input (`b` / transaction size).
    pub service: u64,
    /// Bit pattern of the think-time-like input (`c − b` / rate).
    pub think: u64,
    /// Machine discriminant (bus processor count, network stage count).
    pub machine: u32,
}

/// Builds [`PointHasher`]s: the cheap, seeded hasher for [`PointKey`]
/// maps and sets.
///
/// The state starts from a seed drawn once per instance from
/// [`RandomState`]. Each float-bits word is folded in by an xor, a
/// multiply and a rotate; the `u32` machine tag is xored in; `finish`
/// applies splitmix64's finalizer. That is four multiplies per key where
/// SipHash spends dozens of rounds. The seed matters because keys are
/// the bits of client-chosen floats: through the multiply's carries it
/// decides which keys share a hash, so a client cannot precompute keys
/// that pile into one bucket. Clones share the seed.
///
/// [`SolvedPointCache`] picks a shard from bits 32 and up of this hash.
/// std's `HashMap` indexes buckets with the low bits and keeps the top
/// seven as a per-slot tag, so both stay uniformly spread inside a
/// shard whatever the shard count.
#[derive(Debug, Clone)]
pub struct PointHashState {
    seed: u64,
}

impl PointHashState {
    /// A hasher builder with a fresh random seed.
    pub fn new() -> Self {
        PointHashState {
            seed: RandomState::new().build_hasher().finish(),
        }
    }
}

impl BuildHasher for PointHashState {
    type Hasher = PointHasher;

    fn build_hasher(&self) -> PointHasher {
        PointHasher(self.seed)
    }
}

/// The hasher [`PointHashState`] builds.
#[derive(Debug, Clone)]
pub struct PointHasher(u64);

impl Hasher for PointHasher {
    fn finish(&self) -> u64 {
        // splitmix64's finalizer: a bijection in which every output bit
        // depends on every input bit.
        let mut h = self.0;
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, word: u32) {
        // A key's one tag, `machine`, is xored in; `finish` spreads it.
        self.0 ^= u64::from(word);
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(26);
    }
}

/// Outcome of one [`SolvedPointCache::begin`] admission.
#[derive(Debug)]
pub enum Admission<V> {
    /// The value was already solved; use it directly.
    Hit(V),
    /// This caller owns the solve: compute the value, then
    /// [`publish_many`](SolvedPointCache::publish_many) it (or
    /// [`abort_many`](SolvedPointCache::abort_many) on failure). Until
    /// then every other caller for the same key is parked on the flight.
    Claimed,
    /// Another caller is already solving this key; wait on the flight,
    /// which the first such caller attached to the claim.
    Shared(Arc<Flight<V>>),
}

/// The rendezvous between one in-progress solve and its waiters.
#[derive(Debug)]
pub struct Flight<V> {
    state: Mutex<FlightState<V>>,
    ready: Condvar,
}

#[derive(Debug)]
enum FlightState<V> {
    Solving,
    Done(V),
    Aborted,
}

impl<V: Copy> Flight<V> {
    fn new() -> Self {
        Flight {
            state: Mutex::new(FlightState::Solving),
            ready: Condvar::new(),
        }
    }

    /// Blocks until the claimant publishes or aborts, or until
    /// `timeout` passes. `None` means the solve was abandoned or is
    /// overdue — from the waiter's view both call for the same
    /// fallback: solve for itself.
    pub fn wait_for(&self, timeout: Duration) -> Option<V> {
        let deadline = std::time::Instant::now() + timeout;
        let mut guard = self.state.lock();
        loop {
            match *guard {
                FlightState::Done(v) => return Some(v),
                FlightState::Aborted => return None,
                FlightState::Solving => {}
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (g, _timeout) = self.ready.wait_timeout(guard, deadline - now);
            guard = g;
        }
    }

    fn resolve(&self, state: FlightState<V>) {
        *self.state.lock() = state;
        self.ready.notify_all();
    }
}

/// One lock's worth of the cache. A key is in at most one of the maps.
#[derive(Debug)]
struct Shard<V> {
    /// Solved values.
    ready: HashMap<PointKey, V, PointHashState>,
    /// Claims still being solved; empty whenever no solve is running. A
    /// claim carries a flight only once a second caller shares it.
    flights: HashMap<PointKey, Option<Arc<Flight<V>>>, PointHashState>,
}

impl<V: Copy> Shard<V> {
    // The admission rules, one key at a time on a locked shard. Every
    // public operation, scalar or batched, runs these bodies and adds
    // `delta` to the cache's counters afterwards; the flights they
    // return are resolved once every shard lock is released.

    fn begin(&mut self, key: PointKey, delta: &mut CacheStats) -> Admission<V> {
        if let Some(v) = self.ready.get(&key) {
            delta.hits += 1;
            delta.probes += 1;
            return Admission::Hit(*v);
        }
        delta.probes += 2;
        match self.flights.entry(key) {
            Entry::Occupied(mut claim) => {
                delta.coalesced += 1;
                let flight = claim
                    .get_mut()
                    .get_or_insert_with(|| Arc::new(Flight::new()));
                Admission::Shared(Arc::clone(flight))
            }
            Entry::Vacant(slot) => {
                delta.misses += 1;
                slot.insert(None);
                Admission::Claimed
            }
        }
    }

    fn insert(
        &mut self,
        key: PointKey,
        value: V,
        delta: &mut CacheStats,
    ) -> Option<Arc<Flight<V>>> {
        self.ready.insert(key, value);
        delta.inserts += 1;
        if self.flights.is_empty() {
            delta.probes += 1;
            None
        } else {
            delta.probes += 2;
            self.flights.remove(&key).flatten()
        }
    }

    fn abort(&mut self, key: &PointKey, delta: &mut CacheStats) -> Option<Arc<Flight<V>>> {
        delta.probes += 1;
        self.flights.remove(key).flatten()
    }
}

/// Point-in-time counters for one cache. `probes` counts hash-table
/// lookups, one per shard map an operation consults, so it grows by a
/// constant per operation however many entries the cache holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from a solved value.
    pub hits: u64,
    /// Lookups that found no solved value (the caller must solve).
    pub misses: u64,
    /// Admissions that joined another caller's in-progress solve.
    pub coalesced: u64,
    /// Values published or inserted.
    pub inserts: u64,
    /// Total hash-table lookups across all shard maps.
    pub probes: u64,
}

/// The sharded, hash-indexed, single-flight solved-point cache.
#[derive(Debug)]
pub struct SolvedPointCache<V> {
    hasher: PointHashState,
    shards: Box<[Mutex<Shard<V>>]>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    inserts: AtomicU64,
    probes: AtomicU64,
}

/// Shard count for [`SolvedPointCache::new`] — enough that a thread
/// pool sized to typical core counts rarely collides, small enough to
/// stay cache-friendly for single-threaded users.
const DEFAULT_SHARDS: usize = 16;

impl<V: Copy> SolvedPointCache<V> {
    /// A cache with the default shard count. Empty shards allocate
    /// nothing.
    pub fn new() -> Self {
        Self::with_shards_and_hasher(DEFAULT_SHARDS, PointHashState::new())
    }

    /// A cache with at least `shards` shards, rounded up to a power of
    /// two so the shard index is a mask, not a division.
    fn with_shards_and_hasher(shards: usize, hasher: PointHashState) -> Self {
        let n = shards.max(1).next_power_of_two();
        SolvedPointCache {
            shards: (0..n)
                .map(|_| {
                    Mutex::new(Shard {
                        ready: HashMap::with_hasher(hasher.clone()),
                        flights: HashMap::with_hasher(hasher.clone()),
                    })
                })
                .collect(),
            hasher,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            probes: AtomicU64::new(0),
        }
    }

    fn shard_index(&self, key: &PointKey) -> usize {
        (self.hasher.hash_one(key) >> 32) as usize & (self.shards.len() - 1)
    }

    /// Runs `body` on one key under its shard's lock.
    fn with_shard<R>(
        &self,
        key: &PointKey,
        body: impl FnOnce(&mut Shard<V>, &mut CacheStats) -> R,
    ) -> R {
        let mut delta = CacheStats::default();
        let out = body(&mut self.shards[self.shard_index(key)].lock(), &mut delta);
        self.record(delta);
        out
    }

    /// Runs `body` on every position of `keys`, taking each shard lock
    /// once: one counting sort groups the positions by shard, and each
    /// non-empty shard runs its positions in their original order, so a
    /// key listed twice is handled twice, in list order.
    fn for_each_by_shard(
        &self,
        keys: &[PointKey],
        mut body: impl FnMut(&mut Shard<V>, usize, &mut CacheStats),
    ) {
        let shard_of: Vec<usize> = keys.iter().map(|k| self.shard_index(k)).collect();
        let mut starts = vec![0usize; self.shards.len() + 1];
        for &s in &shard_of {
            starts[s + 1] += 1;
        }
        for s in 1..starts.len() {
            starts[s] += starts[s - 1];
        }
        let mut cursor = starts.clone();
        let mut order = vec![0usize; keys.len()];
        for (i, &s) in shard_of.iter().enumerate() {
            order[cursor[s]] = i;
            cursor[s] += 1;
        }
        let mut delta = CacheStats::default();
        for (shard, group) in self.shards.iter().zip(starts.windows(2)) {
            if group[0] < group[1] {
                let mut shard = shard.lock();
                for &i in &order[group[0]..group[1]] {
                    body(&mut shard, i, &mut delta);
                }
            }
        }
        self.record(delta);
    }

    /// Adds one operation's (or one batch's) counts to the counters.
    fn record(&self, delta: CacheStats) {
        for (counter, n) in [
            (&self.hits, delta.hits),
            (&self.misses, delta.misses),
            (&self.coalesced, delta.coalesced),
            (&self.inserts, delta.inserts),
            (&self.probes, delta.probes),
        ] {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Admission with single-flight coalescing: exactly one concurrent
    /// caller per missing key is told [`Admission::Claimed`]; the rest
    /// share a [`Flight`] that the first of them attaches to the claim.
    pub fn begin(&self, key: PointKey) -> Admission<V> {
        self.with_shard(&key, |shard, delta| shard.begin(key, delta))
    }

    /// [`begin`](SolvedPointCache::begin) on every key, taking each
    /// shard lock once. The admissions come back in key order and equal
    /// those of a loop of `begin` calls: the first occurrence of a
    /// missing key is `Claimed`, later ones `Shared`.
    pub fn begin_many(&self, keys: &[PointKey]) -> Vec<Admission<V>> {
        // Placeholders: the shard pass writes every position once.
        let mut out: Vec<Admission<V>> = keys.iter().map(|_| Admission::Claimed).collect();
        self.for_each_by_shard(keys, |shard, i, delta| out[i] = shard.begin(keys[i], delta));
        out
    }

    /// Fulfills claimed admissions: stores `values[i]` under `keys[i]`
    /// for every `i`, taking each shard lock once, and wakes the
    /// waiters parked on those keys once every lock is released.
    ///
    /// # Panics
    ///
    /// If `keys` and `values` differ in length.
    pub fn publish_many(&self, keys: &[PointKey], values: &[V]) {
        assert_eq!(keys.len(), values.len(), "publish_many: one value per key");
        let mut woken = Vec::new();
        self.for_each_by_shard(keys, |shard, i, delta| {
            if let Some(flight) = shard.insert(keys[i], values[i], delta) {
                woken.push((flight, values[i]));
            }
        });
        for (flight, value) in woken {
            flight.resolve(FlightState::Done(value));
        }
    }

    /// Abandons claimed solves: removes each pending claim, taking each
    /// shard lock once, and wakes its waiters empty-handed once every
    /// lock is released. Call this on the error/panic path of a
    /// claimant so coalesced queries fall back to solving for
    /// themselves instead of blocking forever. A publish that won the
    /// race has already retired the claim, so its value stays.
    pub fn abort_many(&self, keys: &[PointKey]) {
        let mut woken = Vec::new();
        self.for_each_by_shard(keys, |shard, i, delta| {
            woken.extend(shard.abort(&keys[i], delta))
        });
        for flight in woken {
            flight.resolve(FlightState::Aborted);
        }
    }

    /// Number of solved + pending entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock();
                shard.ready.len() + shard.flights.len()
            })
            .sum()
    }

    /// Snapshot of the admission counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
        }
    }
}

// The scalar calls. The server admits, publishes and aborts whole
// batches, so only the tests use these: as the one-key reference that
// the batch calls must equal.
#[cfg(test)]
impl<V: Copy> SolvedPointCache<V> {
    pub(crate) fn with_shards(shards: usize) -> Self {
        Self::with_shards_and_hasher(shards, PointHashState::new())
    }

    /// Looks up a solved value. Pending (in-flight) keys read as
    /// misses: `get` never blocks.
    pub(crate) fn get(&self, key: &PointKey) -> Option<V> {
        self.with_shard(key, |shard, delta| {
            let value = shard.ready.get(key).copied();
            if value.is_some() {
                delta.hits += 1;
            } else {
                delta.misses += 1;
            }
            delta.probes += 1;
            value
        })
    }

    /// Inserts (or overwrites) a solved value, resolving any waiters
    /// parked on the key.
    pub(crate) fn insert(&self, key: PointKey, value: V) {
        if let Some(flight) = self.with_shard(&key, |shard, delta| shard.insert(key, value, delta))
        {
            flight.resolve(FlightState::Done(value));
        }
    }

    /// Fulfills one claim; `insert` under the single-flight name.
    pub(crate) fn publish(&self, key: PointKey, value: V) {
        self.insert(key, value);
    }

    /// Abandons one claim, waking its waiters empty-handed.
    pub(crate) fn abort(&self, key: &PointKey) {
        if let Some(flight) = self.with_shard(key, |shard, delta| shard.abort(key, delta)) {
            flight.resolve(FlightState::Aborted);
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
impl<V: Copy> Flight<V> {
    /// Blocks until the claimant publishes (`Some`) or aborts (`None`).
    pub(crate) fn wait(&self) -> Option<V> {
        let guard = self
            .ready
            .wait_while(self.state.lock(), |s| matches!(s, FlightState::Solving));
        match *guard {
            FlightState::Done(v) => Some(v),
            FlightState::Aborted => None,
            FlightState::Solving => unreachable!("wait_while exits only on a terminal state"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::thread;

    fn key(i: u64) -> PointKey {
        PointKey {
            service: i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            think: i,
            machine: 16,
        }
    }

    #[test]
    fn get_insert_roundtrip_and_counters() {
        let cache: SolvedPointCache<f64> = SolvedPointCache::new();
        assert_eq!(cache.get(&key(1)), None);
        cache.insert(key(1), 2.5);
        assert_eq!(cache.get(&key(1)), Some(2.5));
        assert_eq!(cache.get(&key(2)), None);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 2, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn keys_differing_in_any_field_are_distinct() {
        let cache: SolvedPointCache<f64> = SolvedPointCache::new();
        let base = PointKey {
            service: 10,
            think: 20,
            machine: 16,
        };
        cache.insert(base, 1.0);
        for variant in [
            PointKey {
                service: 11,
                ..base
            },
            PointKey { think: 21, ..base },
            PointKey {
                machine: 17,
                ..base
            },
        ] {
            assert_eq!(cache.get(&variant), None, "{variant:?}");
        }
        assert_eq!(cache.get(&base), Some(1.0));
    }

    #[test]
    fn lookup_probes_stay_logarithmic() {
        // The regression this cache exists to prevent: the sensitivity
        // memo it replaced probed O(n) entries per lookup. With one
        // shard (worst case) and n entries, a binary search makes at
        // most ⌈log2(n)⌉ + 1 comparisons; a linear scan would average
        // n/2. Pin the bound with a margin so a rewrite that
        // reintroduces scanning fails loudly.
        let cache: SolvedPointCache<f64> = SolvedPointCache::with_shards(1);
        let n: u64 = 4096;
        for i in 0..n {
            cache.insert(key(i), i as f64);
        }
        let before = cache.stats().probes;
        let lookups: u64 = 1024;
        for i in 0..lookups {
            assert!(cache.get(&key(i * 3 % n)).is_some());
        }
        let probes = cache.stats().probes - before;
        let log_bound = lookups * (n.ilog2() as u64 + 2);
        assert!(
            probes <= log_bound,
            "expected ≤ {log_bound} probes for {lookups} lookups over {n} entries \
             (binary search), measured {probes} — linear scanning is back?"
        );
    }

    #[test]
    fn probes_per_lookup_stay_constant_as_one_shard_grows() {
        // A lookup consults at most both maps of its shard, at any
        // size; a binary-searched shard would pay ⌈log2 n⌉ (10 to 16
        // here) and trip the bound.
        let cache: SolvedPointCache<f64> = SolvedPointCache::with_shards(1);
        let mut filled = 0u64;
        for n in [1u64 << 10, 1 << 14, 1 << 16] {
            for i in filled..n {
                cache.insert(key(i), i as f64);
            }
            filled = n;
            let before = cache.stats();
            let lookups: u64 = 1024;
            for i in 0..lookups {
                // Alternate present keys and absent ones.
                let k = if i % 2 == 0 {
                    key(i * 7 % n)
                } else {
                    key(n + i)
                };
                assert_eq!(cache.get(&k).is_some(), i % 2 == 0);
            }
            for i in 0..lookups {
                assert!(matches!(cache.begin(key(i * 5 % n)), Admission::Hit(_)));
            }
            let after = cache.stats();
            let per_lookup = (after.probes - before.probes) as f64 / (2 * lookups) as f64;
            assert!(
                per_lookup <= 3.0,
                "{per_lookup} probes per lookup over {n} entries"
            );
        }
    }

    #[test]
    fn sweep_keys_fill_the_default_shards_evenly() {
        // A `shd` sweep's demands differ only in the low mantissa bits
        // of `(service, think)`; the shard index must still spread them.
        let cache: SolvedPointCache<u64> = SolvedPointCache::new();
        let (service, think) = (0.0123f64.to_bits(), 2.5f64.to_bits());
        let n: u64 = 1 << 16;
        for i in 0..n {
            let k = PointKey {
                service: service + i,
                think: think - 3 * i,
                machine: 16,
            };
            cache.insert(k, i);
        }
        let sizes: Vec<usize> = cache.shards.iter().map(|s| s.lock().ready.len()).collect();
        assert_eq!(sizes.len(), DEFAULT_SHARDS);
        let mean = n as f64 / DEFAULT_SHARDS as f64;
        for (i, size) in sizes.iter().enumerate() {
            let off = (*size as f64 - mean).abs() / mean;
            assert!(
                off <= 0.25,
                "shard {i} holds {size}, mean {mean}: {sizes:?}"
            );
        }
    }

    #[test]
    fn abort_after_a_racing_publish_keeps_the_value() {
        let cache: SolvedPointCache<f64> = SolvedPointCache::new();
        assert!(matches!(cache.begin(key(4)), Admission::Claimed));
        cache.publish(key(4), 4.0);
        cache.abort(&key(4));
        assert_eq!(cache.get(&key(4)), Some(4.0));
        assert_eq!(cache.len(), 1);
        assert!(matches!(cache.begin(key(4)), Admission::Hit(v) if v == 4.0));
    }

    #[test]
    fn insert_over_a_pending_key_wakes_its_waiters_with_the_value() {
        let cache: SolvedPointCache<f64> = SolvedPointCache::new();
        assert!(matches!(cache.begin(key(5)), Admission::Claimed));
        let flight = match cache.begin(key(5)) {
            Admission::Shared(flight) => flight,
            other => panic!("expected to share the flight, got {other:?}"),
        };
        thread::scope(|scope| {
            let waiter = scope.spawn(|| flight.wait());
            cache.insert(key(5), 5.0);
            assert_eq!(waiter.join().unwrap(), Some(5.0));
        });
        assert_eq!(cache.get(&key(5)), Some(5.0));
        // The claim is retired: a late abort from the claimant is a no-op.
        cache.abort(&key(5));
        assert_eq!(cache.get(&key(5)), Some(5.0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn get_on_a_pending_key_is_a_miss_and_does_not_block() {
        let cache: SolvedPointCache<f64> = SolvedPointCache::new();
        assert!(matches!(cache.begin(key(6)), Admission::Claimed));
        let (tx, rx) = std::sync::mpsc::channel();
        thread::scope(|scope| {
            scope.spawn(|| tx.send(cache.get(&key(6))).unwrap());
            let got = rx
                .recv_timeout(Duration::from_secs(5))
                .expect("get returned while the claim was pending");
            assert_eq!(got, None);
        });
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.coalesced), (0, 2, 0));
        cache.publish(key(6), 6.0);
        assert_eq!(cache.get(&key(6)), Some(6.0));
    }

    #[test]
    fn len_counts_ready_and_in_flight_entries() {
        let cache: SolvedPointCache<f64> = SolvedPointCache::new();
        assert!(cache.is_empty());
        cache.insert(key(1), 1.0);
        cache.insert(key(2), 2.0);
        assert!(matches!(cache.begin(key(3)), Admission::Claimed));
        assert!(matches!(cache.begin(key(4)), Admission::Claimed));
        assert_eq!(cache.len(), 4);
        cache.publish(key(3), 3.0);
        assert_eq!(cache.len(), 4);
        cache.abort(&key(4));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn single_flight_coalesces_concurrent_identical_queries() {
        let cache: SolvedPointCache<f64> = SolvedPointCache::new();
        let solves = AtomicUsize::new(0);
        let threads = 8;
        thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| match cache.begin(key(7)) {
                    Admission::Hit(v) => assert_eq!(v, 7.0),
                    Admission::Claimed => {
                        solves.fetch_add(1, Ordering::SeqCst);
                        // Hold the claim long enough that peers arrive.
                        thread::sleep(Duration::from_millis(20));
                        cache.publish(key(7), 7.0);
                    }
                    Admission::Shared(flight) => {
                        assert_eq!(flight.wait(), Some(7.0));
                    }
                });
            }
        });
        assert_eq!(solves.load(Ordering::SeqCst), 1, "exactly one solve");
        assert_eq!(cache.get(&key(7)), Some(7.0));
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits + s.coalesced + 1, threads + 1, "everyone answered");
    }

    #[test]
    fn abort_wakes_waiters_empty_handed() {
        let cache: SolvedPointCache<f64> = SolvedPointCache::new();
        assert!(matches!(cache.begin(key(3)), Admission::Claimed));
        thread::scope(|scope| {
            let waiter = scope.spawn(|| match cache.begin(key(3)) {
                Admission::Shared(flight) => flight.wait(),
                other => panic!("expected to share the flight, got {other:?}"),
            });
            thread::sleep(Duration::from_millis(10));
            cache.abort(&key(3));
            assert_eq!(waiter.join().unwrap(), None);
        });
        // The key is free again: the next admission re-claims it.
        assert!(matches!(cache.begin(key(3)), Admission::Claimed));
        cache.publish(key(3), 3.0);
        assert_eq!(cache.get(&key(3)), Some(3.0));
    }

    #[test]
    fn wait_for_times_out_on_a_stuck_claimant() {
        let cache: SolvedPointCache<f64> = SolvedPointCache::new();
        assert!(matches!(cache.begin(key(9)), Admission::Claimed));
        let flight = match cache.begin(key(9)) {
            Admission::Shared(f) => f,
            other => panic!("expected shared, got {other:?}"),
        };
        assert_eq!(flight.wait_for(Duration::from_millis(20)), None);
    }

    #[test]
    fn a_panicking_claimant_does_not_wedge_the_shard() {
        // The non-poisoning locks at work: a thread that panics while
        // touching a shard leaves it usable. (The claimant's pending
        // slot is cleaned up by abort, as the serve worker's panic
        // handler does.)
        let cache: SolvedPointCache<f64> = SolvedPointCache::with_shards(1);
        cache.insert(key(1), 1.0);
        thread::scope(|scope| {
            let t = scope.spawn(|| {
                match cache.begin(key(2)) {
                    Admission::Claimed => (),
                    other => panic!("expected claim, got {other:?}"),
                }
                panic!("worker dies while its claim is pending");
            });
            assert!(t.join().is_err());
        });
        // Shard still answers; supervisor aborts the orphaned claim.
        assert_eq!(cache.get(&key(1)), Some(1.0));
        cache.abort(&key(2));
        assert!(matches!(cache.begin(key(2)), Admission::Claimed));
        cache.publish(key(2), 2.0);
        assert_eq!(cache.get(&key(2)), Some(2.0));
    }

    #[test]
    fn a_claim_carries_a_flight_only_once_a_second_caller_shares_it() {
        let cache: SolvedPointCache<f64> = SolvedPointCache::with_shards(1);
        let pending = |cache: &SolvedPointCache<f64>| {
            cache.shards[0]
                .lock()
                .flights
                .get(&key(8))
                .map(Option::is_some)
        };
        assert!(matches!(cache.begin(key(8)), Admission::Claimed));
        assert_eq!(pending(&cache), Some(false), "a lone claim has no flight");
        let flight = match cache.begin(key(8)) {
            Admission::Shared(flight) => flight,
            other => panic!("expected to share the claim, got {other:?}"),
        };
        assert_eq!(pending(&cache), Some(true));
        assert!(matches!(cache.begin(key(8)), Admission::Shared(f) if Arc::ptr_eq(&f, &flight)));
        cache.publish(key(8), 8.0);
        assert_eq!(pending(&cache), None);
        assert_eq!(flight.wait(), Some(8.0));
    }

    /// A cache with `ready` keys solved and `claimed` keys claimed by
    /// some other caller. Its hash seed is fixed, so two such caches
    /// place every key in the same shard: whether a shard has pending
    /// claims decides a publish's probe count.
    fn seeded(shards: usize, ready: &[u64], claimed: &[u64]) -> SolvedPointCache<u64> {
        let cache = SolvedPointCache::with_shards_and_hasher(shards, PointHashState { seed: 7 });
        for &i in ready {
            cache.insert(key(i), i * 10);
        }
        for &i in claimed {
            let _ = cache.begin(key(i));
        }
        cache
    }

    /// Each admission's kind and hit value; for a shared flight, what a
    /// waiter would read from it now.
    fn outcomes(admissions: &[Admission<u64>]) -> Vec<(&'static str, Option<u64>)> {
        admissions
            .iter()
            .map(|a| match a {
                Admission::Hit(v) => ("hit", Some(*v)),
                Admission::Claimed => ("claimed", None),
                Admission::Shared(flight) => ("shared", flight.wait_for(Duration::ZERO)),
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn batch_calls_equal_a_loop_of_scalar_calls(
            one_shard in proptest::bool::ANY,
            ready in proptest::collection::vec(0u64..32, 0..12),
            claimed in proptest::collection::vec(0u64..32, 0..12),
            admitted in proptest::collection::vec(0u64..32, 0..48),
            published in proptest::collection::vec((0u64..32, 0u64..1000), 0..24),
            aborted in proptest::collection::vec(0u64..32, 0..24),
        ) {
            let shards = if one_shard { 1 } else { DEFAULT_SHARDS };
            let batch = seeded(shards, &ready, &claimed);
            let scalar = seeded(shards, &ready, &claimed);
            proptest::prop_assert_eq!(batch.stats(), scalar.stats());

            let keys: Vec<PointKey> = admitted.iter().map(|&i| key(i)).collect();
            let got = batch.begin_many(&keys);
            let want: Vec<Admission<u64>> = keys.iter().map(|&k| scalar.begin(k)).collect();
            proptest::prop_assert_eq!(outcomes(&got), outcomes(&want));
            proptest::prop_assert_eq!(batch.stats(), scalar.stats());

            let (keys, values): (Vec<PointKey>, Vec<u64>) =
                published.iter().map(|&(i, v)| (key(i), v)).unzip();
            batch.publish_many(&keys, &values);
            for (k, v) in keys.iter().zip(&values) {
                scalar.publish(*k, *v);
            }
            proptest::prop_assert_eq!(batch.stats(), scalar.stats());

            let keys: Vec<PointKey> = aborted.iter().map(|&i| key(i)).collect();
            batch.abort_many(&keys);
            for k in &keys {
                scalar.abort(k);
            }
            proptest::prop_assert_eq!(batch.stats(), scalar.stats());

            // Every shared flight was resolved alike, and both caches
            // hold the same entries.
            proptest::prop_assert_eq!(outcomes(&got), outcomes(&want));
            proptest::prop_assert_eq!(batch.len(), scalar.len());
            for i in 0..32 {
                proptest::prop_assert_eq!(batch.get(&key(i)), scalar.get(&key(i)), "key {}", i);
            }
        }
    }

    fn shards_spanned(cache: &SolvedPointCache<u64>, keys: &[PointKey]) -> usize {
        let mut spanned: Vec<usize> = keys.iter().map(|k| cache.shard_index(k)).collect();
        spanned.sort_unstable();
        spanned.dedup();
        spanned.len()
    }

    #[test]
    fn overlapping_batches_race_and_every_shared_waiter_gets_the_published_value() {
        let cache: SolvedPointCache<u64> = SolvedPointCache::new();
        let sets: [Vec<PointKey>; 2] = [(0..48).map(key).collect(), (16..64).map(key).collect()];
        let overlap: Vec<PointKey> = (16..48).map(key).collect();
        assert!(shards_spanned(&cache, &overlap) >= 8);
        // Both claim sets are pending at once, so each overlapping key
        // is claimed by one thread and shared by the other.
        let admitted = Barrier::new(2);
        let counts: Vec<(usize, usize)> = thread::scope(|scope| {
            let handles: Vec<_> = sets
                .iter()
                .map(|keys| {
                    let (cache, admitted) = (&cache, &admitted);
                    scope.spawn(move || {
                        let admissions = cache.begin_many(keys);
                        admitted.wait();
                        let (claimed, values): (Vec<PointKey>, Vec<u64>) = keys
                            .iter()
                            .zip(&admissions)
                            .filter(|(_, a)| matches!(a, Admission::Claimed))
                            .map(|(k, _)| (*k, k.think * 10))
                            .unzip();
                        cache.publish_many(&claimed, &values);
                        let mut shared = 0;
                        for (k, admission) in keys.iter().zip(admissions) {
                            if let Admission::Shared(flight) = admission {
                                assert_eq!(flight.wait(), Some(k.think * 10), "{k:?}");
                                shared += 1;
                            }
                        }
                        (claimed.len(), shared)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let claimed: usize = counts.iter().map(|c| c.0).sum();
        let shared: usize = counts.iter().map(|c| c.1).sum();
        assert_eq!((claimed, shared), (64, 32));
        for i in 0..64 {
            assert_eq!(cache.get(&key(i)), Some(i * 10), "key {i}");
        }
        let s = cache.stats();
        assert_eq!((s.misses, s.coalesced, s.inserts), (64, 32, 64));
    }

    #[test]
    fn abort_many_across_shards_wakes_every_waiter_empty_handed() {
        let cache: SolvedPointCache<u64> = SolvedPointCache::new();
        let keys: Vec<PointKey> = (0..40).map(key).collect();
        assert!(shards_spanned(&cache, &keys) >= 8);
        let claimed = cache.begin_many(&keys);
        assert!(claimed.iter().all(|a| matches!(a, Admission::Claimed)));
        let waiters = 3;
        let admitted = Barrier::new(waiters + 1);
        thread::scope(|scope| {
            let handles: Vec<_> = (0..waiters)
                .map(|_| {
                    scope.spawn(|| {
                        let flights: Vec<Arc<Flight<u64>>> = cache
                            .begin_many(&keys)
                            .into_iter()
                            .map(|a| match a {
                                Admission::Shared(flight) => flight,
                                other => panic!("expected to share the claim, got {other:?}"),
                            })
                            .collect();
                        admitted.wait();
                        flights.iter().map(|f| f.wait()).collect::<Vec<_>>()
                    })
                })
                .collect();
            admitted.wait();
            cache.abort_many(&keys);
            for handle in handles {
                assert!(handle.join().unwrap().iter().all(Option::is_none));
            }
        });
        assert!(cache.is_empty());
        let reclaimed = cache.begin_many(&keys);
        assert!(reclaimed.iter().all(|a| matches!(a, Admission::Claimed)));
    }

    #[test]
    fn concurrent_mixed_load_is_consistent() {
        let cache: SolvedPointCache<u64> = SolvedPointCache::with_shards(8);
        let keys: u64 = 64;
        thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = &cache;
                scope.spawn(move || {
                    for round in 0..200u64 {
                        let i = (t * 31 + round) % keys;
                        match cache.begin(key(i)) {
                            Admission::Hit(v) => assert_eq!(v, i * 10),
                            Admission::Claimed => cache.publish(key(i), i * 10),
                            Admission::Shared(f) => {
                                if let Some(v) = f.wait() {
                                    assert_eq!(v, i * 10);
                                }
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(cache.len(), keys as usize);
        for i in 0..keys {
            assert_eq!(cache.get(&key(i)), Some(i * 10), "key {i}");
        }
    }
}
