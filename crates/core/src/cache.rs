//! Sharded concurrent solved-point cache with single-flight admission.
//!
//! The contention solves are pure functions of a handful of `f64` bit
//! patterns: a machine-repairman `waiting` depends only on
//! `(service, think, processors)`, a Patel operating point only on
//! `(rate, size, stages)`. Memoizing them turns a ~µs solve into a
//! ~40 ns lookup, which is what makes interactive query serving
//! ([ROADMAP item 1]) viable. This module generalizes the memo that
//! [`crate::sensitivity`] carried privately (an O(n) linear scan over a
//! `Vec`) into a shared structure that is:
//!
//! * **Sharded** — N independently locked shards, so concurrent server
//!   threads rarely contend; the shard index is taken from bits 32 and
//!   up of the key's hash (see [`PointHashState`]).
//! * **Hashed** — each shard holds two hash maps: `ready` for solved
//!   values and `flights` for claims still being solved. Every
//!   operation consults at most both maps once, so admitting a miss
//!   costs the same in an empty cache as in one holding 10⁵ points. A
//!   probe counter in [`CacheStats`] counts those hash-table lookups and
//!   lets tests pin the constant, so neither the old linear scan nor a
//!   search that grows with the shard can quietly come back.
//! * **Single-flight** — [`begin`](SolvedPointCache::begin) returns
//!   [`Admission::Claimed`] to exactly one caller per missing key;
//!   concurrent identical queries get [`Admission::Shared`] and block
//!   on the claimant's [`Flight`] instead of re-solving. The claimant
//!   [`publish`](SolvedPointCache::publish)es the value (or
//!   [`abort`](SolvedPointCache::abort)s on failure, waking waiters
//!   empty-handed so they can fall back to solving themselves).
//!
//! Locks are the non-poisoning [`swcc_obs::sync`] wrappers: a worker
//! that panics mid-insert leaves a valid (merely smaller) shard behind
//! rather than wedging every later lookup.
//!
//! Keys are *bit patterns*, not floats: two demands hash and compare
//! equal exactly when their inputs are bit-identical, which is the same
//! criterion under which the batch engines ([`crate::batch`]) are
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
/// queueing inputs (for the network model: transaction size and rate).
/// `scheme` and `machine` are small discriminant tags chosen by the
/// caller; [`PointKey::SHARED_SCHEME`] is reserved for values that are
/// scheme-invariant (e.g. bus `waiting`, which depends on the demand
/// alone), letting any scheme's solve fill the cache for every scheme —
/// the sharing property the sensitivity memo relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PointKey {
    /// Bit pattern of the service-time-like input (`b` / transaction size).
    pub service: u64,
    /// Bit pattern of the think-time-like input (`c − b` / rate).
    pub think: u64,
    /// Scheme discriminant, or [`PointKey::SHARED_SCHEME`].
    pub scheme: u32,
    /// Machine discriminant (bus processor count, network stage tag, …).
    pub machine: u32,
}

impl PointKey {
    /// Scheme tag for values that do not depend on the scheme beyond
    /// what the other key fields already capture.
    pub const SHARED_SCHEME: u32 = 0;
}

/// Builds [`PointHasher`]s: the cheap, seeded hasher for [`PointKey`]
/// maps and sets.
///
/// The state starts from a seed drawn once per instance from
/// [`RandomState`]. Each float-bits word is folded in by an xor, a
/// multiply and a rotate; the two `u32` tags are xored in; `finish`
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

impl Default for PointHashState {
    fn default() -> Self {
        Self::new()
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
        // A key's two tags in a row xor in `scheme << 32 | machine`.
        self.0 = self.0.rotate_left(32) ^ u64::from(word);
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
    /// [`publish`](SolvedPointCache::publish) it (or
    /// [`abort`](SolvedPointCache::abort) on failure). Until then every
    /// other caller for the same key is parked on the flight.
    Claimed,
    /// Another caller is already solving this key; wait on the flight.
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

    /// Blocks until the claimant publishes or aborts. `None` means the
    /// solve was abandoned and the caller should solve for itself.
    pub fn wait(&self) -> Option<V> {
        let guard = self
            .ready
            .wait_while(self.state.lock(), |s| matches!(s, FlightState::Solving));
        match *guard {
            FlightState::Done(v) => Some(v),
            FlightState::Aborted => None,
            FlightState::Solving => unreachable!("wait_while exits only on a terminal state"),
        }
    }

    /// Like [`wait`](Flight::wait) but gives up after `timeout`.
    /// `None` also covers the timeout case — from the waiter's view an
    /// overdue solve and an abandoned one call for the same fallback.
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
    /// Claims still being solved; empty whenever no solve is running.
    flights: HashMap<PointKey, Arc<Flight<V>>, PointHashState>,
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

impl<V: Copy> Default for SolvedPointCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy> SolvedPointCache<V> {
    /// A cache with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// A cache with at least `shards` shards (rounded up to a power of
    /// two so the shard index is a mask, not a division). Empty shards
    /// allocate nothing.
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        let hasher = PointHashState::new();
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

    fn shard(&self, key: &PointKey) -> &Mutex<Shard<V>> {
        let h = self.hasher.hash_one(key);
        &self.shards[(h >> 32) as usize & (self.shards.len() - 1)]
    }

    fn count(&self, counter: &AtomicU64, probes: u64) {
        counter.fetch_add(1, Ordering::Relaxed);
        self.probes.fetch_add(probes, Ordering::Relaxed);
    }

    /// Looks up a solved value. Pending (in-flight) keys read as
    /// misses: `get` never blocks.
    pub fn get(&self, key: &PointKey) -> Option<V> {
        let value = self.shard(key).lock().ready.get(key).copied();
        let outcome = if value.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        self.count(outcome, 1);
        value
    }

    /// Inserts (or overwrites) a solved value, resolving any waiters
    /// parked on the key.
    pub fn insert(&self, key: PointKey, value: V) {
        let (flight, probes) = {
            let mut shard = self.shard(&key).lock();
            shard.ready.insert(key, value);
            if shard.flights.is_empty() {
                (None, 1)
            } else {
                (shard.flights.remove(&key), 2)
            }
        };
        self.count(&self.inserts, probes);
        if let Some(f) = flight {
            f.resolve(FlightState::Done(value));
        }
    }

    /// Admission with single-flight coalescing: exactly one concurrent
    /// caller per missing key is told [`Admission::Claimed`]; the rest
    /// share that claimant's [`Flight`].
    pub fn begin(&self, key: PointKey) -> Admission<V> {
        let mut shard = self.shard(&key).lock();
        if let Some(v) = shard.ready.get(&key) {
            let v = *v;
            drop(shard);
            self.count(&self.hits, 1);
            return Admission::Hit(v);
        }
        let (admission, outcome) = match shard.flights.entry(key) {
            Entry::Occupied(flight) => {
                (Admission::Shared(Arc::clone(flight.get())), &self.coalesced)
            }
            Entry::Vacant(slot) => {
                slot.insert(Arc::new(Flight::new()));
                (Admission::Claimed, &self.misses)
            }
        };
        drop(shard);
        self.count(outcome, 2);
        admission
    }

    /// Fulfills a [`Admission::Claimed`] admission. Equivalent to
    /// [`insert`](SolvedPointCache::insert); the separate name marks
    /// the single-flight protocol in calling code.
    pub fn publish(&self, key: PointKey, value: V) {
        self.insert(key, value);
    }

    /// Abandons a claimed solve: removes the pending claim and wakes its
    /// waiters empty-handed. Call this on the error/panic path of a
    /// claimant so coalesced queries fall back to solving for
    /// themselves instead of blocking forever. A publish that won the
    /// race has already retired the claim, so its value stays.
    pub fn abort(&self, key: &PointKey) {
        let flight = self.shard(key).lock().flights.remove(key);
        self.probes.fetch_add(1, Ordering::Relaxed);
        if let Some(f) = flight {
            f.resolve(FlightState::Aborted);
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

    /// True when no entry (solved or in-flight) exists.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    fn key(i: u64) -> PointKey {
        PointKey {
            service: i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            think: i,
            scheme: PointKey::SHARED_SCHEME,
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
            scheme: 1,
            machine: 16,
        };
        cache.insert(base, 1.0);
        for variant in [
            PointKey {
                service: 11,
                ..base
            },
            PointKey { think: 21, ..base },
            PointKey { scheme: 2, ..base },
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
                scheme: PointKey::SHARED_SCHEME,
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
