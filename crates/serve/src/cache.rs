//! The schedule cache: full-problem identity in, scheduling work out.
//!
//! Entries live under the [`BroadcastProblem::content_digest`] — a 64-bit
//! word-at-a-time digest over the root, the payload and the bit pattern of
//! every entry of the latency/gap/intra matrices. The grid alone is **not** a
//! key: the same topology broadcast from a different root or with a different
//! payload is a different problem and caching it under the grid would serve
//! wrong answers. And because a 64-bit digest is an index rather than a
//! proof, every lookup re-verifies **bitwise problem identity**
//! ([`BroadcastProblem::bit_identical`], the same identity the digest hashes)
//! against the stored problem before serving; distinct problems that happen
//! to collide coexist in one bucket.
//!
//! A second, exact index finds an entry from the request that created it,
//! without building the problem at all. Its `RequestKey` holds everything
//! a request's problem depends on when the grid is named rather than sent:
//! the grid (a built-in topology's name, or a Table 2 grid's `clusters`,
//! `seed` and `cluster_size`), the root, the payload and the perturbation
//! chain in order, every float by its bit pattern. Equal keys build
//! bit-identical problems, so a key names exactly one problem. Each entry
//! carries at most the one key that created it, and evicting the entry drops
//! the key, so the index never holds more keys than the cache holds entries.
//! Everything else goes through content identity: inline grids (they have no
//! key), a problem reached through a request form other than the one that
//! created its entry (a Table 2 grid sent inline, a factor-1 chain that
//! leaves the base problem), and every insert.
//!
//! Cold runs store their per-heuristic [`CommitLog`]s. A later request for a
//! *perturbed neighbour* of a cached problem (one degraded link, a slowed
//! site) finds the baseline — by the request's key with the chain removed,
//! or else through the unperturbed problem's digest — and warm-replays the
//! logs under the perturbation delta instead of scheduling from scratch:
//! the serving counterpart of the what-if runner's warm sweep, with the
//! engine's bit-identity invariant carrying over unchanged.

use gridcast_core::{BroadcastProblem, CommitLog, HeuristicKind, Perturbation, ScheduleEvent};
use gridcast_plogp::{MessageSize, Time};
use gridcast_topology::ClusterId;
use std::collections::hash_map::{self, HashMap};
use std::sync::Arc;

/// How a response was produced, as reported on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served entirely from the cache.
    Hit,
    /// Scheduled by warm-replaying a cached neighbour's commit logs.
    Warm,
    /// Scheduled from scratch.
    Cold,
}

impl CacheOutcome {
    /// The wire label (`"hit"`, `"warm"`, `"cold"`).
    pub fn label(&self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Warm => "warm",
            CacheOutcome::Cold => "cold",
        }
    }
}

/// A grid the daemon builds from its name: a built-in topology, or a Table 2
/// grid generated from its parameters. Inline grids have none.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum GridKey {
    /// A named built-in topology.
    Named(String),
    /// A generated Table 2 grid.
    Table2 {
        /// Number of clusters.
        clusters: usize,
        /// RNG seed.
        seed: u64,
        /// Machines per cluster.
        cluster_size: u32,
    },
}

/// Everything the problem of a request on a [`GridKey`] grid depends on: the
/// grid, the root, the payload and the perturbation chain in order, each
/// float by its bit pattern. The request's id, flags and heuristic pin are
/// not part of it — they choose what to render from an entry, not which
/// entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct RequestKey {
    grid: GridKey,
    root: ClusterId,
    payload: MessageSize,
    /// The chain as words: per perturbation a tag, then its fields in
    /// declaration order, floats by [`f64::to_bits`].
    chain: Box<[u64]>,
}

impl RequestKey {
    /// The key of a request for `grid` from `root` with `payload` under
    /// `chain`.
    pub(crate) fn new(
        grid: GridKey,
        root: ClusterId,
        payload: MessageSize,
        chain: &[Perturbation],
    ) -> Self {
        let id = |c: ClusterId| c.index() as u64;
        let bits = f64::to_bits;
        let mut words = Vec::with_capacity(4 * chain.len());
        for p in chain {
            match *p {
                Perturbation::ScaleAllLinks { factor } => words.extend([0, bits(factor)]),
                Perturbation::DegradeUplink { cluster, factor } => {
                    words.extend([1, id(cluster), bits(factor)])
                }
                Perturbation::DegradeLink { from, to, factor } => {
                    words.extend([2, id(from), id(to), bits(factor)])
                }
                Perturbation::DegradeSite {
                    first,
                    span,
                    factor,
                } => words.extend([3, id(first), span as u64, bits(factor)]),
                Perturbation::TimeVaryingCapacity {
                    from,
                    to,
                    factor,
                    from_time,
                    until,
                } => words.extend([
                    4,
                    id(from),
                    id(to),
                    bits(factor),
                    bits(from_time.as_secs()),
                    bits(until.as_secs()),
                ]),
                Perturbation::DropRelay { cluster } => words.extend([5, id(cluster)]),
                Perturbation::AlternateRoot { root } => words.extend([6, id(root)]),
            }
        }
        RequestKey {
            grid,
            root,
            payload,
            chain: words.into_boxed_slice(),
        }
    }

    /// The key of the same request without its perturbation chain: the key
    /// of the warm-start base a perturbed request replays from.
    pub(crate) fn base(&self) -> RequestKey {
        RequestKey {
            grid: self.grid.clone(),
            root: self.root,
            payload: self.payload,
            chain: Box::default(),
        }
    }
}

/// One materialised schedule of a cached problem: the chosen heuristic's
/// events plus, when a request asked for execution, the simulated completion
/// and event count.
#[derive(Debug, Clone)]
pub struct ScheduleRecord {
    /// Inter-cluster transfer events, in commit order.
    pub events: Vec<ScheduleEvent>,
    /// Simulated `(completion, events_processed)`, filled on first execute.
    pub simulated: Option<(Time, usize)>,
}

/// Everything cached for one problem identity.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The full problem, kept for digest-collision verification.
    pub problem: BroadcastProblem,
    /// Predicted makespans, one per [`HeuristicKind::all`] slot.
    pub makespans: Vec<Time>,
    /// Materialised schedules per heuristic slot (filled on demand).
    pub records: Vec<Option<ScheduleRecord>>,
    /// Commit logs per slot from a cold run — the warm-start baseline for
    /// perturbed neighbours. `None` when the entry was itself produced by a
    /// warm replay (its baseline lives elsewhere).
    pub logs: Option<Arc<Vec<CommitLog>>>,
    /// Recency stamp maintained by [`ScheduleCache`]: the cache's logical
    /// clock at the entry's last insert or lookup.
    last_used: u64,
    /// The key of the request that created the entry, when it had one and
    /// no other entry held it; indexed by [`ScheduleCache`].
    key: Option<RequestKey>,
}

impl CacheEntry {
    /// An entry with predicted makespans and no materialised schedules yet.
    pub fn new(
        problem: BroadcastProblem,
        makespans: Vec<Time>,
        logs: Option<Arc<Vec<CommitLog>>>,
    ) -> Self {
        assert_eq!(makespans.len(), HeuristicKind::COUNT);
        let records = (0..HeuristicKind::COUNT).map(|_| None).collect();
        CacheEntry {
            problem,
            makespans,
            records,
            logs,
            last_used: 0,
            key: None,
        }
    }
}

/// A bounded LRU cache from problem identity to [`CacheEntry`], with
/// warm-start bases pinned and an index from request keys to the entries
/// their requests created.
///
/// Every lookup and insert stamps the entry with a logical clock, and
/// eviction removes the least-recently-used entry — but in two tiers:
/// entries **without** commit logs (produced by a warm replay; cheap to
/// recompute, never warm-started from) are evicted first, and entries
/// **holding** cold-run [`CommitLog`]s — the warm-start bases every perturbed
/// neighbour replays from, each such replay re-stamping the base through its
/// lookup — only start competing (by recency, among themselves) once no
/// unpinned entry is left. A flood of replay-produced entries therefore can
/// never push out a warm base, and a flood of fresh cold problems only
/// displaces bases that stopped being used.
///
/// The victim scan is `O(len)`, paid only on insertions past capacity;
/// serving-cache capacities are small enough (hundreds) that the scan is
/// noise next to the scheduling work an eviction implies, and the choice is
/// deterministic (stamps are unique), preserving the daemon's bit-identical
/// transcript invariant.
#[derive(Debug)]
pub struct ScheduleCache {
    capacity: usize,
    buckets: HashMap<u64, Vec<CacheEntry>>,
    /// The request-key index: each indexed key to the digest its entry is
    /// stored under. Holds exactly the keys the cached entries carry.
    keys: HashMap<RequestKey, u64>,
    tick: u64,
    len: usize,
}

impl ScheduleCache {
    /// An empty cache holding at most `capacity` entries (capacity 0 caches
    /// nothing and every lookup misses).
    pub fn new(capacity: usize) -> Self {
        ScheduleCache {
            capacity,
            buckets: HashMap::new(),
            keys: HashMap::new(),
            tick: 0,
            len: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up the entry for `problem`, verifying bitwise identity — a
    /// digest collision between distinct problems misses (or finds its own
    /// co-resident entry) instead of serving the wrong schedule. A hit
    /// refreshes the entry's recency stamp (warm-starting from a base goes
    /// through here, which is what keeps hot bases resident).
    pub fn get_mut(&mut self, digest: u64, problem: &BroadcastProblem) -> Option<&mut CacheEntry> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self
            .buckets
            .get_mut(&digest)?
            .iter_mut()
            .find(|e| e.problem.bit_identical(problem))?;
        entry.last_used = tick;
        Some(entry)
    }

    /// The entry the request with `key` created, and the digest it is
    /// stored under, without building or comparing a problem. A hit
    /// refreshes the entry's recency stamp exactly as [`Self::get_mut`]
    /// does.
    pub(crate) fn get_mut_by_key(&mut self, key: &RequestKey) -> Option<(u64, &mut CacheEntry)> {
        self.tick += 1;
        let digest = *self.keys.get(key)?;
        let entry = self
            .buckets
            .get_mut(&digest)?
            .iter_mut()
            .find(|e| e.key.as_ref() == Some(key))?;
        entry.last_used = self.tick;
        Some((digest, entry))
    }

    /// The entry the request with `key` created, leaving its recency stamp
    /// as it is.
    pub(crate) fn peek_by_key(&self, key: &RequestKey) -> Option<&CacheEntry> {
        self.buckets
            .get(self.keys.get(key)?)?
            .iter()
            .find(|e| e.key.as_ref() == Some(key))
    }

    /// Inserts an entry under `digest`, evicting per the two-tier LRU rule
    /// once over capacity. The caller has already checked no equal entry
    /// exists.
    pub fn insert(&mut self, digest: u64, entry: CacheEntry) {
        self.insert_keyed(digest, None, entry);
    }

    /// [`Self::insert`] for an entry created by a request with `key`: the
    /// entry carries the key and the index finds it by the key, unless
    /// another entry already holds it.
    pub(crate) fn insert_keyed(
        &mut self,
        digest: u64,
        key: Option<RequestKey>,
        mut entry: CacheEntry,
    ) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        entry.last_used = self.tick;
        if let Some(key) = key {
            if let hash_map::Entry::Vacant(slot) = self.keys.entry(key) {
                entry.key = Some(slot.key().clone());
                slot.insert(digest);
            }
        }
        self.buckets.entry(digest).or_default().push(entry);
        self.len += 1;
        while self.len > self.capacity {
            self.evict_one();
        }
    }

    /// Removes the least-recently-used entry, preferring unpinned (log-less)
    /// entries over warm-start bases: lexicographic minimum of
    /// `(holds_logs, last_used)`. Stamps are unique, so the victim is
    /// deterministic regardless of bucket iteration order. The victim's key
    /// leaves the index with it.
    fn evict_one(&mut self) {
        let mut victim: Option<(u64, usize, (bool, u64))> = None;
        for (&digest, bucket) in &self.buckets {
            for (i, e) in bucket.iter().enumerate() {
                let rank = (e.logs.is_some(), e.last_used);
                if victim.is_none_or(|(_, _, best)| rank < best) {
                    victim = Some((digest, i, rank));
                }
            }
        }
        let (digest, slot, _) = victim.expect("eviction runs only on a non-empty cache");
        let bucket = self.buckets.get_mut(&digest).expect("victim bucket exists");
        let evicted = bucket.remove(slot);
        if bucket.is_empty() {
            self.buckets.remove(&digest);
        }
        if let Some(key) = evicted.key {
            self.keys.remove(&key);
        }
        self.len -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridcast_topology::GridGenerator;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn problem(seed: u64) -> BroadcastProblem {
        let grid = GridGenerator::table2()
            .cluster_size(4)
            .generate(5, &mut ChaCha8Rng::seed_from_u64(seed));
        BroadcastProblem::from_grid(&grid, ClusterId(0), MessageSize::from_mib(1))
    }

    fn entry(p: &BroadcastProblem) -> CacheEntry {
        CacheEntry::new(
            p.clone(),
            vec![Time::from_millis(1.0); HeuristicKind::COUNT],
            None,
        )
    }

    /// An entry as a cold run produces it: commit logs attached, making it a
    /// warm-start base.
    fn base_entry(p: &BroadcastProblem) -> CacheEntry {
        CacheEntry::new(
            p.clone(),
            vec![Time::from_millis(1.0); HeuristicKind::COUNT],
            Some(Arc::new(Vec::new())),
        )
    }

    /// The key of the request whose problem is `problem(seed)`.
    fn key(seed: u64) -> RequestKey {
        let grid = GridKey::Table2 {
            clusters: 5,
            seed,
            cluster_size: 4,
        };
        RequestKey::new(grid, ClusterId(0), MessageSize::from_mib(1), &[])
    }

    /// Inserts `problem(seed)` under its key.
    fn insert_keyed(
        cache: &mut ScheduleCache,
        seed: u64,
        entry: fn(&BroadcastProblem) -> CacheEntry,
    ) {
        let p = problem(seed);
        cache.insert_keyed(p.content_digest(), Some(key(seed)), entry(&p));
    }

    /// Every indexed key belongs to exactly one cached entry, which carries
    /// it, so the index never outgrows the cache.
    fn assert_index_consistent(cache: &ScheduleCache) {
        assert!(cache.keys.len() <= cache.len());
        let carried: Vec<&RequestKey> = cache
            .buckets
            .values()
            .flatten()
            .filter_map(|e| e.key.as_ref())
            .collect();
        assert_eq!(carried.len(), cache.keys.len());
        for k in carried {
            let entry = cache.peek_by_key(k).expect("a carried key is indexed");
            assert_eq!(entry.key.as_ref(), Some(k));
        }
    }

    #[test]
    fn keyed_lookup_refreshes_recency_exactly_as_get_mut_does() {
        // The same sequence, touching the older entry through each lookup:
        // the survivors must agree, and a peek must not count as a touch.
        let survivors = |touch: &dyn Fn(&mut ScheduleCache)| {
            let mut cache = ScheduleCache::new(2);
            insert_keyed(&mut cache, 0, entry);
            insert_keyed(&mut cache, 1, entry);
            touch(&mut cache);
            insert_keyed(&mut cache, 2, entry);
            (0..3)
                .map(|seed| cache.peek_by_key(&key(seed)).is_some())
                .collect::<Vec<_>>()
        };
        let p0 = problem(0);
        let by_content = survivors(&|c| assert!(c.get_mut(p0.content_digest(), &p0).is_some()));
        let by_key = survivors(&|c| assert!(c.get_mut_by_key(&key(0)).is_some()));
        let peeked = survivors(&|c| assert!(c.peek_by_key(&key(0)).is_some()));
        assert_eq!(by_content, [true, false, true]);
        assert_eq!(by_key, by_content);
        assert_eq!(peeked, [false, true, true]);
    }

    #[test]
    fn keyed_lookup_finds_the_entry_its_key_created() {
        let mut cache = ScheduleCache::new(8);
        insert_keyed(&mut cache, 1, entry);
        let p = problem(1);
        let (digest, found) = cache.get_mut_by_key(&key(1)).expect("keyed entry");
        assert_eq!(digest, p.content_digest());
        assert!(found.problem.bit_identical(&p));
        assert!(cache.get_mut_by_key(&key(2)).is_none());
        // An entry inserted without a key is found by its content only.
        let q = problem(2);
        cache.insert(q.content_digest(), entry(&q));
        assert!(cache.get_mut_by_key(&key(2)).is_none());
        assert!(cache.get_mut(q.content_digest(), &q).is_some());
    }

    #[test]
    fn eviction_removes_the_key() {
        let mut cache = ScheduleCache::new(1);
        insert_keyed(&mut cache, 0, entry);
        insert_keyed(&mut cache, 1, entry);
        assert_eq!(cache.len(), 1);
        assert!(cache.get_mut_by_key(&key(0)).is_none());
        assert!(cache.peek_by_key(&key(0)).is_none());
        assert!(cache.get_mut_by_key(&key(1)).is_some());
        assert_index_consistent(&cache);
        // The evicted problem comes back under its key.
        insert_keyed(&mut cache, 0, entry);
        assert!(cache.get_mut_by_key(&key(0)).is_some());
        assert_index_consistent(&cache);
    }

    #[test]
    fn the_index_never_holds_more_keys_than_entries() {
        let mut cache = ScheduleCache::new(3);
        for round in 0..40u64 {
            let seed = round % 7;
            match round % 4 {
                0 => insert_keyed(&mut cache, seed, base_entry),
                1 => insert_keyed(&mut cache, seed, entry),
                2 => {
                    let p = problem(100 + round);
                    cache.insert(p.content_digest(), entry(&p));
                }
                _ => {
                    cache.get_mut_by_key(&key(seed));
                }
            }
            assert_index_consistent(&cache);
        }
        // A second entry under an indexed key does not take it over.
        let mut cache = ScheduleCache::new(4);
        insert_keyed(&mut cache, 0, base_entry);
        let other = problem(9);
        cache.insert_keyed(other.content_digest(), Some(key(0)), entry(&other));
        assert_eq!(cache.len(), 2);
        let (_, found) = cache.get_mut_by_key(&key(0)).unwrap();
        assert!(found.problem.bit_identical(&problem(0)));
        assert_index_consistent(&cache);
    }

    #[test]
    fn keys_compare_every_float_by_bit_pattern() {
        let grid = GridKey::Named("grid5000_table3".into());
        let link = |factor: f64| Perturbation::DegradeLink {
            from: ClusterId(1),
            to: ClusterId(2),
            factor,
        };
        let key = |chain: &[Perturbation]| {
            RequestKey::new(grid.clone(), ClusterId(0), MessageSize::from_mib(1), chain)
        };
        let f: f64 = 1.5;
        let next = f64::from_bits(f.to_bits() + 1);
        assert_eq!(key(&[link(f)]), key(&[link(f)]));
        assert_ne!(key(&[link(f)]), key(&[link(next)]));
        // Order matters, and the base key is the chain-less one.
        assert_ne!(key(&[link(f), link(2.0)]), key(&[link(2.0), link(f)]));
        assert_eq!(key(&[link(f)]).base(), key(&[]));
        // Different kinds with equal fields never collide.
        let uplink = Perturbation::DegradeUplink {
            cluster: ClusterId(1),
            factor: f,
        };
        let relay = Perturbation::DropRelay {
            cluster: ClusterId(1),
        };
        assert_ne!(key(&[uplink]), key(&[relay]));
    }

    #[test]
    fn lookup_verifies_full_equality_not_just_the_digest() {
        let a = problem(1);
        let b = problem(2);
        assert_ne!(a.content_digest(), b.content_digest());

        let mut cache = ScheduleCache::new(8);
        let digest = a.content_digest();
        cache.insert(digest, entry(&a));

        assert!(cache.get_mut(digest, &a).is_some());
        // Simulate a digest collision: probe `a`'s digest with problem `b`.
        // Identity verification must refuse to serve `a`'s entry for `b`.
        assert!(cache.get_mut(digest, &b).is_none());

        // Colliding distinct problems coexist in one bucket.
        cache.insert(digest, entry(&b));
        assert_eq!(cache.len(), 2);
        assert!(cache.get_mut(digest, &a).is_some());
        assert!(cache.get_mut(digest, &b).is_some());
    }

    #[test]
    fn lru_eviction_removes_the_least_recently_used() {
        let mut cache = ScheduleCache::new(2);
        let problems: Vec<_> = (0..3).map(problem).collect();
        cache.insert(problems[0].content_digest(), entry(&problems[0]));
        cache.insert(problems[1].content_digest(), entry(&problems[1]));
        // Touch the older entry so the younger one becomes the LRU victim —
        // exactly where FIFO would have evicted `problems[0]`.
        assert!(cache
            .get_mut(problems[0].content_digest(), &problems[0])
            .is_some());
        cache.insert(problems[2].content_digest(), entry(&problems[2]));
        assert_eq!(cache.len(), 2);
        assert!(cache
            .get_mut(problems[0].content_digest(), &problems[0])
            .is_some());
        assert!(cache
            .get_mut(problems[1].content_digest(), &problems[1])
            .is_none());
        assert!(cache
            .get_mut(problems[2].content_digest(), &problems[2])
            .is_some());
    }

    #[test]
    fn hot_warm_base_survives_a_cold_entry_flood() {
        // A warm-start base that keeps getting replayed from (every warm run
        // looks it up, refreshing its stamp) must stay resident through an
        // arbitrarily long flood of fresh entries — both replay-produced ones
        // (unpinned, evicted first regardless of age) and new cold bases
        // (older stamps lose, and the hot base's stamp is always fresher).
        let mut cache = ScheduleCache::new(3);
        let hot = problem(100);
        cache.insert(hot.content_digest(), base_entry(&hot));

        for seed in 0..16 {
            let warm_result = problem(seed);
            cache.insert(warm_result.content_digest(), entry(&warm_result));
            // The hot base is warm-started from between insertions.
            assert!(
                cache.get_mut(hot.content_digest(), &hot).is_some(),
                "hot warm base evicted by replay-produced entry {seed}"
            );
            let cold = problem(1000 + seed);
            cache.insert(cold.content_digest(), base_entry(&cold));
            assert!(
                cache.get_mut(hot.content_digest(), &hot).is_some(),
                "hot warm base evicted by cold base {seed}"
            );
        }
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn unpinned_entries_are_evicted_before_stale_warm_bases() {
        // Even a *stale* warm base outranks a freshly inserted replay-produced
        // entry: the log-less tier empties first.
        let mut cache = ScheduleCache::new(2);
        let base = problem(200);
        cache.insert(base.content_digest(), base_entry(&base));
        let fresh: Vec<_> = (0..3).map(problem).collect();
        for p in &fresh {
            cache.insert(p.content_digest(), entry(p));
        }
        assert_eq!(cache.len(), 2);
        assert!(cache.get_mut(base.content_digest(), &base).is_some());
        // Only the newest unpinned entry shares the cache with the base.
        assert!(cache
            .get_mut(fresh[2].content_digest(), &fresh[2])
            .is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = ScheduleCache::new(0);
        let p = problem(3);
        cache.insert(p.content_digest(), entry(&p));
        assert!(cache.is_empty());
        assert!(cache.get_mut(p.content_digest(), &p).is_none());
    }
}
