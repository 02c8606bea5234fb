//! Compact interned configuration encoding, shared by the model checker
//! and the batch executor.
//!
//! The exploration engines used to key their visited-sets on
//! heap-heavy tuples `(Vec<State>, Vec<Option<Reg>>, Vec<Option<Output>>)`
//! and to clone a full [`Execution`] per successor. This module replaces
//! both with a flat, arena-backed representation:
//!
//! * every distinct private state, register value, and output value is
//!   **interned** once in a [`ValueInterner`] and referred to by a `u32`
//!   index thereafter. The interner stores each value exactly once, in
//!   an arena in first-seen order, next to its cached seed-free hash;
//!   an open-addressed table of arena indices finds it again, probing
//!   by the cached hash and confirming against the arena, so neither
//!   lookup nor table growth ever clones or re-hashes a stored value;
//! * a configuration is a packed `3n`-word row — per process: state
//!   index, register index (+1, `0` = `⊥`), output index (+1, `0` =
//!   still working). The model checker keeps every row back to back in
//!   one flat arena; [`CfgKey`] is the standalone, `Arc`-shared form;
//! * each key carries a **slot-wise incremental hash**: the XOR over all
//!   slots of `mix(slot, value_hash)`, where `value_hash` is a fixed
//!   (seed-free) hash of the value computed once at intern time.
//!   A successor's hash is the parent's hash with only the touched
//!   slots' contributions swapped — O(activated) instead of O(n).
//!
//! Equality of two [`CfgKey`]s is equality of the packed index vectors
//! (indices are canonical per value within one codec), so deduplication
//! is **exact** — hashes only steer bucket placement and can never
//! merge distinct configurations. That is what keeps the compact engine
//! bit-identical to the old tuple-keyed one.
//!
//! [`ConfigCodec::restore`] and [`Execution::restore_slot`] are the
//! write half for engines that step a real executor: materialize a
//! configuration into a scratch execution, step it, re-encode only the
//! touched slots ([`ConfigCodec::encode_delta`]), and undo the step by
//! restoring the touched slots from the parent's packed buffer. The
//! POR gate's dynamic probe works this way.
//!
//! ## The packed successor kernel
//!
//! [`ConfigCodec::step_into`] skips the executor altogether: it applies
//! the three-phase step of §2.1 to a parent's packed row directly,
//! writing the successor into a caller-owned scratch [`LanedRow`] (so a
//! memo hit allocates nothing), with three memos keyed by intern
//! indices only —
//!
//! * `published`: state index → register index (phase 1, the write),
//! * `transitions`: `[state index, neighbor register slots…]` → (new
//!   state index, output slot) (phases 2–3, read and update), hashed
//!   with a fixed multiplicative hasher,
//! * `swapped_states`: state index → index of the same state with its
//!   two view positions swapped, filled only for rows that carry view
//!   swaps (symmetry reduction) —
//!
//! and the same incremental XOR hash as [`ConfigCodec::encode_delta`].
//! A memo miss rebuilds the values from the interners and calls
//! [`Algorithm::publish`] / [`Algorithm::step`] /
//! [`Algorithm::relabel_view`] once. The memo adds one premise to the
//! visited set's: `step` is a pure function of `(state, view)` and
//! `publish` of `state` — the visited set already assumes it for whole
//! configurations, and the certifier's step determinism rule
//! (FTC-DET-005) checks it for every registry algorithm. An impure
//! algorithm would be *hidden* by the memo, which is why the POR gate's
//! commutation probe keeps stepping the real executor.
//!
//! ### The entry lane
//!
//! A [`LanedRow`] carries, next to the row and its hash, one
//! [`SlotEntry`] — `(value hash, packed index)` — per process for its
//! state, its register, its output and its view-swapped state
//! ([`LANE_PER_PROC`] entries). The model checker fills the lane once
//! per node it expands ([`ConfigCodec::entries_into`]); the kernel copies the
//! parent's lane and rewrites only the processes that step, taking each
//! old value's hash from the lane, so a changed slot costs one interner
//! lookup, not two. Symmetry canonicalization then elects the orbit
//! representative from the lane alone, with no codec, lock or lookup.
//! A row without view swaps (plain exploration) carries the state's own
//! entry in the swapped position, so there is one step path either way.
//!
//! ## The batch half
//!
//! `ftcolor-batch` keeps *millions of concurrent instances* parked as
//! packed rows in one flat slab and swaps each row through a per-worker
//! scratch [`Execution`] to step it. That hot path needs neither hashes
//! nor `Arc`s, so it gets two dedicated entry points that operate on
//! caller-owned `&[u32]` rows:
//!
//! * [`ConfigCodec::encode_slice`] — intern + pack into an existing row
//!   (no allocation after the interners saturate),
//! * [`ConfigCodec::restore_slice`] — materialize a row into a scratch
//!   execution, overwriting every slot (and thereby the working set).
//!
//! The codec pays off exactly when many instances share a value
//! universe (fleets of small rings with identifiers drawn from a common
//! pool); a single giant ring with all-distinct identifiers would intern
//! every value exactly once and gain nothing — such instances should run
//! on a live `Execution` instead.

use crate::algorithm::{Neighborhood, Step};
use crate::{Algorithm, Execution, ProcessId, Topology};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash, Hasher};
use std::sync::Arc;

/// Packed slots per process: state, register, output.
pub const SLOTS_PER_PROC: usize = 3;

/// [`SlotEntry`]s per process in a [`LanedRow`]'s lane: state, register
/// and output (mirroring the row's slots), then the view-swapped state.
pub const LANE_PER_PROC: usize = 4;

/// Lane offset, within a process's block, of its view-swapped state.
pub const LANE_SWAPPED: usize = 3;

/// Hash contribution of an empty (`⊥` register / no output) slot,
/// before slot mixing. An arbitrary odd constant, distinct from any
/// realistic value hash only probabilistically — harmless, since hashes
/// never decide equality.
const EMPTY_SLOT_HASH: u64 = 0x9e37_79b9_7f4a_7c15;

/// Finalizing mix (splitmix64) of a slot index and a value hash into
/// that slot's contribution to the configuration hash. XOR-combining
/// per-slot contributions is what makes the hash incrementally
/// updatable slot by slot: a [`CfgKey::hash`] is the XOR of this over
/// every slot and the pre-mix hash of the value packed there.
pub fn slot_contrib(slot: usize, value_hash: u64) -> u64 {
    let mut z = value_hash ^ (slot as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed-free value hash — a pure function of the value, identical
/// across runs, threads, and machines.
fn value_hash<T: Hash>(v: &T) -> u64 {
    BuildHasherDefault::<DefaultHasher>::default().hash_one(v)
}

/// Marks an unused bucket of a [`ValueInterner`]'s index table.
const EMPTY_BUCKET: u32 = u32::MAX;

/// A deduplicating store of values of one type: each distinct value is
/// kept once and addressed by a dense `u32` index; its seed-free hash
/// is cached at intern time so hot paths never re-hash values.
///
/// The values live in one arena in first-seen order. Lookup goes
/// through an open-addressed index table (linear probing, at most half
/// full) whose buckets hold arena indices: a probe compares the cached
/// hash first and only then the value, and growth re-places indices by
/// their cached hashes, so no value is hashed twice or stored twice.
pub struct ValueInterner<T> {
    table: Vec<u32>,
    values: Vec<T>,
    hashes: Vec<u64>,
}

impl<T: Eq + Hash + Clone> ValueInterner<T> {
    fn new() -> Self {
        ValueInterner {
            table: Vec::new(),
            values: Vec::new(),
            hashes: Vec::new(),
        }
    }

    /// The bucket holding `v` (hash `h`), or the empty bucket where it
    /// would go. The table must be non-empty.
    fn probe(&self, v: &T, h: u64) -> usize {
        let mask = self.table.len() - 1;
        let mut at = h as usize & mask;
        loop {
            let idx = self.table[at];
            if idx == EMPTY_BUCKET
                || (self.hashes[idx as usize] == h && self.values[idx as usize] == *v)
            {
                return at;
            }
            at = (at + 1) & mask;
        }
    }

    /// Index of `v` (hash `h`) if already interned.
    fn find(&self, v: &T, h: u64) -> Option<u32> {
        if self.table.is_empty() {
            return None;
        }
        Some(self.table[self.probe(v, h)]).filter(|&idx| idx != EMPTY_BUCKET)
    }

    /// Index of `v` if already interned.
    fn lookup(&self, v: &T) -> Option<u32> {
        self.find(v, value_hash(v))
    }

    /// Interns `v` (cloning it on first sight), returning its index.
    fn intern(&mut self, v: &T) -> u32 {
        let h = value_hash(v);
        if let Some(idx) = self.find(v, h) {
            return idx;
        }
        if 2 * (self.values.len() + 1) > self.table.len() {
            self.grow();
        }
        let idx = u32::try_from(self.values.len())
            .ok()
            .filter(|&i| i != EMPTY_BUCKET)
            .expect("fewer than 2^32 - 1 distinct values");
        let at = self.probe(v, h);
        self.table[at] = idx;
        self.values.push(v.clone());
        self.hashes.push(h);
        idx
    }

    /// Doubles the index table (16 buckets at first), re-placing every
    /// index by its cached hash.
    fn grow(&mut self) {
        let buckets = (2 * self.table.len()).max(16);
        self.table = vec![EMPTY_BUCKET; buckets];
        let mask = buckets - 1;
        for (idx, &h) in self.hashes.iter().enumerate() {
            let mut at = h as usize & mask;
            while self.table[at] != EMPTY_BUCKET {
                at = (at + 1) & mask;
            }
            self.table[at] = idx as u32;
        }
    }

    /// The value at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` was never returned by [`Self::intern`].
    fn value(&self, idx: u32) -> &T {
        &self.values[idx as usize]
    }

    /// The cached seed-free hash of the value at `idx`.
    fn hash_of(&self, idx: u32) -> u64 {
        self.hashes[idx as usize]
    }

    /// Number of distinct values interned.
    fn len(&self) -> usize {
        self.values.len()
    }

    /// Heap bytes allocated for the index table, the value arena and
    /// the cached hashes, by capacity. Heap owned by the values
    /// themselves is not counted.
    fn approx_bytes(&self) -> usize {
        self.table.capacity() * std::mem::size_of::<u32>()
            + self.values.capacity() * std::mem::size_of::<T>()
            + self.hashes.capacity() * std::mem::size_of::<u64>()
    }
}

/// A compact configuration key: packed interned slots plus the
/// slot-wise XOR hash.
///
/// Equality compares the packed buffer only — exact, never
/// hash-approximate. `Hash` feeds only the precomputed `hash` to the
/// hasher, never the buffer.
#[derive(Debug, Clone)]
pub struct CfgKey {
    /// Slot-wise XOR of `slot_contrib` values; stable across runs.
    pub hash: u64,
    /// `3n` interned slots, process-major.
    pub packed: Arc<[u32]>,
}

impl PartialEq for CfgKey {
    fn eq(&self, other: &Self) -> bool {
        self.packed == other.packed
    }
}
impl Eq for CfgKey {}

impl Hash for CfgKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// One slot as a lane carries it: the pre-mix hash of the value packed
/// there and its packed index. The derived order — hash, then index — is
/// the order symmetry canonicalization elects by.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct SlotEntry {
    /// Seed-free hash of the value (a fixed constant for `0` in a
    /// register or output slot).
    pub hash: u64,
    /// Packed index, as in the row.
    pub idx: u32,
}

/// A packed `3n`-slot row with its slot-XOR hash and its entry lane —
/// the successor kernel's input and output (see the module docs).
/// `relabel` fixes at construction whether the lane's swapped entries
/// are real view swaps or copies of the state entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LanedRow {
    relabel: bool,
    row: Vec<u32>,
    hash: u64,
    lane: Vec<SlotEntry>,
}

impl LanedRow {
    /// An all-zero row for `n` processes; fill it with
    /// [`ConfigCodec::entries_into`] or [`ConfigCodec::step_into`].
    /// With `relabel`, the lane carries each state's view-swapped twin,
    /// which needs an algorithm certifying [`Algorithm::relabel_view`].
    pub fn new(n: usize, relabel: bool) -> Self {
        LanedRow {
            relabel,
            row: vec![0; n * SLOTS_PER_PROC],
            hash: 0,
            lane: vec![SlotEntry::default(); n * LANE_PER_PROC],
        }
    }

    /// The packed row.
    pub fn row(&self) -> &[u32] {
        &self.row
    }

    /// The row's slot-XOR hash.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The entry lane: [`LANE_PER_PROC`] entries per process.
    pub fn lane(&self) -> &[SlotEntry] {
        &self.lane
    }

    /// Whether the lane carries real view swaps.
    pub fn relabel(&self) -> bool {
        self.relabel
    }

    /// Writes `new` into slot `s` of process `i`, swapping the slot's
    /// hash contribution; the old value's hash comes from the lane.
    fn set(&mut self, i: usize, s: usize, new: SlotEntry) {
        let slot = SLOTS_PER_PROC * i + s;
        let old = &mut self.lane[LANE_PER_PROC * i + s];
        self.hash ^= slot_contrib(slot, old.hash) ^ slot_contrib(slot, new.hash);
        *old = new;
        self.row[slot] = new.idx;
    }
}

/// Fixed multiplicative hasher (the FxHash mix) for memos keyed by a
/// few small integers — the `transitions` memo's intern indices, the
/// checker's working-set bitmasks — which SipHash's flooding resistance
/// buys nothing for. Seed-free, so a memo's layout is a pure function of
/// what was inserted.
#[derive(Default)]
pub struct MemoHasher(u64);

impl MemoHasher {
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    fn add(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for MemoHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves the low bits weakest; bucket selection
        // reads them, so rotate the strong high bits down.
        self.0.rotate_left(26)
    }
}

/// Marks a dense memo entry that has not been computed yet.
const UNKNOWN: u32 = u32::MAX;

/// Transition keys of nodes with fewer neighbors than this are built on
/// the stack.
const INLINE_KEY: usize = 8;

/// A memo entry [`CodecInner::try_step`] or [`CodecInner::try_entries`]
/// needed but did not find.
enum Miss {
    /// `published[state]`.
    Publish(u32),
    /// `transitions[key]`.
    Transition(Box<[u32]>),
    /// `swapped_states[state]`.
    Swap(u32),
}

/// Interners for one exploration: states, registers, outputs — plus the
/// memos built on their indices.
struct CodecInner<A: Algorithm> {
    states: ValueInterner<A::State>,
    regs: ValueInterner<A::Reg>,
    outs: ValueInterner<A::Output>,
    /// Lane memo for symmetry canonicalization: state index → index of
    /// the same state with its two view positions swapped
    /// ([`Algorithm::relabel_view`] with `[1, 0]`), [`UNKNOWN`] until
    /// computed. The swap is an involution, so entries are recorded in
    /// both directions.
    swapped_states: Vec<u32>,
    /// Successor-kernel memo of phase 1: state index → index of the
    /// register it publishes, [`UNKNOWN`] until computed.
    published: Vec<u32>,
    /// Successor-kernel memo of phases 2–3: `[state index, register
    /// slot of each neighbor in topology order]` → (new state index,
    /// output slot).
    transitions: HashMap<Box<[u32]>, (u32, u32), BuildHasherDefault<MemoHasher>>,
}

/// `memo[idx]`, or `None` while it is [`UNKNOWN`] or out of range.
fn dense_get(memo: &[u32], idx: u32) -> Option<u32> {
    memo.get(idx as usize).copied().filter(|&v| v != UNKNOWN)
}

/// Sets `memo[idx] = v`, growing the memo as needed.
fn dense_set(memo: &mut Vec<u32>, idx: u32, v: u32) {
    let at = idx as usize;
    if memo.len() <= at {
        memo.resize(at + 1, UNKNOWN);
    }
    memo[at] = v;
}

impl<A: Algorithm> CodecInner<A>
where
    A::State: Eq + Hash,
    A::Reg: Eq + Hash,
    A::Output: Eq + Hash,
{
    /// The pre-mix hash of the value packed as `v` in slot kind `s`
    /// (0 = state, 1 = register, 2 = output).
    fn packed_value_hash(&self, s: usize, v: u32) -> u64 {
        match (s, v) {
            (0, v) => self.states.hash_of(v),
            (_, 0) => EMPTY_SLOT_HASH,
            (1, v) => self.regs.hash_of(v - 1),
            (_, v) => self.outs.hash_of(v - 1),
        }
    }

    /// Writes `v` into `row[slot]`, swapping the slot's hash
    /// contribution in `hash` when the value changes.
    fn set_slot(&self, row: &mut [u32], hash: &mut u64, slot: usize, v: u32) {
        let old = row[slot];
        if old != v {
            let s = slot % SLOTS_PER_PROC;
            *hash ^= slot_contrib(slot, self.packed_value_hash(s, old))
                ^ slot_contrib(slot, self.packed_value_hash(s, v));
            row[slot] = v;
        }
    }

    /// Interns the three slot values of process `i` in `exec`, returning
    /// the packed indices.
    fn intern_proc(&mut self, exec: &Execution<'_, A>, i: usize) -> [u32; SLOTS_PER_PROC] {
        let p = ProcessId(i);
        [
            self.states.intern(exec.state(p)),
            exec.register(p).map_or(0, |r| self.regs.intern(r) + 1),
            exec.outputs()[i]
                .as_ref()
                .map_or(0, |o| self.outs.intern(o) + 1),
        ]
    }

    /// Looks up the three slot values of process `i` without interning;
    /// `None` if any value is unknown.
    fn lookup_proc(&self, exec: &Execution<'_, A>, i: usize) -> Option<[u32; SLOTS_PER_PROC]> {
        let p = ProcessId(i);
        let si = self.states.lookup(exec.state(p))?;
        let ri = match exec.register(p) {
            None => 0,
            Some(r) => self.regs.lookup(r)? + 1,
        };
        let oi = match &exec.outputs()[i] {
            None => 0,
            Some(o) => self.outs.lookup(o)? + 1,
        };
        Some([si, ri, oi])
    }

    /// The lane entry of the value packed as `v` in slot kind `s`.
    fn entry(&self, s: usize, v: u32) -> SlotEntry {
        SlotEntry {
            hash: self.packed_value_hash(s, v),
            idx: v,
        }
    }

    /// The lane entry of `state` with its view positions swapped —
    /// `state` itself unless `relabel` — or the memo entry that is
    /// missing.
    fn swapped_entry(&self, relabel: bool, state: SlotEntry) -> Result<SlotEntry, Miss> {
        if !relabel {
            return Ok(state);
        }
        let sw = dense_get(&self.swapped_states, state.idx).ok_or(Miss::Swap(state.idx))?;
        Ok(self.entry(0, sw))
    }

    /// Fills `out`'s lane from its row, or reports the first memo entry
    /// it lacks.
    fn try_entries(&self, out: &mut LanedRow) -> Result<(), Miss> {
        let blocks = out.lane.chunks_exact_mut(LANE_PER_PROC);
        for (slots, lane) in out.row.chunks_exact(SLOTS_PER_PROC).zip(blocks) {
            for (s, &v) in slots.iter().enumerate() {
                lane[s] = self.entry(s, v);
            }
            lane[LANE_SWAPPED] = self.swapped_entry(out.relabel, lane[0])?;
        }
        Ok(())
    }

    /// The successor kernel on the memos alone: writes into `out` the
    /// successor of `parent` in which the processes of `active` that
    /// have not returned take one step, lane and hash included — or
    /// reports the first memo entry it lacks.
    fn try_step(
        &self,
        topo: &Topology,
        parent: &LanedRow,
        active: &[ProcessId],
        out: &mut LanedRow,
    ) -> Result<(), Miss> {
        out.row.copy_from_slice(&parent.row);
        out.lane.copy_from_slice(&parent.lane);
        out.hash = parent.hash;
        let working = |p: &&ProcessId| parent.row[SLOTS_PER_PROC * p.index() + 2] == 0;

        // Phase 1: every activated process writes.
        for p in active.iter().filter(working) {
            let (i, slot) = (p.index(), SLOTS_PER_PROC * p.index());
            let si = parent.row[slot];
            let ri = dense_get(&self.published, si).ok_or(Miss::Publish(si))? + 1;
            if ri != out.row[slot + 1] {
                out.set(i, 1, self.entry(1, ri));
            }
        }

        // Phases 2–3: each reads its neighbors' registers (phase-1 writes
        // included) and updates. Updates touch only state and output
        // slots, so later reads in this loop see the phase-1 registers.
        let mut inline = [0u32; INLINE_KEY];
        let mut spilled = Vec::new();
        for p in active.iter().filter(working) {
            let (i, slot) = (p.index(), SLOTS_PER_PROC * p.index());
            let nbrs = topo.neighbors(*p);
            let key: &mut [u32] = if nbrs.len() < INLINE_KEY {
                &mut inline[..=nbrs.len()]
            } else {
                spilled.resize(nbrs.len() + 1, 0);
                &mut spilled
            };
            key[0] = parent.row[slot];
            for (k, q) in key[1..].iter_mut().zip(nbrs) {
                *k = out.row[SLOTS_PER_PROC * q.index() + 1];
            }
            let &(si, oi) = self
                .transitions
                .get(&*key)
                .ok_or_else(|| Miss::Transition(key.into()))?;
            if si != parent.row[slot] {
                let state = self.entry(0, si);
                out.lane[LANE_PER_PROC * i + LANE_SWAPPED] =
                    self.swapped_entry(out.relabel, state)?;
                out.set(i, 0, state);
            }
            // A working process's output slot is 0, so any return changes it.
            if oi != 0 {
                out.set(i, 2, self.entry(2, oi));
            }
        }
        Ok(())
    }

    /// Computes the memo entry `miss` names with one call into `alg`.
    ///
    /// # Panics
    ///
    /// Panics on a [`Miss::Swap`] if `alg` does not certify
    /// [`Algorithm::relabel_view`].
    fn fill(&mut self, alg: &A, miss: Miss) {
        match miss {
            Miss::Publish(si) => {
                let ri = self.regs.intern(&alg.publish(self.states.value(si)));
                dense_set(&mut self.published, si, ri);
            }
            Miss::Transition(key) => {
                let mut state = self.states.value(key[0]).clone();
                let view: Vec<Option<A::Reg>> = key[1..]
                    .iter()
                    .map(|&r| r.checked_sub(1).map(|r| self.regs.value(r).clone()))
                    .collect();
                let oi = match alg.step(&mut state, &Neighborhood::new(&view)) {
                    Step::Continue => 0,
                    Step::Return(o) => self.outs.intern(&o) + 1,
                };
                let si = self.states.intern(&state);
                self.transitions.insert(key, (si, oi));
            }
            Miss::Swap(si) => {
                let mut value = self.states.value(si).clone();
                assert!(
                    alg.relabel_view(&mut value, &[1, 0]),
                    "view swapping requires an algorithm that certifies relabel_view"
                );
                let j = self.states.intern(&value);
                dense_set(&mut self.swapped_states, si, j);
                dense_set(&mut self.swapped_states, j, si);
            }
        }
    }
}

/// The shared encoding context of one exploration or batch: a
/// [`ValueInterner`] per component type behind a single `RwLock` (reads
/// vastly dominate — the universe of distinct values saturates within
/// the first BFS levels / service rounds).
pub struct ConfigCodec<A: Algorithm> {
    n: usize,
    inner: RwLock<CodecInner<A>>,
}

impl<A: Algorithm> ConfigCodec<A>
where
    A::State: Eq + Hash,
    A::Reg: Eq + Hash,
    A::Output: Eq + Hash,
{
    /// A fresh codec for instances with `n` processes.
    pub fn new(n: usize) -> Self {
        ConfigCodec {
            n,
            inner: RwLock::new(CodecInner {
                states: ValueInterner::new(),
                regs: ValueInterner::new(),
                outs: ValueInterner::new(),
                swapped_states: Vec::new(),
                published: Vec::new(),
                transitions: HashMap::default(),
            }),
        }
    }

    /// Number of processes this codec encodes for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Encodes the full configuration of `exec`.
    ///
    /// This is the single configuration-key entry point (the old
    /// `key_of` free function and its method twin both folded in here).
    pub fn encode(&self, exec: &Execution<'_, A>) -> CfgKey {
        let mut packed = vec![0u32; self.n * SLOTS_PER_PROC];
        let mut hash = 0u64;
        let mut inner = self.inner.write();
        for i in 0..self.n {
            let slots = inner.intern_proc(exec, i);
            packed[SLOTS_PER_PROC * i..SLOTS_PER_PROC * (i + 1)].copy_from_slice(&slots);
            for s in 0..SLOTS_PER_PROC {
                let slot = SLOTS_PER_PROC * i + s;
                hash ^= slot_contrib(slot, inner.packed_value_hash(s, packed[slot]));
            }
        }
        CfgKey {
            hash,
            packed: packed.into(),
        }
    }

    /// Encodes the full configuration of `exec` into a caller-owned
    /// `3n`-slot row — the batch executor's parking half. No hash is
    /// computed and nothing is allocated once the interners have seen
    /// every value; the row contents are exactly what [`Self::encode`]
    /// would pack.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != 3n`.
    pub fn encode_slice(&self, exec: &Execution<'_, A>, out: &mut [u32]) {
        assert_eq!(
            out.len(),
            self.n * SLOTS_PER_PROC,
            "encode_slice row must hold 3n slots"
        );
        // Fast path: every value already interned (read lock only, so
        // saturated batch sweeps encode concurrently).
        {
            let inner = self.inner.read();
            let all_known = out
                .chunks_exact_mut(SLOTS_PER_PROC)
                .enumerate()
                .all(|(i, row)| {
                    inner
                        .lookup_proc(exec, i)
                        .map(|slots| row.copy_from_slice(&slots))
                        .is_some()
                });
            if all_known {
                return;
            }
        }
        let mut inner = self.inner.write();
        for (i, row) in out.chunks_exact_mut(SLOTS_PER_PROC).enumerate() {
            row.copy_from_slice(&inner.intern_proc(exec, i));
        }
    }

    /// Encodes the configuration of `exec`, which differs from the
    /// parent configuration `parent` only in the slots of `touched`
    /// processes. The hash is updated incrementally: only the touched
    /// slots' contributions are swapped.
    ///
    /// Each touched value is looked up once under one read lock; only a
    /// value never seen before takes the write lock, to intern it.
    pub fn encode_delta(
        &self,
        parent: &CfgKey,
        exec: &Execution<'_, A>,
        touched: &[ProcessId],
    ) -> CfgKey {
        debug_assert_eq!(parent.packed.len(), self.n * SLOTS_PER_PROC);
        let mut packed: Arc<[u32]> = Arc::from(&parent.packed[..]);
        let row = Arc::get_mut(&mut packed).expect("a fresh Arc is unique");
        let mut hash = parent.hash;
        let mut apply = |inner: &CodecInner<A>, p: ProcessId, slots: [u32; SLOTS_PER_PROC]| {
            for (s, v) in slots.into_iter().enumerate() {
                inner.set_slot(row, &mut hash, SLOTS_PER_PROC * p.index() + s, v);
            }
        };

        let mut done = 0;
        {
            let inner = self.inner.read();
            for &p in touched {
                let Some(slots) = inner.lookup_proc(exec, p.index()) else {
                    break;
                };
                apply(&inner, p, slots);
                done += 1;
            }
        }
        if done < touched.len() {
            let mut inner = self.inner.write();
            for &p in &touched[done..] {
                let slots = inner.intern_proc(exec, p.index());
                apply(&inner, p, slots);
            }
        }
        CfgKey { hash, packed }
    }

    /// Loads the packed row `row` (whose hash is `hash`) into `out` and
    /// fills its entry lane — what the model checker does once per
    /// node before stepping it with [`Self::step_into`]. When
    /// `out.relabel()`, each state's view-swapped twin is memoized per
    /// distinct state, so the clone + relabel + re-intern is paid once
    /// per state value; only a state never swapped before takes the
    /// write lock.
    ///
    /// # Panics
    ///
    /// Panics if `row` and `out` do not hold `3n` slots for this codec,
    /// or if `out.relabel()` and `alg` does not certify
    /// [`Algorithm::relabel_view`] — callers must gate symmetry
    /// reduction on the algorithm certifying the hook first.
    pub fn entries_into(&self, alg: &A, row: &[u32], hash: u64, out: &mut LanedRow) {
        assert_eq!(row.len(), self.n * SLOTS_PER_PROC, "row must hold 3n slots");
        out.row.copy_from_slice(row);
        out.hash = hash;
        if self.inner.read().try_entries(out).is_ok() {
            return;
        }
        let mut inner = self.inner.write();
        while let Err(miss) = inner.try_entries(out) {
            inner.fill(alg, miss);
        }
    }

    /// Writes into `out` the successor of `parent` when the processes of
    /// `active` take one step together — row, hash and lane — the packed
    /// successor kernel (see the module docs). Row and hash are equal to
    /// restoring `parent` into an execution, calling
    /// [`Execution::step_with`] with `active` and re-encoding with
    /// [`Self::encode_delta`]; the lane is equal to what
    /// [`Self::entries_into`] computes from that row. Processes of
    /// `active` that have already returned in `parent` are ignored, the
    /// way `step_with` resolves its set against the working list.
    ///
    /// A memoized transition allocates nothing; a miss calls `alg` once
    /// and takes the write lock.
    ///
    /// # Panics
    ///
    /// Panics if `parent` was not filled by this codec for `topo`, if
    /// `out` is sized for another `n`, or if the two disagree on
    /// `relabel`.
    #[inline]
    pub fn step_into(
        &self,
        alg: &A,
        topo: &Topology,
        parent: &LanedRow,
        active: &[ProcessId],
        out: &mut LanedRow,
    ) {
        debug_assert_eq!(parent.row.len(), topo.len() * SLOTS_PER_PROC);
        debug_assert_eq!(
            parent.relabel, out.relabel,
            "one kind of lane per exploration"
        );
        if self
            .inner
            .read()
            .try_step(topo, parent, active, out)
            .is_ok()
        {
            return;
        }
        let mut inner = self.inner.write();
        while let Err(miss) = inner.try_step(topo, parent, active, out) {
            inner.fill(alg, miss);
        }
    }

    /// Recomputes the hash of an already-packed buffer.
    pub fn hash_packed(&self, packed: &[u32]) -> u64 {
        let inner = self.inner.read();
        packed.iter().enumerate().fold(0u64, |h, (slot, &v)| {
            h ^ slot_contrib(slot, inner.packed_value_hash(slot % SLOTS_PER_PROC, v))
        })
    }

    /// Writes the outputs packed in `packed` into `out`, by process
    /// (`None` = working). `out` is cleared first, so a reused buffer
    /// allocates nothing once it has grown.
    pub fn outputs_into(&self, packed: &[u32], out: &mut Vec<Option<A::Output>>) {
        let inner = self.inner.read();
        out.clear();
        out.extend(
            packed
                .iter()
                .skip(2)
                .step_by(SLOTS_PER_PROC)
                .map(|&o| o.checked_sub(1).map(|o| inner.outs.value(o).clone())),
        );
    }

    /// The output value packed as `slot` in an output slot (`None` for
    /// `0`, a process still working).
    ///
    /// # Panics
    ///
    /// Panics if `slot` was never packed by this codec.
    pub fn output(&self, slot: u32) -> Option<A::Output> {
        slot.checked_sub(1)
            .map(|o| self.inner.read().outs.value(o).clone())
    }

    /// The working processes (no output yet) of a packed row, ascending
    /// — what [`Execution::working`] reports after restoring it.
    pub fn working(packed: &[u32]) -> Vec<ProcessId> {
        (0..packed.len() / SLOTS_PER_PROC)
            .filter(|&i| packed[SLOTS_PER_PROC * i + 2] == 0)
            .map(ProcessId)
            .collect()
    }

    /// Materializes the configuration `key` into `exec`, overwriting
    /// every process slot (and thereby the working set).
    pub fn restore(&self, exec: &mut Execution<'_, A>, key: &CfgKey) {
        self.restore_slice(exec, &key.packed);
    }

    /// Materializes a packed `3n`-slot row (as written by
    /// [`Self::encode_slice`] or carried by a [`CfgKey`]) into `exec`,
    /// overwriting every process slot — the batch executor's wake-up
    /// half.
    ///
    /// # Panics
    ///
    /// Panics if `packed.len() != 3n` or any slot index was never
    /// interned by this codec.
    pub fn restore_slice(&self, exec: &mut Execution<'_, A>, packed: &[u32]) {
        assert_eq!(
            packed.len(),
            self.n * SLOTS_PER_PROC,
            "restore_slice row must hold 3n slots"
        );
        let inner = self.inner.read();
        for i in 0..self.n {
            Self::restore_one(&inner, exec, ProcessId(i), packed);
        }
    }

    /// Restores only the slots of `procs` from `packed` — the undo half
    /// of step/undo successor generation.
    pub fn restore_procs(&self, exec: &mut Execution<'_, A>, packed: &[u32], procs: &[ProcessId]) {
        let inner = self.inner.read();
        for &p in procs {
            Self::restore_one(&inner, exec, p, packed);
        }
    }

    fn restore_one(
        inner: &CodecInner<A>,
        exec: &mut Execution<'_, A>,
        p: ProcessId,
        packed: &[u32],
    ) {
        let i = p.index();
        let state = inner.states.value(packed[SLOTS_PER_PROC * i]).clone();
        let reg = match packed[SLOTS_PER_PROC * i + 1] {
            0 => None,
            v => Some(inner.regs.value(v - 1).clone()),
        };
        let out = match packed[SLOTS_PER_PROC * i + 2] {
            0 => None,
            v => Some(inner.outs.value(v - 1).clone()),
        };
        exec.restore_slot(p, state, reg, out);
    }

    /// Distinct interned (states, registers, outputs).
    pub fn interned_counts(&self) -> (usize, usize, usize) {
        let inner = self.inner.read();
        (inner.states.len(), inner.regs.len(), inner.outs.len())
    }

    /// Heap bytes of the three interners — index tables, value arenas
    /// and cached hashes, by capacity. Heap owned by the values
    /// themselves (say, a `Vec` inside a state) is not counted.
    pub fn approx_interner_bytes(&self) -> usize {
        let inner = self.inner.read();
        inner.states.approx_bytes() + inner.regs.approx_bytes() + inner.outs.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{Neighborhood, Step};
    use crate::schedule::ActivationSet;
    use crate::Topology;

    /// A minimal in-crate coloring-ish algorithm (the real registry
    /// lives in `ftcolor-core`, which depends on this crate): publish
    /// the id, then return `id mod 7` after two activations.
    struct ModSeven;

    impl Algorithm for ModSeven {
        type Input = u64;
        type State = (u64, u8);
        type Reg = u64;
        type Output = u64;

        fn init(&self, _p: ProcessId, input: u64) -> (u64, u8) {
            (input, 0)
        }

        fn publish(&self, state: &(u64, u8)) -> u64 {
            state.0.wrapping_mul(3) + u64::from(state.1)
        }

        fn step(&self, state: &mut (u64, u8), view: &Neighborhood<'_, u64>) -> Step<u64> {
            state.1 += 1;
            let seen: u64 = view.iter().flatten().sum();
            if state.1 >= 2 {
                Step::Return((state.0 + seen) % 7)
            } else {
                Step::Continue
            }
        }
    }

    #[test]
    fn encode_is_stable_and_delta_matches_full() {
        let topo = Topology::cycle(4).unwrap();
        let codec: ConfigCodec<ModSeven> = ConfigCodec::new(4);
        let mut exec = Execution::new(&ModSeven, &topo, vec![3, 1, 4, 1]);
        let root = codec.encode(&exec);
        assert_eq!(root, codec.encode(&exec), "encoding is deterministic");

        let mut parent = root.clone();
        for step in 0..6 {
            let set = ActivationSet::solo(ProcessId(step % 4));
            let touched = exec.step_with(&set);
            let delta = codec.encode_delta(&parent, &exec, &touched);
            let full = codec.encode(&exec);
            assert_eq!(delta, full, "step {step}: delta and full encodings agree");
            assert_eq!(
                delta.hash, full.hash,
                "step {step}: incremental hash agrees with full hash"
            );
            assert_eq!(codec.hash_packed(&full.packed), full.hash);
            parent = delta;
        }
    }

    #[test]
    fn restore_round_trips() {
        let topo = Topology::cycle(4).unwrap();
        let codec: ConfigCodec<ModSeven> = ConfigCodec::new(4);
        let mut exec = Execution::new(&ModSeven, &topo, vec![7, 2, 9, 5]);
        let root = codec.encode(&exec);
        for _ in 0..3 {
            exec.step_with(&ActivationSet::All);
        }
        let later = codec.encode(&exec);
        assert_ne!(root, later);

        // Restore the root configuration into the stepped execution.
        let mut scratch = Execution::new(&ModSeven, &topo, vec![7, 2, 9, 5]);
        for _ in 0..3 {
            scratch.step_with(&ActivationSet::All);
        }
        codec.restore(&mut scratch, &root);
        assert_eq!(codec.encode(&scratch), root);
        assert_eq!(scratch.working().len(), 4, "everyone working again");

        // And back to the later one via restore_procs on all slots.
        let all: Vec<ProcessId> = (0..4).map(ProcessId).collect();
        codec.restore_procs(&mut scratch, &later.packed, &all);
        assert_eq!(codec.encode(&scratch), later);
    }

    #[test]
    fn slice_entry_points_match_keyed_ones() {
        let topo = Topology::cycle(5).unwrap();
        let codec: ConfigCodec<ModSeven> = ConfigCodec::new(5);
        let mut exec = Execution::new(&ModSeven, &topo, vec![8, 6, 7, 5, 3]);
        let mut row = vec![0u32; 5 * SLOTS_PER_PROC];
        for _ in 0..4 {
            exec.step_with(&ActivationSet::solo(ProcessId(2)));
            exec.step_with(&ActivationSet::All);
            codec.encode_slice(&exec, &mut row);
            let key = codec.encode(&exec);
            assert_eq!(&row[..], &key.packed[..], "slice packs what encode packs");

            // A fresh scratch (different inputs, so different init
            // states) restored from the row re-encodes identically.
            let mut scratch = Execution::new(&ModSeven, &topo, vec![0, 1, 2, 3, 4]);
            codec.restore_slice(&mut scratch, &row);
            assert_eq!(codec.encode(&scratch), key);
            assert_eq!(scratch.working(), exec.working());
            assert_eq!(scratch.outputs(), exec.outputs());
        }
    }

    #[test]
    fn step_undo_is_identity() {
        let topo = Topology::cycle(3).unwrap();
        let codec: ConfigCodec<ModSeven> = ConfigCodec::new(3);
        let mut exec = Execution::new(&ModSeven, &topo, vec![0, 1, 2]);
        exec.step_with(&ActivationSet::All);
        let parent = codec.encode(&exec);

        let touched = exec.step_with(&ActivationSet::solo(ProcessId(1)));
        codec.restore_procs(&mut exec, &parent.packed, &touched);
        assert_eq!(codec.encode(&exec), parent, "undo restores the parent");
    }

    #[test]
    fn step_into_matches_executor_at_every_degree() {
        // A clique of nine builds its transition keys on the heap, a
        // cycle on the stack.
        for topo in [Topology::cycle(4).unwrap(), Topology::clique(9).unwrap()] {
            let n = topo.len();
            let codec: ConfigCodec<ModSeven> = ConfigCodec::new(n);
            let mut exec = Execution::new(&ModSeven, &topo, (0..n as u64).collect());
            let mut key = codec.encode(&exec);
            let (mut from, mut got) = (LanedRow::new(n, false), LanedRow::new(n, false));
            for step in 0..6 {
                let active: Vec<ProcessId> = (0..n)
                    .filter(|i| (i + step) % 3 != 0)
                    .map(ProcessId)
                    .collect();
                let touched = exec.step_with(&ActivationSet::Only(active.clone()));
                let want = codec.encode_delta(&key, &exec, &touched);
                codec.entries_into(&ModSeven, &key.packed, key.hash, &mut from);
                for _ in 0..2 {
                    codec.step_into(&ModSeven, &topo, &from, &active, &mut got);
                    let got = (got.row(), got.hash());
                    assert_eq!(got, (&want.packed[..], want.hash), "n={n} step {step}");
                }
                assert_eq!(
                    ConfigCodec::<ModSeven>::working(&want.packed),
                    exec.working()
                );
                let mut outputs = Vec::new();
                codec.outputs_into(&want.packed, &mut outputs);
                assert_eq!(outputs, exec.outputs());
                key = want;
            }
        }
    }

    #[test]
    fn interner_dedups_exactly_across_table_growths() {
        let mut interner = ValueInterner::new();
        let value = |v: u64| v.wrapping_mul(0x9e37_79b9);
        for pass in 0..3 {
            for v in 0..1000u64 {
                assert_eq!(interner.intern(&value(v)), v as u32, "pass {pass}");
            }
        }
        assert_eq!(interner.len(), 1000);
        assert_eq!(
            interner.table.len(),
            2048,
            "grew from 16 buckets seven times"
        );
        for v in 0..1000u64 {
            assert_eq!(interner.lookup(&value(v)), Some(v as u32));
            assert_eq!(*interner.value(v as u32), value(v));
            assert_eq!(interner.hash_of(v as u32), value_hash(&value(v)));
        }
        assert_eq!(interner.lookup(&value(1000)), None);
    }

    /// A key whose every value hashes alike.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Colliding(u32);

    impl Hash for Colliding {
        fn hash<H: Hasher>(&self, state: &mut H) {
            state.write_u8(0);
        }
    }

    #[test]
    fn interner_dedups_exactly_under_forced_collisions() {
        let mut interner = ValueInterner::new();
        for pass in 0..2 {
            for v in 0..100 {
                assert_eq!(interner.intern(&Colliding(v)), v, "pass {pass}");
            }
        }
        assert_eq!(interner.len(), 100);
        assert!(interner.hashes.iter().all(|&h| h == interner.hashes[0]));
        for v in 0..100 {
            assert_eq!(interner.lookup(&Colliding(v)), Some(v));
        }
        assert_eq!(interner.lookup(&Colliding(100)), None);
    }

    #[test]
    fn interner_indices_are_dense_in_first_seen_order() {
        let mut interner = ValueInterner::new();
        let got: Vec<u32> = [5u8, 3, 5, 9, 3, 1, 9, 2]
            .iter()
            .map(|v| interner.intern(v))
            .collect();
        assert_eq!(got, [0, 1, 0, 2, 1, 3, 2, 4]);
        assert_eq!(interner.values, [5, 3, 9, 1, 2]);
    }
}
