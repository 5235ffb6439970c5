//! The compiled bitmask evaluation kernel.
//!
//! The paper's §5 algorithm enumerates all `2^N` up/down states; its
//! conclusion calls for "much more efficient" evaluation.  The naive
//! enumerator re-derives every state's configuration from scratch —
//! per-state oracle binding, `BTreeSet` allocations and a recursive walk
//! of the fault graph — even though a `2^18` hierarchical run collapses
//! to a handful of distinct configurations.  This kernel makes the hot
//! path allocation-free:
//!
//! * **State word.**  The fallible elements of the [`ComponentSpace`]
//!   are packed into a single `u64`: bit `b` is
//!   `fallible_indices()[b]`, set = up (see
//!   [`ComponentSpace::fallible_bits`]).  Perfectly reliable elements
//!   have no bit — they are up in every state.
//! * **Compiled `know`.**  Every `know(c, t)` function's augmented
//!   minpaths become bitmask lists: `known ⇔ ∃ path: word & mask ==
//!   mask` ([`fmperf_mama::CompiledKnowTable`]).  Evaluating the whole
//!   table is a few dozen AND-compares instead of set walks.
//! * **Gray-code enumeration.**  States are visited in reflected
//!   Gray-code order, so each step flips exactly one bit.  The walker
//!   splits the state probability into a *high* product over bits `>=
//!   LO_BITS` — updated with one divide and one multiply, but only once
//!   per [`LANE_WIDTH`]-state block — and a low-bit factor table
//!   ([`GrayWalk`]): the serial floating-point dependency chain runs at
//!   block granularity, not per state.
//! * **Lane-parallel scan.**  The default scan pulls whole
//!   [`LANE_WIDTH`]-state blocks off the walker and evaluates the
//!   lanes' probabilities, effective words and packed `know` answers as
//!   fixed-width array batches ([`LaneKnow`] lays the OR-of-AND masks
//!   out structure-of-arrays) that the autovectorizer turns into SIMD;
//!   only the memo/accumulate resolve pass stays sequential, which is
//!   what keeps the result bit-identical to the scalar reference scan.
//! * **Decision memoisation.**  The configuration is a pure function of
//!   the *decision word*: the application-component bits of the state
//!   word plus the packed `know` answer word.  A table `decision word →
//!   interned configuration id` means the full allocating evaluator runs
//!   only once per distinct decision-relevant bit pattern; every other
//!   state is a mask-and-probe.
//!
//! **Soundness of the memo key.**  The recursive evaluator reads only
//! (a) the up/down state of application components — all of which have
//! global index `< app_count()`, hence live in the application bit mask
//! — and (b) `know` oracle answers, each of which is either a compiled
//! pair (captured in the answer word) or a constant
//! (`unmonitored_known`, fixed per analysis).  Two states with equal
//! decision words therefore produce identical configurations.
//!
//! **Exactness.**  The kernel and the naive reference enumerator
//! ([`Analysis::enumerate_naive`]) share the same [`GrayWalk`] and visit
//! states in the same order, so each state's probability is the *same
//! float* and per-configuration sums accumulate in the *same order*:
//! the two distributions are bit-identical, not merely within epsilon.
//! The lane scan preserves this: [`GrayWalk::next_block`] emits the
//! same words and the same floats as the iterator, the batched know
//! answers equal the incremental [`KnowEval`] word on every effective
//! state, and lanes are resolved and accumulated sequentially in visit
//! order — so scalar, lane and naive paths all agree bit for bit.
//!
//! Common-cause failure dependencies are supported by building one
//! evaluation context per group mask: forced-down fallible elements are
//! cleared from the word, and `know` tables are recompiled with
//! forced-down reliable elements removed
//! ([`fmperf_mama::KnowTable::compile_with_forced`]).

#![forbid(unsafe_code)]

use crate::analysis::{Analysis, Knowledge};
use crate::budget::{AnalysisError, BudgetGuard, CHECK_INTERVAL};
use crate::ccf::FailureDependencies;
use crate::distribution::ConfigDistribution;
use fmperf_ftlqn::Configuration;
use fmperf_mama::{CompiledKnowTable, ComponentSpace};
use fmperf_obs::{Counter, Phase, Recorder, Span};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative hasher for the decision-word memo.  The keys are
/// two already-well-mixed bit words; SipHash's DoS resistance buys
/// nothing here and its per-probe cost dominates the hot loop.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(23);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Widest direct-indexed memo the kernel will allocate: `2^20` slots
/// (4 MiB of `u32`).  Past that the flat table stops being
/// cache-resident and the hash map wins back.
const FLAT_MEMO_MAX_BITS: u32 = 20;

/// Decision-word → interned configuration id.
///
/// Two layouts behind one probe interface.  The decision key is
/// `(application bits, packed know answers)`; when the application bits
/// are a contiguous low mask and the combined key width fits
/// [`FLAT_MEMO_MAX_BITS`], the memo is a flat direct-indexed table
/// (`u32::MAX` marking empty slots) — on the Gray scan the low
/// application bits change at almost every step, so the probe sits on
/// the per-state hot path and a single indexed load beats a hash-map
/// probe several times over.  Otherwise it falls back to the hash map.
/// Both layouts populate in the same first-sighting order, so the
/// interned configuration ids — and the accumulated sums — are
/// identical.
enum Memo {
    /// Direct-indexed table: `table[app_bits | answers << shift]`.
    Flat {
        table: Vec<u32>,
        /// Number of application bits (the answers' shift distance).
        shift: u32,
        /// Populated slots, for the budget guard's memo cap.
        used: usize,
    },
    Map(HashMap<(u64, u64), u32, BuildHasherDefault<WordHasher>>),
}

impl Memo {
    fn len(&self) -> usize {
        match self {
            Memo::Flat { used, .. } => *used,
            Memo::Map(m) => m.len(),
        }
    }

    fn clear(&mut self) {
        match self {
            Memo::Flat { table, used, .. } => {
                table.fill(u32::MAX);
                *used = 0;
            }
            Memo::Map(m) => m.clear(),
        }
    }

    #[inline]
    fn get(&self, key: (u64, u64)) -> Option<u32> {
        match self {
            Memo::Flat { table, shift, .. } => {
                let id = table[(key.0 | (key.1 << shift)) as usize];
                (id != u32::MAX).then_some(id)
            }
            Memo::Map(m) => m.get(&key).copied(),
        }
    }

    fn insert(&mut self, key: (u64, u64), id: u32) {
        debug_assert_ne!(id, u32::MAX, "id u32::MAX is the empty-slot sentinel");
        match self {
            Memo::Flat { table, shift, used } => {
                table[(key.0 | (key.1 << *shift)) as usize] = id;
                *used += 1;
            }
            Memo::Map(m) => {
                m.insert(key, id);
            }
        }
    }
}

/// Incrementally maintained packed `know` answer word.
///
/// Along a Gray-code walk almost every step flips a single bit, so only
/// the pairs whose masks involve that bit can change their answer; the
/// rest of the word carries over.  Produces exactly
/// [`CompiledKnowTable::answers`] at every state.
struct KnowEval {
    /// Per pair: the surviving path masks (empty for constant pairs).
    masks: Vec<Vec<u64>>,
    /// Constant part of the answer word (always-pairs, and never-pairs
    /// under a `true` unmonitored default).
    constant: u64,
    /// For each word bit, the dynamic pairs whose masks involve it.
    affected: Vec<Vec<u32>>,
    /// The current answer word.
    answers: u64,
}

impl KnowEval {
    fn new(table: &CompiledKnowTable, n_bits: usize, default_for_missing: bool) -> KnowEval {
        let mut masks = Vec::with_capacity(table.len());
        let mut constant = 0u64;
        let mut affected = vec![Vec::new(); n_bits];
        for (j, (_, _, know)) in table.pairs().enumerate() {
            if know.is_always() || (know.is_never() && default_for_missing) {
                constant |= 1u64 << j;
            }
            let dynamic = if know.is_always() || know.is_never() {
                Vec::new()
            } else {
                know.masks().to_vec()
            };
            let mut union = 0u64;
            for &m in &dynamic {
                union |= m;
            }
            for (b, lst) in affected.iter_mut().enumerate() {
                if union & (1u64 << b) != 0 {
                    lst.push(j as u32);
                }
            }
            masks.push(dynamic);
        }
        KnowEval {
            masks,
            constant,
            affected,
            answers: 0,
        }
    }

    /// Evaluates pair `j`'s dynamic predicate.
    // Not `contains`: `word & m == m` is a subset test, the lint misfires.
    #[allow(clippy::manual_contains)]
    #[inline]
    fn holds(&self, j: u32, word: u64) -> bool {
        self.masks[j as usize].iter().any(|&m| word & m == m)
    }

    /// Full evaluation (walk entry or after a context switch).
    fn reset(&mut self, word: u64) {
        self.answers = self.constant;
        for j in 0..self.masks.len() as u32 {
            if self.holds(j, word) {
                self.answers |= 1u64 << j;
            }
        }
    }

    /// Re-evaluates only the pairs affected by the bits in `flipped`.
    fn update(&mut self, word: u64, mut flipped: u64) {
        while flipped != 0 {
            let b = flipped.trailing_zeros() as usize;
            flipped &= flipped - 1;
            for &j in &self.affected[b] {
                if self.holds(j, word) {
                    self.answers |= 1u64 << j;
                } else {
                    self.answers &= !(1u64 << j);
                }
            }
        }
    }
}

/// Structure-of-arrays layout of a compiled know table for the lane
/// scan.
///
/// Within a [`LANE_WIDTH`]-state block the lanes' effective words
/// differ only in the low [`LO_BITS`] Gray bits, so the `(component,
/// task)` pairs split two ways:
///
/// * **Volatile pairs** have at least one surviving path mask touching
///   the low bits: their answers can differ between lanes, so all of
///   the pair's masks become flat `(mask, pair-bit)` rows whose inner
///   loop over the lanes is branch-free `[u64; W]` bit ops the
///   autovectorizer can turn into SIMD.
/// * **Stable pairs** involve only high bits: their answers form one
///   word shared by every lane of a block, updated incrementally —
///   entering a block flips exactly one high bit, so only the pairs on
///   that bit's affected list are re-tested.
///
/// Path masks intersecting the context's forced-down bits are dropped
/// up front: effective words have those bits cleared, so such a mask
/// can never hold.  The produced answers equal
/// [`CompiledKnowTable::answers`] (and the incremental [`KnowEval`])
/// on every effective word, which keeps the lane scan's memo keys —
/// and hence its result — bit-identical to the scalar scan's.
struct LaneKnow {
    /// Constant part of the answer word (always-pairs, and never-pairs
    /// under a `true` unmonitored default).
    constant: u64,
    /// Flat volatile rows: a pair's bit is OR-ed in when any of its
    /// rows' masks holds.
    vol_masks: Vec<u64>,
    vol_bits: Vec<u64>,
    /// Per stable pair: surviving masks and the pair's answer bit.
    stable_masks: Vec<Vec<u64>>,
    stable_bits: Vec<u64>,
    /// For each word bit, the stable pairs whose masks involve it.
    stable_affected: Vec<Vec<u32>>,
    /// Stable + constant-free part of the current block's answer word.
    stable_word: u64,
}

impl LaneKnow {
    fn new(
        table: &CompiledKnowTable,
        n_bits: usize,
        default_for_missing: bool,
        forced_mask: u64,
    ) -> LaneKnow {
        let lo_mask = (1u64 << LO_BITS.min(n_bits as u32)) - 1;
        let mut lk = LaneKnow {
            constant: 0,
            vol_masks: Vec::new(),
            vol_bits: Vec::new(),
            stable_masks: Vec::new(),
            stable_bits: Vec::new(),
            stable_affected: vec![Vec::new(); n_bits],
            stable_word: 0,
        };
        for (j, (_, _, know)) in table.pairs().enumerate() {
            let bit = 1u64 << j;
            if know.is_always() || (know.is_never() && default_for_missing) {
                lk.constant |= bit;
            }
            if know.is_always() || know.is_never() {
                continue;
            }
            let masks: Vec<u64> = know
                .masks()
                .iter()
                .copied()
                .filter(|m| m & forced_mask == 0)
                .collect();
            if masks.is_empty() {
                continue; // no surviving path: constant-false
            }
            if masks.iter().any(|&m| m & lo_mask != 0) {
                for &m in &masks {
                    lk.vol_masks.push(m);
                    lk.vol_bits.push(bit);
                }
            } else {
                let id = lk.stable_masks.len() as u32;
                let mut union = 0u64;
                for &m in &masks {
                    union |= m;
                }
                for (b, lst) in lk.stable_affected.iter_mut().enumerate() {
                    if union & (1u64 << b) != 0 {
                        lst.push(id);
                    }
                }
                lk.stable_masks.push(masks);
                lk.stable_bits.push(bit);
            }
        }
        lk
    }

    /// Evaluates pair `i`'s surviving stable masks.
    // Not `contains`: `word & m == m` is a subset test, the lint misfires.
    #[allow(clippy::manual_contains)]
    #[inline]
    fn stable_holds(&self, i: usize, word: u64) -> bool {
        self.stable_masks[i].iter().any(|&m| word & m == m)
    }

    /// Evaluates every stable pair against a block's base effective
    /// word (walk entry).
    fn reset_stable(&mut self, base_eff: u64) {
        self.stable_word = 0;
        for i in 0..self.stable_masks.len() {
            if self.stable_holds(i, base_eff) {
                self.stable_word |= self.stable_bits[i];
            }
        }
    }

    /// Re-tests only the stable pairs whose masks involve the high bit
    /// `b` flipped at a block boundary.
    fn update_stable(&mut self, base_eff: u64, b: usize) {
        for k in 0..self.stable_affected[b].len() {
            let i = self.stable_affected[b][k] as usize;
            if self.stable_holds(i, base_eff) {
                self.stable_word |= self.stable_bits[i];
            } else {
                self.stable_word &= !self.stable_bits[i];
            }
        }
    }

    /// Answer words for a chunk of `W` effective lanes: the constant
    /// and block-stable bits OR-ed with each lane's volatile answers.
    #[inline]
    fn answers_chunk<const W: usize>(&self, eff: &[u64; W], out: &mut [u64; W]) {
        let base = self.constant | self.stable_word;
        *out = [base; W];
        for (&m, &bit) in self.vol_masks.iter().zip(&self.vol_bits) {
            for l in 0..W {
                let holds = u64::from(eff[l] & m == m);
                out[l] |= holds.wrapping_neg() & bit;
            }
        }
    }
}

/// Number of low state-index bits whose factor products are
/// table-driven.  The walker's running product covers only the bits `>=
/// LO_BITS`, and along the Gray walk a high bit flips exactly once per
/// [`LANE_WIDTH`] states (at block-aligned indices) — so the serial
/// divide/multiply dependency chain runs per block, and the per-state
/// probability is one independent table-lookup multiply.
const LO_BITS: u32 = 3;

/// States per Gray-scan lane block (`2^LO_BITS`).
pub const LANE_WIDTH: usize = 1 << LO_BITS;

/// Gray codes of the block-local indices `0..LANE_WIDTH` in visit
/// order: `gray(s0 + j) == gray(s0) ^ GRAY8[j]` for any block-aligned
/// `s0` and `j < LANE_WIDTH`, because `gray(s0)` has zero low bits
/// except possibly bit `LO_BITS - 1` (inherited from bit `LO_BITS` of
/// `s0`) and `gray(j)` has no high bits.
const GRAY8: [u64; LANE_WIDTH] = [0, 1, 3, 2, 6, 7, 5, 4];

/// Iterator over `(state word, state probability)` in reflected
/// Gray-code order.
///
/// The probability is maintained as `hi_prob * lo_table[low bits]`: the
/// high product changes by one divide and one multiply only at block
/// boundaries (where a bit `>= LO_BITS` flips), and the low-bit factors
/// come from an 8-entry table of precomputed ordered products.
///
/// Zero factors (elements with up-probability 0 or 1 contributing a zero
/// term) are tracked by count in the high product rather than multiplied
/// in, so it never degenerates to `0/0`; the low table stores its zeros
/// directly because it is never divided.
///
/// The compiled kernel (scalar and lane scans alike) and the naive
/// reference enumerator all draw states from this walker — that shared
/// float trajectory is what makes their results bit-identical.
pub(crate) struct GrayWalk {
    /// Up-probability per bit.
    up: Vec<f64>,
    /// Down-probability per bit (`1 - up`).
    down: Vec<f64>,
    word: u64,
    /// Product of the non-zero factors of bits `>= lo_bits`.
    hi_prob: f64,
    /// Zero factors among bits `>= lo_bits` (probability is 0 while > 0).
    hi_zeros: u32,
    /// `lo_table[m]`: ordered product of the low-bit factors for low
    /// word `m`.
    lo_table: [f64; LANE_WIDTH],
    /// `min(LO_BITS, up.len())` — sub-block state spaces keep every bit
    /// in the table.
    lo_bits: u32,
    lo_mask: u64,
    /// Next state index to emit (the walk covers `[lo, hi)`).
    next: u64,
    end: u64,
    /// `false` until the first state is emitted (the first emission does
    /// not flip a bit).
    started: bool,
}

impl GrayWalk {
    /// A walk over state indices `[lo, hi)` of an `up.len()`-bit space;
    /// state index `s` maps to word `s ^ (s >> 1)`.
    pub(crate) fn new(up: &[f64], lo: u64, hi: u64) -> GrayWalk {
        assert!(up.len() <= 64, "state word overflow");
        let down: Vec<f64> = up.iter().map(|p| 1.0 - p).collect();
        let lo_bits = LO_BITS.min(up.len() as u32);
        let lo_mask = (1u64 << lo_bits) - 1;
        let mut lo_table = [1.0f64; LANE_WIDTH];
        for (m, slot) in lo_table.iter_mut().enumerate() {
            let mut f = 1.0;
            for b in 0..lo_bits as usize {
                f *= if m & (1 << b) != 0 { up[b] } else { down[b] };
            }
            *slot = f;
        }
        let word = lo ^ (lo >> 1);
        let mut hi_prob = 1.0;
        let mut hi_zeros = 0u32;
        for b in lo_bits as usize..up.len() {
            let f = if word & (1u64 << b) != 0 {
                up[b]
            } else {
                down[b]
            };
            if f == 0.0 {
                hi_zeros += 1;
            } else {
                hi_prob *= f;
            }
        }
        GrayWalk {
            up: up.to_vec(),
            down,
            word,
            hi_prob,
            hi_zeros,
            lo_table,
            lo_bits,
            lo_mask,
            next: lo,
            end: hi,
            started: false,
        }
    }

    /// Applies the high-product update for flipping bit `b >= lo_bits`.
    #[inline]
    fn flip_hi(&mut self, b: usize) {
        let bit = 1u64 << b;
        let now_up = self.word & bit == 0; // about to flip
        let (old, new) = if now_up {
            (self.down[b], self.up[b])
        } else {
            (self.up[b], self.down[b])
        };
        self.word ^= bit;
        if old == 0.0 {
            self.hi_zeros -= 1;
        } else {
            self.hi_prob /= old;
        }
        if new == 0.0 {
            self.hi_zeros += 1;
        } else {
            self.hi_prob *= new;
        }
    }

    /// Emits the next block of up to [`LANE_WIDTH`] states into `words`
    /// and `probs`, returning the number of lanes filled (0 once the
    /// walk is exhausted).
    ///
    /// Equivalent to pulling the same states off the iterator one at a
    /// time — identical words and identical floats, since both paths
    /// compute `hi_prob * lo_table[low bits]` from the same operands —
    /// but a full aligned block performs the single high-bit update and
    /// then eight independent lookup-multiplies with no per-state
    /// branching, which the autovectorizer can SIMD.  Unaligned
    /// prologue/epilogue states (and sub-block state spaces) fall back
    /// to single-state emission off the shared iterator path.
    pub(crate) fn next_block(
        &mut self,
        words: &mut [u64; LANE_WIDTH],
        probs: &mut [f64; LANE_WIDTH],
    ) -> usize {
        let s0 = self.next;
        if s0 >= self.end {
            return 0;
        }
        if self.lo_bits < LO_BITS
            || s0 & (LANE_WIDTH as u64 - 1) != 0
            || self.end - s0 < LANE_WIDTH as u64
        {
            let (w, p) = self.next().expect("s0 < end: the walk is not done");
            words[0] = w;
            probs[0] = p;
            return 1;
        }
        if self.started {
            // Entering an aligned block flips exactly one high bit:
            // trailing_zeros(s0) >= LO_BITS because s0 is block-aligned.
            self.flip_hi(s0.trailing_zeros() as usize);
        }
        self.started = true;
        self.next = s0 + LANE_WIDTH as u64;
        let base = self.word;
        let lo_base = (base & self.lo_mask) as usize;
        let hi = if self.hi_zeros > 0 { 0.0 } else { self.hi_prob };
        for j in 0..LANE_WIDTH {
            words[j] = base ^ GRAY8[j];
            probs[j] = hi * self.lo_table[lo_base ^ GRAY8[j] as usize];
        }
        self.word = words[LANE_WIDTH - 1];
        LANE_WIDTH
    }
}

impl Iterator for GrayWalk {
    type Item = (u64, f64);

    fn next(&mut self) -> Option<(u64, f64)> {
        let s = self.next;
        if s >= self.end {
            return None;
        }
        if self.started {
            // State index s differs from s-1 in Gray code by exactly
            // bit trailing_zeros(s); only flips of high bits touch the
            // running product.
            let b = s.trailing_zeros();
            if b >= self.lo_bits {
                self.flip_hi(b as usize);
            } else {
                self.word ^= 1u64 << b;
            }
        }
        self.started = true;
        self.next = s + 1;
        let p = if self.hi_zeros > 0 {
            0.0
        } else {
            self.hi_prob * self.lo_table[(self.word & self.lo_mask) as usize]
        };
        Some((self.word, p))
    }
}

/// One evaluation context: a common-cause group mask with its
/// probability, forced-down overrides and (for MAMA knowledge) the
/// recompiled know table.
struct EvalContext {
    /// Probability of this group fire/no-fire mask.
    gprob: f64,
    /// Global indices forced down (fallible and reliable alike).
    forced: Vec<usize>,
    /// Word bits of the fallible forced-down elements.
    forced_mask: u64,
    /// Know table recompiled for this context; `None` = use the
    /// kernel's base table (no forced elements, or perfect knowledge).
    know: Option<CompiledKnowTable>,
}

/// Shared accumulation state of one kernel run (or of one wide-sampler
/// run, see [`FailureSetMemo`](crate::montecarlo::FailureSetMemo)):
/// interned configurations, their probability sums, and the scratch
/// state vector for memo misses.
pub(crate) struct Accumulator {
    ids: BTreeMap<Configuration, u32>,
    configs: Vec<Configuration>,
    /// Probability mass per configuration id, added in state (or
    /// sample) order.
    pub(crate) sums: Vec<f64>,
    /// All-up scratch state: a miss sets its down components, evaluates
    /// and restores them.
    pub(crate) state: Vec<bool>,
}

impl Accumulator {
    pub(crate) fn new(space: &ComponentSpace) -> Accumulator {
        Accumulator {
            ids: BTreeMap::new(),
            configs: Vec::new(),
            sums: Vec::new(),
            state: space.all_up(),
        }
    }

    /// The id of `config`, interned with a zero sum on first sight.
    pub(crate) fn intern(&mut self, config: Configuration) -> u32 {
        match self.ids.get(&config) {
            Some(&id) => id,
            None => {
                let id = self.configs.len() as u32;
                self.ids.insert(config.clone(), id);
                self.configs.push(config);
                self.sums.push(0.0);
                id
            }
        }
    }

    fn into_distribution(self, states_explored: u64) -> ConfigDistribution {
        let mut dist = ConfigDistribution::new();
        for (config, sum) in self.configs.into_iter().zip(self.sums) {
            dist.add(config, sum);
        }
        dist.set_states_explored(states_explored);
        dist
    }

    /// Ends one batch of a run whose ids outlive the batch: the
    /// distribution of the configurations flagged in `reached` (the ones
    /// the batch sampled; a per-batch accumulator would have interned no
    /// other) with their sums.  Clears the flags and the sums for the
    /// next batch; every id stays interned.
    pub(crate) fn take_reached(
        &mut self,
        reached: &mut [bool],
        states_explored: u64,
    ) -> ConfigDistribution {
        let mut dist = ConfigDistribution::new();
        for (id, reached) in reached.iter_mut().enumerate() {
            if std::mem::take(reached) {
                dist.add(self.configs[id].clone(), std::mem::take(&mut self.sums[id]));
            }
        }
        dist.set_states_explored(states_explored);
        dist
    }
}

/// Sentinel in [`MissFast::pair_bit`]: no know pair for this
/// (component, task) — the oracle answer is `default_for_missing`.
const NO_PAIR: u8 = u8::MAX;

/// Precomputed machinery for the memo-miss fast path: drives the
/// allocation-light [`FaultGraph::configuration_masked`] evaluator with
/// a bit-test gate over the packed know-answer word, instead of
/// rebuilding a state vector and re-running the minpath oracle.
///
/// Only available when the application model has at most 64 components
/// (the packed state must fit one word); misses fall back to the
/// canonical evaluator otherwise, and always under forced-down contexts
/// (where the answer word's `is_never` handling can diverge from the
/// state-bound oracle).
#[derive(Debug)]
struct MissFast {
    /// `(word-bit, component-bit)` per fallible application component:
    /// translates the app bits of an effective word into the packed
    /// component state mask.
    app_bits: Vec<(u64, u64)>,
    /// All `component_count` bits set: the all-up packed state.
    all_up: u64,
    /// `pair_bit[task * component_count + component]` = answer-bit index
    /// of the know pair, [`NO_PAIR`] when the pair was never compiled.
    pair_bit: Vec<u8>,
    component_count: usize,
}

/// [`MaskServiceGate`] answering from a packed know-answer word: pair
/// `j`'s answer is bit `j`, exactly as the kernel's scan computed it.
struct AnswerGate<'k> {
    fast: &'k MissFast,
    answers: u64,
    default_for_missing: bool,
    policy: fmperf_ftlqn::KnowPolicy,
}

impl AnswerGate<'_> {
    #[inline]
    fn knows(&self, component: u32, task: fmperf_ftlqn::FtTaskId) -> bool {
        let b = self.fast.pair_bit[task.index() * self.fast.component_count + component as usize];
        if b == NO_PAIR {
            self.default_for_missing
        } else {
            self.answers >> b & 1 == 1
        }
    }
}

impl fmperf_ftlqn::MaskServiceGate for AnswerGate<'_> {
    fn pass(
        &mut self,
        decider: fmperf_ftlqn::FtTaskId,
        support_mask: u64,
        skipped: &[(fmperf_ftlqn::FtEntryId, u64)],
    ) -> bool {
        let mut support = support_mask;
        while support != 0 {
            let ix = support.trailing_zeros();
            support &= support - 1;
            if !self.knows(ix, decider) {
                return false;
            }
        }
        for &(_, failed_mask) in skipped {
            let mut failed = failed_mask;
            let ok = failed != 0
                && match self.policy {
                    fmperf_ftlqn::KnowPolicy::AllFailedComponents => loop {
                        if failed == 0 {
                            break true;
                        }
                        let ix = failed.trailing_zeros();
                        failed &= failed - 1;
                        if !self.knows(ix, decider) {
                            break false;
                        }
                    },
                    fmperf_ftlqn::KnowPolicy::AnyFailedComponent => loop {
                        if failed == 0 {
                            break false;
                        }
                        let ix = failed.trailing_zeros();
                        failed &= failed - 1;
                        if self.knows(ix, decider) {
                            break true;
                        }
                    },
                };
            if !ok {
                return false;
            }
        }
        true
    }
}

/// An [`Analysis`] compiled to bitmask form: packed state word layout,
/// compiled `know` table and the decision-memo machinery.
///
/// Build one with [`Analysis::compile`]; the engines
/// ([`Analysis::enumerate`], [`Analysis::enumerate_parallel`],
/// [`Analysis::monte_carlo`]) construct and use it automatically and
/// fall back to the naive path when compilation is not possible.
#[derive(Debug)]
pub struct CompiledKernel<'a> {
    analysis: Analysis<'a>,
    /// Global index per word bit (the space's fallible indices).
    fallible: Vec<usize>,
    /// Up-probability per word bit.
    up: Vec<f64>,
    /// Word bits whose global index is an application component — the
    /// part of the state the fault-graph evaluator can observe directly.
    app_mask: u64,
    /// Compiled know table (`None` under perfect knowledge).
    know: Option<CompiledKnowTable>,
    /// Memo-miss fast path (`None` when the model exceeds 64
    /// components).
    miss_fast: Option<MissFast>,
}

impl<'a> Analysis<'a> {
    /// Compiles this analysis to a bitmask evaluation kernel.
    ///
    /// Returns `None` when compilation is impossible: more than 64
    /// fallible elements, or a MAMA know table with more than 64
    /// `(component, task)` pairs (the packed answer word would
    /// overflow).  Callers fall back to the naive enumerator.
    pub fn compile(&self) -> Option<CompiledKernel<'a>> {
        let _span = Span::enter(self.recorder, Phase::GuardBuild);
        let space = self.space;
        let fallible = space.fallible_indices();
        if fallible.len() > 64 {
            return None;
        }
        let know = match self.knowledge {
            Knowledge::Perfect => None,
            Knowledge::Mama(table) => Some(table.compile(space)?),
        };
        let app_count = space.app_count();
        let mut app_mask = 0u64;
        let mut up = Vec::with_capacity(fallible.len());
        for (b, &ix) in fallible.iter().enumerate() {
            if ix < app_count {
                app_mask |= 1u64 << b;
            }
            up.push(space.up_prob(ix));
        }
        let model = self.graph.model();
        let cc = model.component_count();
        // Application-component global indices equal the model's
        // component indices (the space lays application components out
        // first, in `component_index` order) — the precondition for
        // translating word bits straight into packed component bits.
        let miss_fast = (cc <= 64 && app_count == cc).then(|| {
            let mut pair_bit = vec![NO_PAIR; model.task_count() * cc];
            if let Some(k) = &know {
                for (j, (c, t, _)) in k.pairs().enumerate() {
                    pair_bit[t.index() * cc + model.component_index(c)] = j as u8;
                }
            }
            MissFast {
                app_bits: fallible
                    .iter()
                    .enumerate()
                    .filter(|&(_, &ix)| ix < app_count)
                    .map(|(b, &ix)| (1u64 << b, 1u64 << ix))
                    .collect(),
                all_up: if cc == 64 { u64::MAX } else { (1u64 << cc) - 1 },
                pair_bit,
                component_count: cc,
            }
        });
        Some(CompiledKernel {
            analysis: *self,
            fallible,
            up,
            app_mask,
            know,
            miss_fast,
        })
    }
}

/// Local per-scan counter accumulators: the hot loop bumps plain
/// integers and the totals reach the recorder once, when the scan ends
/// (including early exits on a tripped guard — hence the [`Drop`]).
#[derive(Debug, Default)]
struct ScanCounters {
    steps: u64,
    visited: u64,
    memo_hits: u64,
    memo_misses: u64,
    know_evals: u64,
    polls: u64,
}

/// Flushes [`ScanCounters`] to the recorder on scope exit.
#[derive(Debug)]
struct ScanFlush<'a> {
    rec: Option<&'a dyn Recorder>,
    c: ScanCounters,
}

impl Drop for ScanFlush<'_> {
    fn drop(&mut self) {
        if let Some(r) = self.rec {
            r.add(Counter::GrayCodeSteps, self.c.steps);
            r.add(Counter::StatesVisited, self.c.visited);
            r.add(Counter::MemoHits, self.c.memo_hits);
            r.add(Counter::MemoMisses, self.c.memo_misses);
            r.add(Counter::KnowGuardEvals, self.c.know_evals);
            r.add(Counter::BudgetPolls, self.c.polls);
        }
    }
}

/// How a kernel scan walks the state space.
#[derive(Clone, Copy, Debug)]
enum ScanMode {
    /// One state at a time off the shared Gray iterator — the
    /// reference path the lane scan is differenced against.
    Scalar,
    /// Block scan with [`LANE_WIDTH`]-lane batched probability and
    /// know-answer evaluation.
    Lanes,
}

impl CompiledKernel<'_> {
    /// Number of word bits (fallible elements).
    pub fn bit_count(&self) -> usize {
        self.fallible.len()
    }

    /// A fresh decision memo in the best layout this kernel supports:
    /// direct-indexed when the application bits are a contiguous low
    /// mask (the [`ComponentSpace`] orders application components
    /// first, so this is the common case) and the key fits
    /// [`FLAT_MEMO_MAX_BITS`], hash map otherwise.
    fn new_memo(&self) -> Memo {
        let app_bits = self.app_mask.count_ones();
        let pairs = self.know.as_ref().map_or(0, |t| t.len() as u32);
        let contiguous = self.app_mask & self.app_mask.wrapping_add(1) == 0;
        if contiguous && app_bits + pairs <= FLAT_MEMO_MAX_BITS {
            Memo::Flat {
                table: vec![u32::MAX; 1usize << (app_bits + pairs)],
                shift: app_bits,
                used: 0,
            }
        } else {
            Memo::Map(HashMap::default())
        }
    }

    /// The compiled know table, if the analysis uses MAMA knowledge.
    pub fn know_table(&self) -> Option<&CompiledKnowTable> {
        self.know.as_ref()
    }

    /// Exact enumeration of all `2^N` states through the kernel using
    /// the [`LANE_WIDTH`]-lane scan; bit-identical to both
    /// [`enumerate_scalar`](CompiledKernel::enumerate_scalar) and
    /// [`Analysis::enumerate_naive`].
    ///
    /// # Panics
    ///
    /// Panics if more than 30 elements are fallible (use
    /// [`Analysis::monte_carlo`] or [`Analysis::compile_mtbdd`]).
    pub fn enumerate(&self) -> ConfigDistribution {
        self.enumerate_masked(None, ScanMode::Lanes)
    }

    /// Exact enumeration through the scalar (one state per step)
    /// reference scan.  Kept as the differential baseline for the lane
    /// scan: results are bit-identical, the lane path is just faster.
    pub fn enumerate_scalar(&self) -> ConfigDistribution {
        self.enumerate_masked(None, ScanMode::Scalar)
    }

    /// [`enumerate`](CompiledKernel::enumerate) with common-cause
    /// failure dependencies; bit-identical to
    /// [`Analysis::enumerate_naive_with_dependencies`].
    pub fn enumerate_with_dependencies(&self, deps: &FailureDependencies) -> ConfigDistribution {
        self.enumerate_masked(Some(deps), ScanMode::Lanes)
    }

    /// [`enumerate_scalar`](CompiledKernel::enumerate_scalar) with
    /// common-cause failure dependencies.
    pub fn enumerate_scalar_with_dependencies(
        &self,
        deps: &FailureDependencies,
    ) -> ConfigDistribution {
        self.enumerate_masked(Some(deps), ScanMode::Scalar)
    }

    fn enumerate_masked(
        &self,
        deps: Option<&FailureDependencies>,
        mode: ScanMode,
    ) -> ConfigDistribution {
        crate::analysis::assert_enumerable(self.fallible.len(), deps);
        let _span = Span::enter(self.analysis.recorder, Phase::StateScan);
        let n_states = 1u64 << self.fallible.len();
        let contexts = self.contexts(deps);
        let mut acc = Accumulator::new(self.analysis.space);
        let mut memo = self.new_memo();
        for ctx in &contexts {
            memo.clear(); // forced overrides differ per context
            self.scan_dispatch(mode, ctx, 0, n_states, &mut memo, &mut acc, None)
                .expect("invariant: an unguarded scan has no budget to exhaust");
        }
        acc.into_distribution(n_states * contexts.len() as u64)
    }

    /// Routes a scan to the scalar reference loop or to the lane loop.
    #[allow(clippy::too_many_arguments)]
    fn scan_dispatch(
        &self,
        mode: ScanMode,
        ctx: &EvalContext,
        lo: u64,
        hi: u64,
        memo: &mut Memo,
        acc: &mut Accumulator,
        guard: Option<&BudgetGuard>,
    ) -> Result<(), AnalysisError> {
        match mode {
            ScanMode::Scalar => self.scan_range(ctx, lo, hi, memo, acc, guard),
            ScanMode::Lanes => self.scan_range_lanes(ctx, lo, hi, memo, acc, guard),
        }
    }

    /// Budget-guarded exact enumeration; a within-budget run is
    /// bit-identical to [`enumerate`](CompiledKernel::enumerate).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::DeadlineExpired`] or
    /// [`AnalysisError::MemoCapExceeded`] when the guard trips mid-scan.
    pub fn try_enumerate_guarded(
        &self,
        guard: &BudgetGuard,
    ) -> Result<ConfigDistribution, AnalysisError> {
        crate::analysis::check_enumerable(self.fallible.len(), None)?;
        let _span = Span::enter(self.analysis.recorder, Phase::StateScan);
        let n_states = 1u64 << self.fallible.len();
        let contexts = self.contexts(None);
        let mut acc = Accumulator::new(self.analysis.space);
        let mut memo = self.new_memo();
        for ctx in &contexts {
            memo.clear();
            self.scan_dispatch(
                ScanMode::Lanes,
                ctx,
                0,
                n_states,
                &mut memo,
                &mut acc,
                Some(guard),
            )?;
        }
        Ok(acc.into_distribution(n_states * contexts.len() as u64))
    }

    /// Budget-guarded multi-threaded enumeration; a within-budget run is
    /// bit-identical to
    /// [`enumerate_parallel`](CompiledKernel::enumerate_parallel) without
    /// dependencies.  The first worker to exhaust the budget cancels its
    /// siblings through the shared guard.
    ///
    /// # Errors
    ///
    /// The tripping worker's [`AnalysisError`].
    pub fn try_enumerate_parallel_guarded(
        &self,
        threads: usize,
        guard: &BudgetGuard,
    ) -> Result<ConfigDistribution, AnalysisError> {
        crate::analysis::check_enumerable(self.fallible.len(), None)?;
        let _span = Span::enter(self.analysis.recorder, Phase::StateScan);
        let threads = threads.max(1);
        let n_states = 1u64 << self.fallible.len();
        let chunk = n_states.div_ceil(threads as u64);
        let contexts = self.contexts(None);
        let mut dist = ConfigDistribution::new();
        let mut first_err: Option<AnalysisError> = None;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..threads {
                let lo = chunk * t as u64;
                let hi = (lo + chunk).min(n_states);
                if lo >= hi {
                    continue;
                }
                let contexts = &contexts;
                handles.push(scope.spawn(move || {
                    let mut acc = Accumulator::new(self.analysis.space);
                    let mut memo = self.new_memo();
                    for ctx in contexts {
                        memo.clear();
                        if let Err(e) = self.scan_dispatch(
                            ScanMode::Lanes,
                            ctx,
                            lo,
                            hi,
                            &mut memo,
                            &mut acc,
                            Some(guard),
                        ) {
                            guard.trip(e.clone());
                            return Err(e);
                        }
                    }
                    Ok(acc.into_distribution(0))
                }));
            }
            for h in handles {
                match h
                    .join()
                    .expect("invariant: enumeration worker never panics")
                {
                    Ok(part) => dist.merge(part),
                    Err(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                    }
                }
            }
        });
        if let Some(e) = first_err {
            return Err(e);
        }
        dist.set_states_explored(n_states * contexts.len() as u64);
        Ok(dist)
    }

    /// The hot loop: walks state indices `[lo, hi)` of one context in
    /// Gray-code order, maintaining the state probability and the `know`
    /// answer word incrementally, and accumulates probabilities per
    /// interned configuration.
    ///
    /// With a guard, the deadline and memo cap are polled at
    /// [`CHECK_INTERVAL`]-state block boundaries: the Gray walk is a
    /// single iterator whose blocks are pulled off with `take`, so the
    /// per-state body is guard-free and emits the exact same `(word,
    /// probability)` sequence either way — a within-budget guarded scan
    /// is bit-identical to an unguarded one and pays only one guard poll
    /// per block on the hot path.
    fn scan_range(
        &self,
        ctx: &EvalContext,
        lo: u64,
        hi: u64,
        memo: &mut Memo,
        acc: &mut Accumulator,
        guard: Option<&BudgetGuard>,
    ) -> Result<(), AnalysisError> {
        let mut fc = ScanFlush {
            rec: self.analysis.recorder,
            c: ScanCounters::default(),
        };
        let know = ctx.know.as_ref().or(self.know.as_ref());
        let mut ke =
            know.map(|k| KnowEval::new(k, self.fallible.len(), self.analysis.unmonitored_known));
        // `prev_eff` is the effective word of the last state whose
        // answers were computed; zero-probability states are skipped
        // without touching the answer word, so a later update may flip
        // several bits at once.
        let mut prev_eff: Option<u64> = None;
        let mut last: Option<((u64, u64), u32)> = None;
        let mut walk = GrayWalk::new(&self.up, lo, hi);
        let mut remaining = hi - lo;
        while remaining > 0 {
            let block = match guard {
                Some(g) => {
                    g.check()?;
                    fc.c.polls += 1;
                    let cap = g.budget().max_memo_entries;
                    if memo.len() > cap {
                        return Err(AnalysisError::MemoCapExceeded {
                            entries: memo.len(),
                            max_entries: cap,
                        });
                    }
                    CHECK_INTERVAL.min(remaining)
                }
                None => remaining,
            };
            for (word, wprob) in walk.by_ref().take(block as usize) {
                fc.c.steps += 1;
                let p = ctx.gprob * wprob;
                if p == 0.0 {
                    continue;
                }
                fc.c.visited += 1;
                let eff = word & !ctx.forced_mask;
                let answers = match &mut ke {
                    Some(ke) => {
                        match prev_eff {
                            Some(pe) if pe == eff => {}
                            Some(pe) => {
                                ke.update(eff, pe ^ eff);
                                fc.c.know_evals += 1;
                            }
                            None => {
                                ke.reset(eff);
                                fc.c.know_evals += 1;
                            }
                        }
                        ke.answers
                    }
                    None => 0,
                };
                prev_eff = Some(eff);
                let key = (eff & self.app_mask, answers);
                let id = match last {
                    // Consecutive states usually differ only in bits the
                    // decision cannot see: reuse the previous id without
                    // a table probe.
                    Some((k, id)) if k == key => {
                        fc.c.memo_hits += 1;
                        id
                    }
                    _ => {
                        let id = self.config_id(eff, key, &ctx.forced, memo, acc, &mut fc.c);
                        last = Some((key, id));
                        id
                    }
                };
                acc.sums[id as usize] += p;
            }
            remaining -= block;
        }
        Ok(())
    }

    /// The lane-parallel hot loop: same visit order, memo keys and
    /// accumulation order as [`scan_range`](CompiledKernel::scan_range)
    /// — and therefore the same bits — but states come off the walk in
    /// [`LANE_WIDTH`]-state blocks whose probabilities, effective words
    /// and know answers are computed as lane-wide array batches the
    /// autovectorizer can SIMD.  Only the resolve pass (memo probe +
    /// accumulate) stays sequential; every float it touches was
    /// computed from the same operands as the scalar scan's.
    ///
    /// The subrange Gray-walk machinery doubles as the lane splitter:
    /// unaligned thread-chunk bounds produce single-state
    /// prologue/epilogue emissions off the shared iterator path.
    fn scan_range_lanes(
        &self,
        ctx: &EvalContext,
        lo: u64,
        hi: u64,
        memo: &mut Memo,
        acc: &mut Accumulator,
        guard: Option<&BudgetGuard>,
    ) -> Result<(), AnalysisError> {
        let mut fc = ScanFlush {
            rec: self.analysis.recorder,
            c: ScanCounters::default(),
        };
        let know = ctx.know.as_ref().or(self.know.as_ref());
        let mut lk = know.map(|k| {
            LaneKnow::new(
                k,
                self.fallible.len(),
                self.analysis.unmonitored_known,
                ctx.forced_mask,
            )
        });
        // `prev_eff` mirrors the scalar scan's lazy-update bookkeeping:
        // a know evaluation is charged per visited state whose effective
        // word differs from the previous visited state's, keeping the
        // counter partition-invariant and equal across scan modes.
        let mut prev_eff: Option<u64> = None;
        let mut last: Option<((u64, u64), u32)> = None;
        let mut walk = GrayWalk::new(&self.up, lo, hi);
        let mut words = [0u64; LANE_WIDTH];
        let mut wprobs = [0.0f64; LANE_WIDTH];
        let mut eff = [0u64; LANE_WIDTH];
        let mut pp = [0.0f64; LANE_WIDTH];
        let mut ans = [0u64; LANE_WIDTH];
        let mut stable_ready = false;
        let mut pos = lo;
        let mut until_check = 0u64;
        while pos < hi {
            if let Some(g) = guard {
                if until_check == 0 {
                    g.check()?;
                    fc.c.polls += 1;
                    let cap = g.budget().max_memo_entries;
                    if memo.len() > cap {
                        return Err(AnalysisError::MemoCapExceeded {
                            entries: memo.len(),
                            max_entries: cap,
                        });
                    }
                    until_check = CHECK_INTERVAL;
                }
            }
            let n = walk.next_block(&mut words, &mut wprobs);
            debug_assert!(n > 0, "pos < hi: the walk is not done");
            if let Some(lk) = &mut lk {
                // High bits only change entering a block-aligned index
                // (trailing_zeros >= LO_BITS there), so the stable part
                // of the answer word is maintained per block, not per
                // state.  Stable masks ignore the low bits: any lane
                // serves as the block's base word.
                let base_eff = words[0] & !ctx.forced_mask;
                if !stable_ready {
                    lk.reset_stable(base_eff);
                    stable_ready = true;
                } else if pos & (LANE_WIDTH as u64 - 1) == 0 {
                    lk.update_stable(base_eff, pos.trailing_zeros() as usize);
                }
            }
            if n == LANE_WIDTH {
                let nf = !ctx.forced_mask;
                for (e, &w) in eff.iter_mut().zip(&words) {
                    *e = w & nf;
                }
                for (p, &q) in pp.iter_mut().zip(&wprobs) {
                    *p = ctx.gprob * q;
                }
                if let Some(lk) = &lk {
                    lk.answers_chunk(&eff, &mut ans);
                }
            } else {
                eff[0] = words[0] & !ctx.forced_mask;
                pp[0] = ctx.gprob * wprobs[0];
                if let Some(lk) = &lk {
                    let e = [eff[0]];
                    let mut a = [0u64; 1];
                    lk.answers_chunk(&e, &mut a);
                    ans[0] = a[0];
                }
            }
            // Resolve pass.  A flat memo probe is one indexed load, so
            // it is specialised inline and skips the `last`-key fast
            // path (a compare would cost as much as the probe; both
            // count as memo hits, keeping the counters scan-invariant).
            // The hash-map arm keeps the `last` shortcut — there the
            // probe is the expensive part.
            match memo {
                Memo::Flat { table, shift, used } => {
                    for j in 0..n {
                        fc.c.steps += 1;
                        let p = pp[j];
                        if p == 0.0 {
                            continue;
                        }
                        fc.c.visited += 1;
                        let e = eff[j];
                        let answers = if lk.is_some() {
                            if prev_eff != Some(e) {
                                fc.c.know_evals += 1;
                            }
                            ans[j]
                        } else {
                            0
                        };
                        prev_eff = Some(e);
                        let idx = ((e & self.app_mask) | (answers << *shift)) as usize;
                        let mut id = table[idx];
                        if id != u32::MAX {
                            fc.c.memo_hits += 1;
                        } else {
                            id = self.config_miss(e, answers, &ctx.forced, acc, &mut fc.c);
                            debug_assert_ne!(
                                id,
                                u32::MAX,
                                "id u32::MAX is the empty-slot sentinel"
                            );
                            table[idx] = id;
                            *used += 1;
                        }
                        acc.sums[id as usize] += p;
                    }
                }
                Memo::Map(_) => {
                    for j in 0..n {
                        fc.c.steps += 1;
                        let p = pp[j];
                        if p == 0.0 {
                            continue;
                        }
                        fc.c.visited += 1;
                        let e = eff[j];
                        let answers = if lk.is_some() {
                            if prev_eff != Some(e) {
                                fc.c.know_evals += 1;
                            }
                            ans[j]
                        } else {
                            0
                        };
                        prev_eff = Some(e);
                        let key = (e & self.app_mask, answers);
                        let id = match last {
                            Some((k, id)) if k == key => {
                                fc.c.memo_hits += 1;
                                id
                            }
                            _ => {
                                let id = self.config_id(e, key, &ctx.forced, memo, acc, &mut fc.c);
                                last = Some((key, id));
                                id
                            }
                        };
                        acc.sums[id as usize] += p;
                    }
                }
            }
            pos += n as u64;
            until_check = until_check.saturating_sub(n as u64);
        }
        Ok(())
    }

    /// Multi-threaded exact enumeration through the kernel: the state
    /// range is split across `threads` workers, each with its own memo.
    pub fn enumerate_parallel(
        &self,
        threads: usize,
        deps: Option<&FailureDependencies>,
    ) -> ConfigDistribution {
        crate::analysis::assert_enumerable(self.fallible.len(), deps);
        let _span = Span::enter(self.analysis.recorder, Phase::StateScan);
        let threads = threads.max(1);
        let n_states = 1u64 << self.fallible.len();
        let chunk = n_states.div_ceil(threads as u64);
        let contexts = self.contexts(deps);
        let mut dist = ConfigDistribution::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..threads {
                let lo = chunk * t as u64;
                let hi = (lo + chunk).min(n_states);
                if lo >= hi {
                    continue;
                }
                let contexts = &contexts;
                handles.push(scope.spawn(move || {
                    let mut acc = Accumulator::new(self.analysis.space);
                    let mut memo = self.new_memo();
                    for ctx in contexts {
                        memo.clear();
                        self.scan_dispatch(ScanMode::Lanes, ctx, lo, hi, &mut memo, &mut acc, None)
                            .expect("invariant: an unguarded scan has no budget to exhaust");
                    }
                    acc.into_distribution(0)
                }));
            }
            for h in handles {
                dist.merge(
                    h.join()
                        .expect("invariant: enumeration worker never panics"),
                );
            }
        });
        dist.set_states_explored(n_states * contexts.len() as u64);
        dist
    }

    /// Builds one evaluation context per group mask with non-zero
    /// probability (a single unforced context without dependencies).
    fn contexts(&self, deps: Option<&FailureDependencies>) -> Vec<EvalContext> {
        let Some(deps) = deps else {
            return vec![EvalContext {
                gprob: 1.0,
                forced: Vec::new(),
                forced_mask: 0,
                know: None,
            }];
        };
        let n_group_states = 1u64 << deps.group_count();
        let mut out = Vec::new();
        for gmask in 0..n_group_states {
            let gprob = deps.mask_probability(gmask);
            if gprob == 0.0 {
                continue;
            }
            let forced = deps.forced_down(gmask);
            let mut forced_mask = 0u64;
            for &ix in &forced {
                if let Some(b) = self.fallible.iter().position(|&f| f == ix) {
                    forced_mask |= 1u64 << b;
                }
            }
            let know = if forced.is_empty() {
                None
            } else {
                match self.analysis.knowledge {
                    Knowledge::Perfect => None,
                    Knowledge::Mama(table) => Some(
                        table
                            .compile_with_forced(self.analysis.space, &forced)
                            .expect("base table compiled, forced subset must too"),
                    ),
                }
            };
            out.push(EvalContext {
                gprob,
                forced,
                forced_mask,
                know,
            });
        }
        fmperf_obs::add(
            self.analysis.recorder,
            Counter::CcfContexts,
            out.len() as u64,
        );
        out
    }

    /// The interned configuration id for an effective state word: a
    /// memo probe on the decision word (application bits + packed `know`
    /// answers), falling back to the full allocating evaluator on the
    /// first sighting of a pattern.
    fn config_id(
        &self,
        word: u64,
        key: (u64, u64),
        forced: &[usize],
        memo: &mut Memo,
        acc: &mut Accumulator,
        counters: &mut ScanCounters,
    ) -> u32 {
        if let Some(id) = memo.get(key) {
            counters.memo_hits += 1;
            return id;
        }
        let id = self.config_miss(word, key.1, forced, acc, counters);
        memo.insert(key, id);
        id
    }

    /// The memo-miss cold path: solve the configuration behind `word`
    /// and intern it.
    ///
    /// Without forced-down components the masked evaluator
    /// ([`FaultGraph::configuration_masked`]) does the solve
    /// allocation-light, answering every `know` query with a bit test
    /// on the packed answer word the scan already computed.  Forced
    /// contexts keep the canonical state-vector path: their know tables
    /// are recompiled with forced elements removed, which can change
    /// which pairs answer at all.
    #[inline(never)]
    fn config_miss(
        &self,
        word: u64,
        answers: u64,
        forced: &[usize],
        acc: &mut Accumulator,
        counters: &mut ScanCounters,
    ) -> u32 {
        counters.memo_misses += 1;
        let config = match &self.miss_fast {
            Some(fast) if forced.is_empty() => {
                let mut mask = fast.all_up;
                for &(wbit, cbit) in &fast.app_bits {
                    if word & wbit == 0 {
                        mask &= !cbit;
                    }
                }
                let mut gate = AnswerGate {
                    fast,
                    answers,
                    // Perfect knowledge is the empty pair table with
                    // every query defaulting to "knows".
                    default_for_missing: match self.analysis.knowledge {
                        Knowledge::Perfect => true,
                        Knowledge::Mama(_) => self.analysis.unmonitored_known,
                    },
                    policy: self.analysis.policy,
                };
                self.analysis
                    .graph
                    .configuration_masked(mask, &mut gate)
                    .expect("invariant: miss_fast is built only when the model fits 64 components")
            }
            _ => {
                // Reconstruct the state vector and run the reference
                // evaluator (identical code path to the naive
                // enumerator).
                for (b, &ix) in self.fallible.iter().enumerate() {
                    acc.state[ix] = word & (1u64 << b) != 0;
                }
                for &ix in forced {
                    acc.state[ix] = false;
                }
                let config = self.analysis.configuration_of(&acc.state);
                for &ix in forced {
                    acc.state[ix] = true; // restore the all-up baseline
                }
                config
            }
        };
        acc.intern(config)
    }

    /// Samples `samples` random states and estimates the distribution;
    /// the RNG consumption order matches the naive Monte Carlo estimator
    /// exactly, so identical seeds give identical estimates.
    pub(crate) fn monte_carlo_run(
        &self,
        rng: &mut impl rand::Rng,
        samples: u64,
    ) -> ConfigDistribution {
        let mut fc = ScanFlush {
            rec: self.analysis.recorder,
            c: ScanCounters::default(),
        };
        let mut acc = Accumulator::new(self.analysis.space);
        let mut memo = self.new_memo();
        let weight = 1.0 / samples as f64;
        for _ in 0..samples {
            let mut word = 0u64;
            for (b, &p) in self.up.iter().enumerate() {
                if rng.gen::<f64>() < p {
                    word |= 1u64 << b;
                }
            }
            let answers = self
                .know
                .as_ref()
                .map_or(0, |k| k.answers(word, self.analysis.unmonitored_known));
            let key = (word & self.app_mask, answers);
            let id = self.config_id(word, key, &[], &mut memo, &mut acc, &mut fc.c);
            acc.sums[id as usize] += weight;
        }
        fmperf_obs::add(self.analysis.recorder, Counter::MonteCarloSamples, samples);
        acc.into_distribution(samples)
    }

    /// Importance-sampled twin of
    /// [`monte_carlo_run`](CompiledKernel::monte_carlo_run): draws states
    /// from `proposal`'s defensive mixture (built over this kernel's bit
    /// order) and accumulates each sample under its exact
    /// likelihood-ratio weight.  [`Proposal::draw`] fixes the RNG
    /// consumption order for every importance sampler, so a given seed
    /// yields bit-identical weighted estimates on this path and the wide
    /// one.
    ///
    /// [`Proposal::draw`]: crate::importance::Proposal::draw
    pub(crate) fn importance_run(
        &self,
        rng: &mut impl rand::Rng,
        samples: u64,
        proposal: &crate::importance::Proposal,
    ) -> crate::importance::WeightedRun {
        debug_assert_eq!(proposal.bit_count(), self.up.len());
        let mut fc = ScanFlush {
            rec: self.analysis.recorder,
            c: ScanCounters::default(),
        };
        let mut acc = Accumulator::new(self.analysis.space);
        let mut memo = self.new_memo();
        let inv = 1.0 / samples as f64;
        let mut weight_sum = 0.0;
        let mut weight_sq_sum = 0.0;
        for _ in 0..samples {
            let mut word = 0u64;
            let w = proposal.draw(rng, |b, up| {
                if up {
                    word |= 1u64 << b;
                }
            });
            let answers = self
                .know
                .as_ref()
                .map_or(0, |k| k.answers(word, self.analysis.unmonitored_known));
            let key = (word & self.app_mask, answers);
            let id = self.config_id(word, key, &[], &mut memo, &mut acc, &mut fc.c);
            acc.sums[id as usize] += w * inv;
            weight_sum += w;
            weight_sq_sum += w * w;
        }
        fmperf_obs::add(self.analysis.recorder, Counter::MonteCarloSamples, samples);
        crate::importance::WeightedRun {
            distribution: acc.into_distribution(samples),
            weight_sum,
            weight_sq_sum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmperf_ftlqn::examples::das_woodside_system;
    use fmperf_ftlqn::{Component, KnowPolicy};
    use fmperf_mama::{arch, KnowTable};

    #[test]
    fn gray_walk_visits_every_word_exactly_once() {
        let up = [0.9, 0.8, 0.7, 0.6];
        let words: Vec<u64> = GrayWalk::new(&up, 0, 16).map(|(w, _)| w).collect();
        let mut sorted = words.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<u64>>());
        // Consecutive words differ in exactly one bit.
        for pair in words.windows(2) {
            assert_eq!((pair[0] ^ pair[1]).count_ones(), 1);
        }
    }

    #[test]
    fn gray_walk_probabilities_match_direct_products() {
        let up = [0.9, 0.25, 0.5, 0.99];
        let mut total = 0.0;
        for (word, p) in GrayWalk::new(&up, 0, 16) {
            let direct: f64 = up
                .iter()
                .enumerate()
                .map(|(b, &u)| if word & (1 << b) != 0 { u } else { 1.0 - u })
                .product();
            assert!((p - direct).abs() < 1e-14, "word {word:b}: {p} vs {direct}");
            total += p;
        }
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gray_walk_handles_degenerate_probabilities() {
        // up = 0 and up = 1 give zero factors; the walk must report 0
        // probability for the impossible states without poisoning the
        // running product (no 0/0 NaNs).
        let up = [0.0, 1.0, 0.5];
        let mut total = 0.0;
        for (word, p) in GrayWalk::new(&up, 0, 8) {
            assert!(p.is_finite());
            let possible = word & 0b001 == 0 && word & 0b010 != 0;
            assert_eq!(p > 0.0, possible, "word {word:03b} prob {p}");
            total += p;
        }
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gray_walk_subranges_concatenate_to_full_walk() {
        let up = [0.9, 0.3, 0.7, 0.45, 0.2];
        let full: Vec<(u64, f64)> = GrayWalk::new(&up, 0, 32).collect();
        let mut split: Vec<(u64, f64)> = GrayWalk::new(&up, 0, 13).collect();
        split.extend(GrayWalk::new(&up, 13, 32));
        assert_eq!(full.len(), split.len());
        for (i, (f, s)) in full.iter().zip(&split).enumerate() {
            assert_eq!(f.0, s.0, "word at {i}");
            assert!((f.1 - s.1).abs() < 1e-15, "prob at {i}");
        }
    }

    /// Drains a walk through `next_block`, flattening the lanes.
    fn collect_blocks(mut walk: GrayWalk) -> Vec<(u64, f64)> {
        let mut words = [0u64; LANE_WIDTH];
        let mut probs = [0.0f64; LANE_WIDTH];
        let mut out = Vec::new();
        loop {
            let n = walk.next_block(&mut words, &mut probs);
            if n == 0 {
                return out;
            }
            out.extend(words[..n].iter().copied().zip(probs[..n].iter().copied()));
        }
    }

    #[test]
    fn lane_blocks_match_iterator_bit_for_bit() {
        // Including degenerate factors in both the table-driven low
        // bits and the incrementally maintained high bits.
        for up in [
            vec![0.9, 0.25, 0.5, 0.99, 0.4, 0.81],
            vec![0.0, 1.0, 0.5, 0.3, 1.0, 0.7],
            vec![0.6, 0.4], // sub-block state space: scalar fallback
            vec![0.5],
            vec![],
        ] {
            let n = 1u64 << up.len();
            let seq: Vec<(u64, f64)> = GrayWalk::new(&up, 0, n).collect();
            let blocked = collect_blocks(GrayWalk::new(&up, 0, n));
            assert_eq!(seq, blocked, "{} bits", up.len());
        }
    }

    #[test]
    fn lane_block_subranges_concatenate_to_full_walk() {
        // Mirror of `gray_walk_subranges_concatenate_to_full_walk` for
        // the block emitter: unaligned splits force single-state
        // prologue/epilogue emissions that must line up with the full
        // walk's lanes.
        let up = [0.9, 0.3, 0.7, 0.45, 0.2, 0.65];
        let full = collect_blocks(GrayWalk::new(&up, 0, 64));
        for cut in [1u64, 7, 8, 13, 21, 32, 57, 63] {
            let mut split = collect_blocks(GrayWalk::new(&up, 0, cut));
            split.extend(collect_blocks(GrayWalk::new(&up, cut, 64)));
            assert_eq!(full.len(), split.len());
            for (i, (f, s)) in full.iter().zip(&split).enumerate() {
                assert_eq!(f.0, s.0, "cut {cut}: word at {i}");
                assert!((f.1 - s.1).abs() < 1e-15, "cut {cut}: prob at {i}");
            }
        }
    }

    #[test]
    fn kernel_matches_naive_bit_for_bit_on_all_architectures() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        for kind in arch::ArchKind::ALL {
            let mama = arch::build(kind, &sys, 0.1);
            let space = ComponentSpace::build(&sys.model, &mama);
            let table = KnowTable::build(&graph, &mama, &space);
            for policy in [
                KnowPolicy::AnyFailedComponent,
                KnowPolicy::AllFailedComponents,
            ] {
                let analysis = Analysis::new(&graph, &space)
                    .with_knowledge(&table)
                    .with_policy(policy);
                let kernel = analysis.compile().expect("paper models compile");
                // `ConfigDistribution` compares probabilities with `==`:
                // these assert bit-identity, not epsilon closeness.
                let lanes = kernel.enumerate();
                assert_eq!(
                    lanes,
                    analysis.enumerate_naive(),
                    "{}/{policy:?}",
                    kind.name()
                );
                assert_eq!(
                    lanes,
                    kernel.enumerate_scalar(),
                    "lane vs scalar: {}/{policy:?}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn kernel_matches_naive_under_unmonitored_exemption() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let mama = arch::distributed_as_published(&sys, 0.1);
        let space = ComponentSpace::build(&sys.model, &mama);
        let table = KnowTable::build(&graph, &mama, &space);
        let analysis = Analysis::new(&graph, &space)
            .with_knowledge(&table)
            .with_unmonitored_known(true);
        let kernel = analysis.compile().unwrap();
        assert_eq!(kernel.enumerate(), analysis.enumerate_naive());
    }

    #[test]
    fn kernel_matches_naive_with_dependencies() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let mama = arch::centralized(&sys, 0.1);
        let space = ComponentSpace::build(&sys.model, &mama);
        let table = KnowTable::build(&graph, &mama, &space);
        let mut deps = FailureDependencies::new();
        // One group over app components, one reaching into the
        // management plane (forces know-table recompilation).
        deps.add_group(
            "server-rack",
            0.15,
            vec![
                sys.model.component_index(Component::Processor(sys.proc3)),
                sys.model.component_index(Component::Processor(sys.proc4)),
            ],
        );
        let manager = mama.component_by_name("m1").expect("centralized m1");
        deps.add_group("mgmt-rack", 0.1, vec![space.mama_index(manager)]);
        for unmonitored in [false, true] {
            let analysis = Analysis::new(&graph, &space)
                .with_knowledge(&table)
                .with_unmonitored_known(unmonitored);
            let kernel = analysis.compile().unwrap();
            let lanes = kernel.enumerate_with_dependencies(&deps);
            assert_eq!(
                lanes,
                analysis.enumerate_naive_with_dependencies(&deps),
                "unmonitored_known = {unmonitored}"
            );
            assert_eq!(
                lanes,
                kernel.enumerate_scalar_with_dependencies(&deps),
                "lane vs scalar with deps: unmonitored_known = {unmonitored}"
            );
        }
    }

    #[test]
    fn lane_scan_matches_scalar_scan_on_unaligned_subranges() {
        // Thread chunking hands the lane scan arbitrary `[lo, hi)`
        // subranges; it must reproduce the scalar scan's bits on odd and
        // even remainders alike, prologue and epilogue included.
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let mama = arch::hierarchical(&sys, 0.1);
        let space = ComponentSpace::build(&sys.model, &mama);
        let table = KnowTable::build(&graph, &mama, &space);
        let analysis = Analysis::new(&graph, &space).with_knowledge(&table);
        let kernel = analysis.compile().unwrap();
        let contexts = kernel.contexts(None);
        let ctx = &contexts[0];
        for (lo, hi) in [
            (0u64, 1u64),
            (0, 7),
            (3, 29),
            (5, 13),
            (13, 4099),
            (8, 4096),
        ] {
            let mut scalar_acc = Accumulator::new(&space);
            let mut memo = kernel.new_memo();
            kernel
                .scan_range(ctx, lo, hi, &mut memo, &mut scalar_acc, None)
                .unwrap();
            let reference = scalar_acc.into_distribution(hi - lo);
            let mut acc = Accumulator::new(&space);
            let mut memo = kernel.new_memo();
            kernel
                .scan_range_lanes(ctx, lo, hi, &mut memo, &mut acc, None)
                .unwrap();
            assert_eq!(acc.into_distribution(hi - lo), reference, "[{lo}, {hi})");
        }
    }

    #[test]
    fn memo_collapses_state_space_to_few_evaluations() {
        let sys = das_woodside_system();
        let graph = sys.fault_graph().unwrap();
        let mama = arch::hierarchical(&sys, 0.1);
        let space = ComponentSpace::build(&sys.model, &mama);
        let table = KnowTable::build(&graph, &mama, &space);
        let analysis = Analysis::new(&graph, &space).with_knowledge(&table);
        let kernel = analysis.compile().unwrap();
        assert_eq!(kernel.bit_count(), 18);
        let know = kernel.know_table().expect("MAMA knowledge compiled");
        assert!(!know.is_empty() && know.len() <= 64);
        let dist = kernel.enumerate();
        assert_eq!(dist.states_explored(), 1 << 18);
        // 2^18 states collapse onto a handful of configurations.
        assert!(dist.configurations().len() < 64);
        assert!((dist.total_probability() - 1.0).abs() < 1e-9);
    }
}
