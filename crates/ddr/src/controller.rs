//! An open-page, in-order DDR4 controller model.
//!
//! Fidelity targets the bandwidth behaviour the paper's experiments hinge
//! on, at command granularity:
//!
//! * per-bank row state — row hits stream back-to-back, conflicts pay
//!   precharge + activate;
//! * activate pacing (tRRD, tFAW) — the real limiter of scattered access
//!   with deep queues;
//! * a configurable **lookahead** (outstanding-request depth) — a master
//!   with one outstanding read is latency-bound, a deep datamover is
//!   bandwidth-bound;
//! * periodic refresh (tREFI/tRFC) and read↔write bus turnaround.
//!
//! [`DdrController::burst`] prices long bursts through two exact fast
//! paths layered over the per-access model: whole row windows are
//! replayed from a memo of earlier window outcomes, and steady-state
//! stretches of row hits advance in closed form. Both are bit-identical
//! to [`DdrController::access`] called once per column access.

use crate::config::DdrConfig;
use crate::stats::DdrStats;
use crate::telemetry::DdrCounters;
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Bank {
    open_row: Option<u64>,
    /// Cycle the open row was activated (for tRAS).
    act_at: u64,
}

/// The controller. Time is measured in DRAM clock cycles from construction.
///
/// # Example
///
/// ```
/// use zllm_ddr::{DdrConfig, DdrController};
///
/// let mut ctrl = DdrController::new(DdrConfig::ddr4_2400_kv260(), 8);
/// let t0 = ctrl.access(0, false);
/// let t1 = ctrl.access(64, false); // row hit: 4 more bus cycles
/// assert_eq!(t1 - t0, 4);
/// ```
#[derive(Debug, Clone)]
pub struct DdrController {
    cfg: DdrConfig,
    banks: Vec<Bank>,
    /// First cycle the data bus is free.
    bus_next: u64,
    /// Last access direction (for turnaround accounting).
    last_write: Option<bool>,
    /// Times of the most recent activates (for tRRD/tFAW pacing).
    recent_acts: VecDeque<u64>,
    /// Last CAS issue time per bank group (for tCCD_L pacing).
    last_cas_per_group: Vec<u64>,
    /// Next scheduled refresh.
    next_refresh: u64,
    /// Completion times of recent accesses (for the lookahead window).
    completions: VecDeque<u64>,
    lookahead: usize,
    counters: DdrCounters,
    /// Whether [`Self::burst`] may batch steady-state stretches through
    /// the closed-form fast path. On by default; the per-access fallback
    /// is kept reachable for differential testing.
    fast_path: bool,
    /// Address-map geometry derived from `cfg` once at construction, so
    /// the stretch detector does no divisions by recomputed constants.
    geo: Geometry,
    /// Length of the run of trailing completions that form an arithmetic
    /// progression with step `cycles_per_access`, capped at `lookahead`.
    /// The completion window is uniform (`completions[j] == back -
    /// (len-1-j)·cpa`) exactly when this covers the whole deque, which
    /// lets the stretch detector skip the per-element arrival scan. Every
    /// completion extends or restarts the run, so uniformity re-arms as
    /// soon as the deque has turned over.
    uniform_tail: usize,
    /// Outcomes of earlier row windows for [`Self::burst`] to replay.
    memo: WindowMemo,
}

/// Minimum batchable stretch worth the O(lookahead) precondition check.
/// Purely a performance threshold — any value keeps results bit-identical.
const FAST_PATH_MIN_STRETCH: u64 = 8;

/// Slots in the row-window memo (a power of two: the slot is taken from
/// the top bits of the key hash).
const MEMO_SLOTS: usize = 16;

/// Keyed windows per payoff evaluation.
const MEMO_EPOCH: u32 = 64;

/// The memo keeps building keys while at least this share (in quarters)
/// of an epoch's lookups replayed; below it, key building backs off.
const MEMO_MIN_HIT_QUARTERS: u32 = 3;

/// Windows skipped after the first unprofitable epoch; each further
/// unprofitable epoch doubles it, up to [`MEMO_MAX_BACKOFF`].
const MEMO_MIN_BACKOFF: u64 = 64;
const MEMO_MAX_BACKOFF: u64 = 1 << 16;

/// A memo of whole-row-window outcomes.
///
/// A row window's outcome is a pure function of the controller state
/// taken relative to `bus_next`, as long as no refresh or turnaround
/// falls inside it (see [`DdrController::window_key`]). The memo maps
/// that relative state to the relative outcome. It allocates on the first
/// recording, never at construction, and watches its own hit count: when
/// too few lookups replay, it stops building keys for a while.
#[derive(Debug, Clone, Default)]
struct WindowMemo {
    /// Direct-mapped entries (empty until the first recording).
    slots: Vec<WindowEntry>,
    /// Scratch buffer for the key of the window being priced.
    key: Vec<u64>,
    /// Keyed windows and replayed windows in the current evaluation epoch.
    lookups: u32,
    replays: u32,
    /// Whole windows still to price without building a key.
    skip: u64,
    /// Windows to skip after the next unprofitable epoch.
    backoff: u64,
    /// Windows priced and windows replayed since construction.
    #[cfg(test)]
    windows: u64,
    #[cfg(test)]
    replayed: u64,
}

impl WindowMemo {
    /// The slot a key maps to.
    fn slot_of(key: &[u64]) -> usize {
        let h = key.iter().fold(0u64, |h, &w| {
            (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
        });
        (h >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
    }

    /// Counts `windows` keyed windows, `replayed` of them replayed, and
    /// at the end of an epoch backs off key building if too few replayed.
    fn tally(&mut self, windows: u32, replayed: u32) {
        self.lookups += windows;
        self.replays += replayed;
        if self.lookups >= MEMO_EPOCH {
            if self.replays * 4 < self.lookups * MEMO_MIN_HIT_QUARTERS {
                self.backoff = self.backoff.clamp(MEMO_MIN_BACKOFF, MEMO_MAX_BACKOFF);
                self.skip = self.backoff;
                self.backoff *= 2;
            } else {
                self.backoff = 0;
            }
            self.lookups = 0;
            self.replays = 0;
        }
    }
}

/// One recorded row window: its key and its outcome. Outcome times are
/// offsets from the window's starting `bus_next` (wrapping, since CAS
/// issue times can precede it).
#[derive(Debug, Clone, Default)]
struct WindowEntry {
    key: Vec<u64>,
    /// `bus_next` minus the oldest completion when the window starts.
    c_min_age: u64,
    /// Whether the state after the window has the same history part of
    /// the key (everything but the row statuses) as the state before it,
    /// so the entry can replay again for the next window after checking
    /// only that window's row statuses.
    steady: bool,
    /// Bus time when the window's last transfer completes.
    end: u64,
    row_hits: u64,
    row_misses: u64,
    row_conflicts: u64,
    /// `(bank group, act_at)` of every bank the window activated.
    bank_acts: Vec<(usize, u64)>,
    /// The window's activates, oldest first (the last four at most).
    acts: Vec<u64>,
    /// Last CAS issue time of every bank group.
    last_cas: Vec<u64>,
    /// The whole completion window after the window.
    completions: Vec<u64>,
    /// `uniform_tail` after the window.
    uniform_tail: usize,
}

/// The key word of one target bank's row status: 0 for a hit, 1 for a
/// miss, and for a conflict `2 +` the bank's earliest precharge time
/// (`act_at + tRAS`) clamped to `c_min`, as an offset from `c_min`.
fn row_status(bank: &Bank, row: u64, c_min: u64, tras: u64) -> u64 {
    match bank.open_row {
        Some(r) if r == row => 0,
        None => 1,
        Some(_) => 2 + (bank.act_at + tras).max(c_min) - c_min,
    }
}

/// Derived address-map constants (see [`DdrConfig::map_address`]).
#[derive(Debug, Clone, Copy)]
struct Geometry {
    /// Bytes per column access.
    bpa: u64,
    /// Data-bus cycles per column access.
    cpa: u64,
    /// Bank-group count (≥ 1).
    bgc: u64,
    /// Banks per group (≥ 1).
    bpg: u64,
    /// Accesses per row window (`bank_groups × cols_per_bg`): the span a
    /// sequential stream covers before needing fresh activates.
    window: u64,
    /// `log2` of bytes per access, bank groups, columns per group and
    /// banks per group when all four are powers of two (every preset),
    /// so [`Self::locate`] decodes addresses without dividing.
    shifts: Option<[u32; 4]>,
}

impl Geometry {
    /// The row and first bank of the row window containing access index
    /// `a`; the window's banks are the next `bgc` after it, one per group.
    fn window_banks(&self, a: u64) -> (u64, usize) {
        let w = a / self.window;
        (w / self.bpg, ((w % self.bpg) * self.bgc) as usize)
    }

    /// `(row, bank, bank group)` of `addr`, exactly as
    /// [`DdrConfig::map_address`] and [`DdrConfig::bank_group_of`] give
    /// them.
    fn locate(&self, cfg: &DdrConfig, addr: u64) -> (u64, usize, usize) {
        match self.shifts {
            Some([bpa, bgc, cols, bpg]) => {
                let access = addr >> bpa;
                let group = access & ((1 << bgc) - 1);
                let rest = access >> (bgc + cols);
                let bank = group + ((rest & ((1 << bpg) - 1)) << bgc);
                (rest >> bpg, bank as usize, group as usize)
            }
            None => {
                let (row, bank, _col) = cfg.map_address(addr);
                (row, bank as usize, cfg.bank_group_of(bank) as usize)
            }
        }
    }

    fn of(cfg: &DdrConfig) -> Geometry {
        let bpa = cfg.bytes_per_access();
        let bgc = cfg.bank_groups.max(1) as u64;
        let cols_per_bg = (cfg.accesses_per_row() / bgc).max(1);
        let bpg = (cfg.banks as u64 / bgc).max(1);
        let sizes = [bpa, bgc, cols_per_bg, bpg];
        Geometry {
            bpa,
            cpa: cfg.cycles_per_access(),
            bgc,
            bpg,
            window: bgc * cols_per_bg,
            shifts: sizes
                .iter()
                .all(|d| d.is_power_of_two())
                .then(|| sizes.map(u64::trailing_zeros)),
        }
    }
}

impl DdrController {
    /// Creates a controller.
    ///
    /// `lookahead` is the number of outstanding requests the master keeps
    /// in flight: 1 models a blocking reader; 8 models the AXI DataMover
    /// configuration of the accelerator's MCU.
    ///
    /// # Panics
    ///
    /// Panics if `lookahead` is zero.
    pub fn new(cfg: DdrConfig, lookahead: usize) -> DdrController {
        DdrController::with_counters(cfg, lookahead, DdrCounters::detached())
    }

    /// Creates a controller publishing into the given telemetry handles
    /// (typically obtained from [`DdrCounters::register`]).
    ///
    /// # Panics
    ///
    /// Panics if `lookahead` is zero.
    pub fn with_counters(cfg: DdrConfig, lookahead: usize, counters: DdrCounters) -> DdrController {
        assert!(lookahead > 0, "lookahead must be at least 1");
        let banks = vec![Bank::default(); cfg.banks as usize];
        let next_refresh = cfg.trefi as u64;
        let last_cas_per_group = vec![0u64; cfg.bank_groups.max(1) as usize];
        let geo = Geometry::of(&cfg);
        DdrController {
            cfg,
            banks,
            bus_next: 0,
            last_write: None,
            recent_acts: VecDeque::with_capacity(4),
            last_cas_per_group,
            next_refresh,
            completions: VecDeque::with_capacity(lookahead + 1),
            lookahead,
            counters,
            fast_path: true,
            geo,
            uniform_tail: 0,
            memo: WindowMemo::default(),
        }
    }

    /// Enables or disables the burst fast paths — row-window replay and
    /// closed-form stretches (on by default). Disabling forces
    /// [`Self::burst`] through the per-access reference path; results are
    /// bit-identical either way — the toggle exists so differential tests
    /// can prove exactly that.
    pub fn set_fast_path(&mut self, enabled: bool) {
        self.fast_path = enabled;
    }

    /// Whether the burst fast path is enabled.
    pub fn fast_path(&self) -> bool {
        self.fast_path
    }

    /// The configuration.
    pub fn config(&self) -> &DdrConfig {
        &self.cfg
    }

    /// Cumulative statistics (a value-type view over the live counters).
    pub fn stats(&self) -> DdrStats {
        self.counters.view()
    }

    /// The telemetry handles this controller publishes into.
    pub fn counters(&self) -> &DdrCounters {
        &self.counters
    }

    /// Current cycle (when the bus next falls idle).
    pub fn now(&self) -> u64 {
        self.bus_next
    }

    /// Performs one column access (64 bytes on the KV260) and returns the
    /// cycle its data transfer completes. Accesses complete in order.
    pub fn access(&mut self, addr: u64, write: bool) -> u64 {
        let cfg = &self.cfg;

        // The request cannot be processed before the master has a free
        // outstanding slot.
        let arrival = if self.completions.len() >= self.lookahead {
            self.completions[self.completions.len() - self.lookahead]
        } else {
            0
        };

        // Refresh: when the bus timeline crosses tREFI, all banks close and
        // the device is busy for tRFC.
        while self.bus_next.max(arrival) >= self.next_refresh {
            for b in &mut self.banks {
                b.open_row = None;
            }
            let refresh_start = self.next_refresh.max(self.bus_next);
            self.bus_next = refresh_start + cfg.trfc as u64;
            self.next_refresh += cfg.trefi as u64;
            self.counters.refreshes.inc();
        }

        let (row, bank_idx, group) = self.geo.locate(cfg, addr);
        let tras = cfg.tras as u64;
        let trp = cfg.trp as u64;
        let trcd = cfg.trcd as u64;

        // Activate pacing across banks.
        let act_pacing = {
            let rrd = self.recent_acts.back().map_or(0, |&t| t + cfg.trrd as u64);
            let faw = if self.recent_acts.len() >= 4 {
                self.recent_acts[self.recent_acts.len() - 4] + cfg.tfaw as u64
            } else {
                0
            };
            rrd.max(faw)
        };

        let bank = &mut self.banks[bank_idx];
        let cas_ready = match bank.open_row {
            Some(r) if r == row => {
                self.counters.row_hits.inc();
                arrival
            }
            Some(_) => {
                self.counters.row_conflicts.inc();
                let t_pre = arrival.max(bank.act_at + tras);
                let t_act = (t_pre + trp).max(act_pacing);
                bank.open_row = Some(row);
                bank.act_at = t_act;
                self.recent_acts.push_back(t_act);
                t_act + trcd
            }
            None => {
                self.counters.row_misses.inc();
                let t_act = arrival.max(act_pacing);
                bank.open_row = Some(row);
                bank.act_at = t_act;
                self.recent_acts.push_back(t_act);
                t_act + trcd
            }
        };
        while self.recent_acts.len() > 4 {
            self.recent_acts.pop_front();
        }

        // Bus turnaround on direction change.
        if let Some(prev) = self.last_write {
            if prev != write {
                self.bus_next += if write {
                    cfg.trtw as u64
                } else {
                    cfg.twtr as u64
                };
                self.counters.turnarounds.inc();
            }
        }
        self.last_write = Some(write);

        // Same-bank-group CAS spacing (tCCD_L). Cross-group spacing
        // (tCCD_S) equals the burst occupancy and is absorbed by the bus
        // accounting below.
        let cfg = &self.cfg;
        let cas_at = cas_ready.max(self.last_cas_per_group[group] + cfg.tccd_l as u64);

        let latency = if write { cfg.cwl as u64 } else { cfg.cl as u64 };
        let data_start = (cas_at + latency).max(self.bus_next);
        let data_end = data_start + cfg.cycles_per_access();
        self.bus_next = data_end;
        // Record when the CAS *effectively* issued (bus backpressure
        // delays it), so same-group pacing measures real command spacing.
        self.last_cas_per_group[group] = data_start - latency;

        if write {
            self.counters.writes.inc();
        } else {
            self.counters.reads.inc();
        }

        self.uniform_tail = if self
            .completions
            .back()
            .is_some_and(|&b| data_end == b + self.geo.cpa)
        {
            (self.uniform_tail + 1).min(self.lookahead)
        } else {
            1
        };
        self.completions.push_back(data_end);
        while self.completions.len() > self.lookahead {
            self.completions.pop_front();
        }
        data_end
    }

    /// Runs a whole burst (consecutive accesses) and returns the completion
    /// cycle of its last beat.
    ///
    /// Long bursts spend almost all their accesses in analytically
    /// predictable states. When [`Self::fast_path`] is enabled (the
    /// default), every whole row window of the burst is first looked up
    /// in a memo of earlier windows keyed by the controller state relative
    /// to the bus time and replayed in one update on a hit. Windows that miss, and the partial windows at either end
    /// of the burst, run through the closed-form steady-stretch path,
    /// which prices runs of row hits in open banks in O(1) and falls back
    /// to the per-access path at every hazard (row crossing, refresh
    /// epoch, turnaround, pacing stall, shallow lookahead). All paths
    /// produce **bit-identical** cycle counts, statistics and telemetry —
    /// see the differential tests and the `proptest` suite.
    pub fn burst(&mut self, addr: u64, beats: u32, write: bool) -> u64 {
        let step = self.geo.bpa;
        let total = beats as u64;
        if !self.fast_path {
            for i in 0..total {
                self.access(addr + i * step, write);
            }
            return self.bus_next;
        }
        let window = self.geo.window;
        let first = addr / step;
        let mut i = ((window - first % window) % window).min(total);
        self.stream(addr, i, write);
        while total - i >= window {
            let k = self.row_windows(addr + i * step, first + i, (total - i) / window, write);
            #[cfg(test)]
            {
                self.memo.windows += k;
            }
            i += k * window;
        }
        self.stream(addr + i * step, total - i, write);
        self.bus_next
    }

    /// Prices `n` consecutive accesses from `addr` through the steady
    /// stretch path, falling back to [`Self::access`] between stretches.
    fn stream(&mut self, addr: u64, n: u64, write: bool) {
        let step = self.geo.bpa;
        let mut i = 0;
        while i < n {
            let a = addr + i * step;
            let k = self.steady_stretch(a, n - i, write);
            if k > 0 {
                self.apply_steady_stretch(a, k, write);
                i += k;
            } else {
                self.access(a, write);
                i += 1;
            }
        }
    }

    /// Prices whole row windows from `addr` (access index `a0`), at most
    /// `max` of them, and returns how many it priced. A window whose key
    /// was recorded, and inside which no refresh can fall, is replayed
    /// from the memo, together with the following windows a steady entry
    /// covers; any other window is streamed and, if it ran without a
    /// refresh, recorded.
    fn row_windows(&mut self, addr: u64, a0: u64, max: u64, write: bool) -> u64 {
        let window = self.geo.window;
        if self.memo.skip > 0 {
            self.memo.skip -= 1;
        } else if self.window_key(a0, write) {
            let slot = WindowMemo::slot_of(&self.memo.key);
            let hit = self
                .memo
                .slots
                .get(slot)
                .is_some_and(|e| e.key == self.memo.key);
            if !hit {
                self.memo.tally(1, 0);
                self.record_window(slot, addr, a0, write);
                return 1;
            }
            // The refresh check before the window's last access sees a bus
            // time at most one transfer before the window's end.
            if self.bus_next + self.memo.slots[slot].end - self.geo.cpa < self.next_refresh {
                let k = self.replay_windows(slot, a0, max, write);
                self.memo.tally(k as u32, k as u32);
                return k;
            }
            self.memo.tally(1, 0);
        }
        self.stream(addr, window, write);
        1
    }

    /// Builds the replay key of the row window starting at access index
    /// `a0` into `self.memo.key`, or returns `false` when the state cannot
    /// be keyed: a turnaround is pending, the lookahead window is not yet
    /// full, or the history is too close to cycle 0 to clamp.
    ///
    /// Without refresh or turnaround, a window's accesses read only the
    /// state this key holds, all relative to the oldest completion
    /// `c_min` (the first access's arrival):
    ///
    /// * the direction (CAS latency);
    /// * each target bank's row status — hit, miss, or conflict with its
    ///   `act_at + tRAS` ([`row_status`]);
    /// * the last four activate times (tRRD, tFAW);
    /// * each bank group's last CAS time plus tCCD_L;
    /// * the completion window itself (arrivals), as one marker word when
    ///   it is uniform.
    ///
    /// Every comparison inside the window is a `max` against a time no
    /// earlier than `c_min`, since each access arrives no earlier than the
    /// oldest completion. A history time that is at most `c_min` after its
    /// pacing offset therefore cannot bind, and it is clamped to `c_min`;
    /// that makes the key repeat from window to window of a steady stream.
    fn window_key(&mut self, a0: u64, write: bool) -> bool {
        let l = self.lookahead;
        if self.last_write != Some(write) || self.completions.len() != l {
            return false;
        }
        let cfg = &self.cfg;
        let c_min = self.completions[0];
        let act_span = (cfg.trrd.max(cfg.tfaw)) as u64;
        // A missing activate (fewer than four so far) never binds; an
        // entry clamped to `c_min - act_span` is equivalent only if that
        // floor is a real time.
        if c_min < act_span {
            return false;
        }
        let act_floor = c_min - act_span;
        let tras = cfg.tras as u64;
        let tccd_l = cfg.tccd_l as u64;
        let (row, first_bank) = self.geo.window_banks(a0);
        let bus0 = self.bus_next;
        let key = &mut self.memo.key;
        key.clear();
        key.push(write as u64);
        key.extend(
            self.banks[first_bank..first_bank + self.geo.bgc as usize]
                .iter()
                .map(|b| row_status(b, row, c_min, tras)),
        );
        key.extend(std::iter::repeat_n(0, 4 - self.recent_acts.len()));
        key.extend(
            self.recent_acts
                .iter()
                .map(|&t| t.max(act_floor) - act_floor),
        );
        key.extend(
            self.last_cas_per_group
                .iter()
                .map(|&t| (t + tccd_l).max(c_min) - c_min),
        );
        if self.uniform_tail >= l {
            key.push(u64::MAX);
        } else {
            key.extend(self.completions.iter().map(|&c| bus0 - c));
        }
        true
    }

    /// Streams the window keyed in `self.memo.key` and, if no refresh
    /// fell inside it, records its outcome in `slot`.
    fn record_window(&mut self, slot: usize, addr: u64, a0: u64, write: bool) {
        let bus0 = self.bus_next;
        let c_min_age = bus0 - self.completions[0];
        let c = &self.counters;
        let before = (
            c.row_hits.get(),
            c.row_misses.get(),
            c.row_conflicts.get(),
            c.refreshes.get(),
        );
        self.stream(addr, self.geo.window, write);
        let c = &self.counters;
        if c.refreshes.get() != before.3 {
            return;
        }
        let memo = &mut self.memo;
        if memo.slots.is_empty() {
            memo.slots.resize_with(MEMO_SLOTS, WindowEntry::default);
        }
        let e = &mut memo.slots[slot];
        e.key.clone_from(&memo.key);
        e.c_min_age = c_min_age;
        e.end = self.bus_next - bus0;
        e.row_hits = c.row_hits.get() - before.0;
        e.row_misses = c.row_misses.get() - before.1;
        e.row_conflicts = c.row_conflicts.get() - before.2;
        let (_, first_bank) = self.geo.window_banks(a0);
        e.bank_acts.clear();
        e.bank_acts.extend(
            (0..self.geo.bgc as usize)
                .filter(|&g| memo.key[1 + g] != 0)
                .map(|g| (g, self.banks[first_bank + g].act_at.wrapping_sub(bus0))),
        );
        let acts = (e.row_misses + e.row_conflicts).min(4) as usize;
        e.acts.clear();
        e.acts.extend(
            self.recent_acts
                .range(self.recent_acts.len() - acts..)
                .map(|&t| t.wrapping_sub(bus0)),
        );
        e.last_cas.clear();
        e.last_cas.extend(
            self.last_cas_per_group
                .iter()
                .map(|&t| t.wrapping_sub(bus0)),
        );
        e.completions.clear();
        e.completions
            .extend(self.completions.iter().map(|&t| t.wrapping_sub(bus0)));
        e.uniform_tail = self.uniform_tail;
        // Steady when the next window's key differs from this one at most
        // in its row statuses.
        let statuses = 1 + self.geo.bgc as usize;
        let steady = self.window_key(a0 + self.geo.window, write) && {
            let e = &self.memo.slots[slot];
            self.memo.key[statuses..] == e.key[statuses..]
        };
        self.memo.slots[slot].steady = steady;
    }

    /// Replays the entry in `slot` over the row window starting at access
    /// index `a0` and, while the entry is steady, over up to `max - 1`
    /// following windows whose row statuses match its key and that end
    /// before the next refresh. Returns the number of windows replayed
    /// and leaves exactly the state the per-access path would.
    fn replay_windows(&mut self, slot: usize, a0: u64, max: u64, write: bool) -> u64 {
        let e = &self.memo.slots[slot];
        let geo = self.geo;
        let tras = self.cfg.tras as u64;
        let statuses = &e.key[1..1 + geo.bgc as usize];
        let mut bus0 = self.bus_next;
        let mut w = a0;
        let mut k = 0;
        loop {
            let (row, first_bank) = geo.window_banks(w);
            for &(g, act_at) in &e.bank_acts {
                let bank = &mut self.banks[first_bank + g];
                bank.open_row = Some(row);
                bank.act_at = bus0.wrapping_add(act_at);
            }
            k += 1;
            if !e.steady || k == max {
                break;
            }
            // Chain into the next window only if its key equals this
            // entry's: the history part holds by steadiness, so compare
            // the row statuses, then check the refresh headroom.
            let next = bus0 + e.end;
            let c_min = next - e.c_min_age;
            w += geo.window;
            let (row, first_bank) = geo.window_banks(w);
            let same = self.banks[first_bank..first_bank + geo.bgc as usize]
                .iter()
                .zip(statuses)
                .all(|(b, &s)| row_status(b, row, c_min, tras) == s);
            if !same || next + e.end - geo.cpa >= self.next_refresh {
                break;
            }
            bus0 = next;
        }
        // History state after the last window; activates can reach back
        // up to four windows when each window issues fewer than four.
        for j in k.saturating_sub(4)..k {
            let base = bus0 - (k - 1 - j) * e.end;
            replace_tail(&mut self.recent_acts, 4, &e.acts, base);
        }
        for (cas, &t) in self.last_cas_per_group.iter_mut().zip(&e.last_cas) {
            *cas = bus0.wrapping_add(t);
        }
        replace_tail(&mut self.completions, self.lookahead, &e.completions, bus0);
        self.uniform_tail = e.uniform_tail;
        self.bus_next = bus0 + e.end;
        let c = &self.counters;
        c.row_hits.add(k * e.row_hits);
        c.row_misses.add(k * e.row_misses);
        c.row_conflicts.add(k * e.row_conflicts);
        if write {
            c.writes.add(k * geo.window);
        } else {
            c.reads.add(k * geo.window);
        }
        #[cfg(test)]
        {
            self.memo.replayed += k;
        }
        k
    }

    /// Length of the steady-state stretch starting at `addr` that can be
    /// priced in closed form, or 0 if the per-access path must run.
    ///
    /// A stretch of `n` accesses qualifies exactly when every one of them
    /// would take the same branch through [`Self::access`]: a row hit in
    /// an open bank, same bus direction, no refresh epoch crossed, and a
    /// data-bus-bound CAS (neither the lookahead window, nor tCCD_L
    /// pacing, nor CAS latency delays the transfer beyond the bus). The
    /// first `lookahead` accesses draw their arrival times from the
    /// pre-existing completion window and the first `bank_groups` their
    /// CAS spacing from pre-existing issue times, so those are checked
    /// individually; beyond them both hazards repeat with a fixed period
    /// and two closed-form inequalities cover the entire tail.
    fn steady_stretch(&self, addr: u64, max_n: u64, write: bool) -> u64 {
        let geo = self.geo;
        // Direction must match (no turnaround, and not the first access).
        if self.last_write != Some(write) || geo.cpa == 0 {
            return 0;
        }
        let cpa = geo.cpa;
        let lat = if write { self.cfg.cwl } else { self.cfg.cl } as u64;
        let l = self.lookahead as u64;
        let bgc = geo.bgc;
        let tccd_l = self.cfg.tccd_l as u64;
        // Tail conditions (periodic hazards, checked once per config):
        // arrival of access i (= completion of access i-lookahead) plus
        // CAS latency must hide under the bus, and same-group CAS spacing
        // (period bank_groups) must exceed tCCD_L.
        if lat > (l - 1) * cpa || tccd_l > bgc * cpa {
            return 0;
        }
        // Refresh headroom: access i runs at bus time bus0 + i*cpa and
        // must stay strictly below the next refresh epoch.
        let bus0 = self.bus_next;
        if bus0 >= self.next_refresh {
            return 0;
        }
        let refresh_cap = (self.next_refresh - bus0 - 1) / cpa + 1;
        // Row-window cap: consecutive accesses cycle through one bank per
        // group within a window; the next window needs activates.
        let a0 = addr / geo.bpa;
        let window_cap = geo.window - (a0 % geo.window);
        let mut n = max_n.min(refresh_cap).min(window_cap);
        if n < FAST_PATH_MIN_STRETCH {
            return 0;
        }
        // Every distinct (row, bank) of the stretch appears within its
        // first `bank_groups` accesses; all share the stretch's row window
        // (one div), differing only in bank group — all must be open hits.
        let window_idx = a0 / geo.window;
        let bank_in_group = window_idx % geo.bpg;
        let row = window_idx / geo.bpg;
        let mut bg = a0 % bgc;
        for _ in 0..n.min(bgc) {
            let bank = (bg + bank_in_group * bgc) as usize;
            if self.banks[bank].open_row != Some(row) {
                return 0;
            }
            bg += 1;
            if bg == bgc {
                bg = 0;
            }
        }
        // Head arrival checks: the first `lookahead` accesses see
        // completions recorded before the stretch. Beyond index
        // `lookahead` the arrival is a completion from inside the stretch
        // and the tail condition above already covers it.
        let m = self.completions.len() as u64;
        let head = n.min(l);
        // Steady-state shortcut: when the pre-existing window is already a
        // full arithmetic progression ending at the current bus time, the
        // per-element arrival check reduces to the tail inequality above.
        if self.uniform_tail == self.lookahead && m == l && self.completions.back() == Some(&bus0) {
            let mut bg = a0 % bgc;
            for i in 0..n.min(bgc) {
                if self.last_cas_per_group[bg as usize] + tccd_l + lat > bus0 + i * cpa {
                    n = i;
                    break;
                }
                bg += 1;
                if bg == bgc {
                    bg = 0;
                }
            }
            return if n < FAST_PATH_MIN_STRETCH { 0 } else { n };
        }
        // Accesses whose lookahead window is not yet full see arrival 0;
        // the binding case is i = 0.
        let zero_head = l.saturating_sub(m).min(head);
        if zero_head > 0 && lat > bus0 {
            return 0;
        }
        if head > zero_head {
            let k0 = (m + zero_head - l) as usize;
            let take = (head - zero_head) as usize;
            for (i, &c) in (zero_head..).zip(self.completions.iter().skip(k0).take(take)) {
                if c + lat > bus0 + i * cpa {
                    n = i;
                    break;
                }
            }
        }
        // Head tCCD_L checks: the first `bank_groups` accesses pace
        // against CAS times issued before the stretch.
        let mut bg = a0 % bgc;
        for i in 0..n.min(bgc) {
            if self.last_cas_per_group[bg as usize] + tccd_l + lat > bus0 + i * cpa {
                n = i;
                break;
            }
            bg += 1;
            if bg == bgc {
                bg = 0;
            }
        }
        if n < FAST_PATH_MIN_STRETCH {
            0
        } else {
            n
        }
    }

    /// Advances the controller over `n` steady-state accesses in one
    /// batched update, reproducing exactly the state the per-access path
    /// would leave: `n` row hits at bus rate, per-group CAS issue times,
    /// and the trailing `lookahead` completion window. Banks, activate
    /// history and the refresh schedule are untouched — a steady stretch
    /// never changes them.
    fn apply_steady_stretch(&mut self, addr: u64, n: u64, write: bool) {
        let geo = self.geo;
        let cpa = geo.cpa;
        let lat = if write { self.cfg.cwl } else { self.cfg.cl } as u64;
        let bgc = geo.bgc;
        let a0 = addr / geo.bpa;
        let bus0 = self.bus_next;
        self.bus_next = bus0 + n * cpa;
        self.counters.row_hits.add(n);
        if write {
            self.counters.writes.add(n);
        } else {
            self.counters.reads.add(n);
        }
        // The last `bank_groups` accesses each touch a distinct group;
        // their effective CAS issue time is data_start - latency.
        let mut bg = (a0 + n - 1) % bgc;
        for j in 0..n.min(bgc) {
            let i = n - 1 - j;
            self.last_cas_per_group[bg as usize] = bus0 + i * cpa - lat;
            bg = if bg == 0 { bgc - 1 } else { bg - 1 };
        }
        // Completion window: keep the trailing `lookahead` completions.
        let l = self.lookahead as u64;
        if n >= l {
            self.completions.clear();
            let first = bus0 + (n - l + 1) * cpa;
            self.completions.extend((0..l).map(|j| first + j * cpa));
            self.uniform_tail = self.lookahead;
        } else {
            self.uniform_tail = if self.completions.back() == Some(&bus0) {
                (self.uniform_tail + n as usize).min(self.lookahead)
            } else {
                n as usize
            };
            self.completions
                .extend((0..n).map(|i| bus0 + (i + 1) * cpa));
            while self.completions.len() > self.lookahead {
                self.completions.pop_front();
            }
        }
    }
}

/// Appends `bus0 + t` for each offset `t` to `deque`, keeping its last
/// `cap` elements.
fn replace_tail(deque: &mut VecDeque<u64>, cap: usize, offsets: &[u64], bus0: u64) {
    if offsets.len() >= cap {
        deque.clear();
    } else {
        let keep = cap - offsets.len();
        if deque.len() > keep {
            deque.drain(..deque.len() - keep);
        }
    }
    deque.extend(offsets.iter().map(|&t| bus0.wrapping_add(t)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl(lookahead: usize) -> DdrController {
        DdrController::new(DdrConfig::ddr4_2400_kv260(), lookahead)
    }

    #[test]
    fn shift_decode_matches_the_address_map() {
        let odd = DdrConfig {
            banks: 12,
            bank_groups: 3,
            ..DdrConfig::ddr4_2400_kv260()
        };
        assert!(Geometry::of(&odd).shifts.is_none());
        let mut x = 0x243f_6a88_85a3_08d3u64;
        for cfg in presets().into_iter().chain([odd]) {
            let geo = Geometry::of(&cfg);
            for _ in 0..4096 {
                let addr = xorshift(&mut x) % (1 << 34);
                let (row, bank, _col) = cfg.map_address(addr);
                let group = cfg.bank_group_of(bank) as usize;
                assert_eq!(
                    geo.locate(&cfg, addr),
                    (row, bank as usize, group),
                    "{addr:#x}"
                );
            }
        }
        assert!(presets().iter().all(|c| Geometry::of(c).shifts.is_some()));
    }

    #[test]
    fn row_hits_stream_at_bus_rate() {
        let mut c = ctrl(8);
        let mut prev = c.access(0, false);
        for i in 1..64u64 {
            let t = c.access(i * 64, false);
            assert_eq!(t - prev, 4, "beat {i} should follow seamlessly");
            prev = t;
        }
        // The bank-group-interleaved mapping opens one bank per group for
        // this window: 4 misses, 60 hits.
        assert_eq!(c.stats().row_hits, 60);
        assert_eq!(c.stats().row_misses, 4);
    }

    #[test]
    fn first_access_pays_activate_plus_cas() {
        let c_cfg = DdrConfig::ddr4_2400_kv260();
        let mut c = ctrl(1);
        let t = c.access(0, false);
        assert_eq!(
            t,
            (c_cfg.trcd + c_cfg.cl) as u64 + c_cfg.cycles_per_access()
        );
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut c = ctrl(1);
        let t0 = c.access(0, false);
        // Same bank (bank 0), different row: rows advance every
        // row_bytes × banks bytes.
        let conflict_addr = 8192 * 16;
        let t1 = c.access(conflict_addr, false);
        // Must wait at least tRAS from the first activate, then tRP + tRCD
        // + CL + transfer.
        assert!(t1 - t0 > 40, "conflict only took {} cycles", t1 - t0);
        assert_eq!(c.stats().row_conflicts, 1);
    }

    #[test]
    fn sequential_crossing_rows_uses_bank_interleaving() {
        // Stream 4 full rows; activates of later banks overlap with data of
        // earlier ones, so efficiency stays high.
        let mut c = ctrl(8);
        let beats = 4 * 128u64;
        let start = 0;
        let mut end = 0;
        for i in 0..beats {
            end = c.access(start + i * 64, false);
        }
        let busy = end;
        let min_cycles = beats * 4;
        assert!(
            (busy as f64) < min_cycles as f64 * 1.15,
            "sequential stream took {busy} cycles vs minimum {min_cycles}"
        );
    }

    #[test]
    fn lookahead_hides_latency_of_scattered_reads() {
        let addrs: Vec<u64> = (0..512u64).map(|i| (i * 7919 * 64) % (1 << 28)).collect();
        let mut shallow = ctrl(1);
        let mut deep = ctrl(16);
        let mut end_s = 0;
        let mut end_d = 0;
        for &a in &addrs {
            end_s = shallow.access(a, false);
        }
        for &a in &addrs {
            end_d = deep.access(a, false);
        }
        assert!(
            end_d * 2 < end_s,
            "deep queue ({end_d}) should be at least 2x faster than shallow ({end_s})"
        );
    }

    #[test]
    fn refresh_fires_periodically() {
        let cfg = DdrConfig::ddr4_2400_kv260();
        let mut c = ctrl(8);
        // Stream enough data to cross several refresh intervals.
        let beats = 40_000u64;
        for i in 0..beats {
            c.access(i * 64, false);
        }
        let elapsed = c.now();
        let expected = elapsed / cfg.trefi as u64;
        let got = c.stats().refreshes;
        assert!(
            got >= expected.saturating_sub(1) && got <= expected + 1,
            "elapsed {elapsed} cycles should contain ~{expected} refreshes, got {got}"
        );
    }

    #[test]
    fn turnarounds_counted_on_direction_change() {
        let mut c = ctrl(4);
        c.access(0, false);
        c.access(64, true);
        c.access(128, false);
        assert_eq!(c.stats().turnarounds, 2);
        assert_eq!(c.stats().writes, 1);
        assert_eq!(c.stats().reads, 2);
    }

    #[test]
    fn completions_are_monotone() {
        let mut c = ctrl(4);
        let mut prev = 0;
        for i in 0..200u64 {
            let a = (i * 5237 * 64) % (1 << 26);
            let t = c.access(a, false);
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn burst_helper_matches_manual_loop() {
        let mut a = ctrl(8);
        let mut b = ctrl(8);
        let end_a = a.burst(4096, 32, false);
        let mut end_b = 0;
        for i in 0..32u64 {
            end_b = b.access(4096 + i * 64, false);
        }
        assert_eq!(end_a, end_b);
    }

    /// Everything the timing model reads: the fast paths must leave
    /// exactly the state the per-access path does, not merely the same
    /// completion times (a stale pacing time can bind much later).
    #[allow(clippy::type_complexity)]
    fn model_state(
        c: &DdrController,
    ) -> (
        &[Bank],
        u64,
        Option<bool>,
        &VecDeque<u64>,
        &[u64],
        u64,
        &VecDeque<u64>,
        usize,
    ) {
        (
            &c.banks,
            c.bus_next,
            c.last_write,
            &c.recent_acts,
            &c.last_cas_per_group,
            c.next_refresh,
            &c.completions,
            c.uniform_tail,
        )
    }

    /// Replays `(addr, beats, write)` bursts through a fast-path and a
    /// per-access controller, asserts bit-identical completion cycles,
    /// statistics and model state at every burst boundary, and returns
    /// the fast-path controller.
    fn assert_fast_matches_slow(
        cfg: DdrConfig,
        lookahead: usize,
        bursts: &[(u64, u32, bool)],
    ) -> DdrController {
        let mut fast = DdrController::new(cfg.clone(), lookahead);
        let mut slow = DdrController::new(cfg, lookahead);
        slow.set_fast_path(false);
        assert!(fast.fast_path() && !slow.fast_path());
        for (i, &(addr, beats, write)) in bursts.iter().enumerate() {
            let ef = fast.burst(addr, beats, write);
            let es = slow.burst(addr, beats, write);
            assert_eq!(ef, es, "burst {i} completion diverged");
            assert_eq!(fast.now(), slow.now(), "burst {i} bus time diverged");
            assert_eq!(fast.stats(), slow.stats(), "burst {i} stats diverged");
            assert_eq!(
                model_state(&fast),
                model_state(&slow),
                "burst {i} state diverged"
            );
        }
        fast
    }

    #[test]
    fn fast_path_exact_on_long_sequential_stream() {
        // Long enough to cross many row windows and several refresh
        // epochs — the steady state the fast path is built for.
        assert_fast_matches_slow(
            DdrConfig::ddr4_2400_kv260(),
            32,
            &[(0, 65536, false), (65536 * 64, 32768, false)],
        );
    }

    #[test]
    fn fast_path_exact_on_read_write_turnarounds() {
        let mut bursts = Vec::new();
        for i in 0..64u64 {
            bursts.push((i * 65536, 512, false));
            bursts.push(((1 << 28) | (i * 65536), 64, true));
        }
        assert_fast_matches_slow(DdrConfig::ddr4_2400_kv260(), 32, &bursts);
    }

    #[test]
    fn fast_path_exact_on_misaligned_and_short_bursts() {
        assert_fast_matches_slow(
            DdrConfig::ddr4_2400_kv260(),
            32,
            &[
                (24, 300, false), // not beat-aligned
                (8192 * 3 + 64, 7, false),
                (8192 * 3 + 512, 1, true),
                (40, 2000, false),
            ],
        );
    }

    #[test]
    fn fast_path_exact_across_lookahead_depths() {
        for lookahead in [1usize, 2, 4, 8, 32, 64] {
            assert_fast_matches_slow(
                DdrConfig::ddr4_2400_kv260(),
                lookahead,
                &[(0, 4096, false), (1 << 26, 4096, true), (64, 4096, false)],
            );
        }
    }

    #[test]
    fn fast_path_exact_on_alternative_memories() {
        for cfg in presets() {
            assert_fast_matches_slow(
                cfg,
                32,
                &[(0, 8192, false), (1 << 24, 1024, true), (128, 8192, false)],
            );
        }
    }

    /// Every memory preset the simulator ships.
    fn presets() -> [DdrConfig; 5] {
        [
            DdrConfig::ddr4_2400_kv260(),
            DdrConfig::lpddr4_2133_ultra96(),
            DdrConfig::ddr4_2666_zcu102(),
            DdrConfig::lpddr5_orin_nano(),
            DdrConfig::lpddr5_6400_embedded(),
        ]
    }

    /// Accesses that span `epochs` refresh intervals at bus rate.
    fn refresh_span(cfg: &DdrConfig, epochs: u64) -> u32 {
        (epochs * cfg.trefi as u64 / cfg.cycles_per_access()) as u32
    }

    #[test]
    fn fast_path_exact_at_every_window_offset_on_every_preset() {
        // Bursts that start on a row-window boundary, one access off it
        // and mid-window, long enough to hold several whole windows with
        // partial windows at both ends.
        for cfg in presets() {
            let bpa = cfg.bytes_per_access();
            let window = Geometry::of(&cfg).window;
            for lookahead in [1usize, 2, 8, 32, 64] {
                let mut bursts = Vec::new();
                for offset in [0, 1, window / 2] {
                    let base = (offset + 3 * window) * bpa;
                    bursts.push((base, (5 * window + 3) as u32, false));
                    bursts.push((base + (1 << 24), (2 * window) as u32, false));
                    bursts.push((base + window * bpa, (window + 1) as u32, false));
                }
                assert_fast_matches_slow(cfg.clone(), lookahead, &bursts);
            }
        }
    }

    #[test]
    fn fast_path_exact_across_refresh_epochs_on_every_preset() {
        for cfg in presets() {
            let beats = refresh_span(&cfg, 4);
            let bpa = cfg.bytes_per_access();
            for lookahead in [1usize, 2, 8, 32, 64] {
                let bursts = [(0, beats, false), (beats as u64 * bpa + bpa, beats, false)];
                let c = assert_fast_matches_slow(cfg.clone(), lookahead, &bursts);
                assert!(c.stats().refreshes >= 6, "{lookahead}: {:?}", c.stats());
            }
        }
    }

    #[test]
    fn fast_path_exact_on_alternating_reads_and_writes_on_every_preset() {
        for cfg in presets() {
            let bpa = cfg.bytes_per_access();
            let window = Geometry::of(&cfg).window;
            let beats = (3 * window + window / 2) as u32;
            for lookahead in [1usize, 2, 8, 32, 64] {
                let mut bursts = Vec::new();
                for i in 0..24u64 {
                    let addr = i * (4 * window + 1) * bpa;
                    bursts.push((addr, beats, i % 2 == 1));
                    bursts.push(((1 << 28) + addr, beats / 3, i % 3 == 0));
                }
                assert_fast_matches_slow(cfg.clone(), lookahead, &bursts);
            }
        }
    }

    #[test]
    fn window_replay_covers_most_of_a_sequential_stream() {
        // The window memo must actually engage: most whole row windows of
        // a 64 MiB sequential read stream are replayed, not streamed.
        for cfg in presets() {
            let beats = ((64u64 << 20) / cfg.bytes_per_access()) as u32;
            let mut c = DdrController::new(cfg.clone(), 32);
            c.burst(0, beats, false);
            let (windows, replayed) = (c.memo.windows, c.memo.replayed);
            assert_eq!(windows, beats as u64 / c.geo.window);
            assert!(
                replayed * 10 >= windows * 8,
                "{cfg:?}: {replayed}/{windows} replayed"
            );
        }
    }

    #[test]
    fn window_memo_backs_off_when_it_does_not_pay() {
        let mut m = WindowMemo::default();
        m.tally(MEMO_EPOCH, MEMO_EPOCH);
        assert_eq!(m.skip, 0);
        m.tally(MEMO_EPOCH / 2, 0);
        assert_eq!(
            m.skip, 0,
            "an epoch is not over before {MEMO_EPOCH} windows"
        );
        m.tally(MEMO_EPOCH / 2, MEMO_EPOCH / 4);
        assert_eq!(m.skip, MEMO_MIN_BACKOFF);
        // Each further unprofitable epoch doubles the back-off ...
        m.tally(MEMO_EPOCH, 0);
        assert_eq!(m.skip, 2 * MEMO_MIN_BACKOFF);
        // ... and a profitable one resets it.
        m.tally(MEMO_EPOCH, MEMO_EPOCH);
        m.tally(MEMO_EPOCH, 0);
        assert_eq!(m.skip, MEMO_MIN_BACKOFF);
    }

    /// A deterministic xorshift stream for the randomized differential
    /// tests (the property suite is feature-gated; these always run).
    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    #[test]
    fn fast_path_exact_on_random_bursts_on_every_preset() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for cfg in presets() {
            for lookahead in [1usize, 2, 8, 32, 64] {
                for _ in 0..4 {
                    let bursts: Vec<_> = (0..24)
                        .map(|_| {
                            let r = xorshift(&mut x);
                            (r % (1 << 26), (r >> 32) as u32 % 3000 + 1, r >> 63 == 1)
                        })
                        .collect();
                    assert_fast_matches_slow(cfg.clone(), lookahead, &bursts);
                }
            }
        }
    }

    #[test]
    fn fast_path_exact_when_scattered_activates_pace_a_window() {
        // A short burst elsewhere just before a run of whole windows
        // shifts the window's activates against the ones before it, so
        // some land a little older than the oldest completion, where tRRD
        // and tFAW still pace the next window's activates. The window key
        // must tell those apart from activates too old to bind.
        let mut x = 0x6a09_e667_f3bc_c909u64;
        for cfg in presets() {
            let bpa = cfg.bytes_per_access();
            let window = Geometry::of(&cfg).window;
            for lookahead in [8usize, 32, 64] {
                let mut bursts = Vec::new();
                for _ in 0..8 {
                    for k in 1..40 {
                        let r = xorshift(&mut x);
                        bursts.push(((r % (1 << 16)) * bpa, k, false));
                        bursts.push(((r >> 40) * window * bpa, 3 * window as u32, false));
                    }
                }
                assert_fast_matches_slow(cfg.clone(), lookahead, &bursts);
            }
        }
    }

    #[test]
    fn fast_path_exact_when_window_memo_backs_off() {
        // Scattered single-window bursts between random accesses give the
        // memo few repeats, so key building backs off and resumes.
        let mut bursts = Vec::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..600u64 {
            let window = xorshift(&mut x) % (1 << 14);
            bursts.push((window * 8192, 128 + (i % 3) as u32, i % 17 == 0));
            bursts.push((((x >> 20) % (1 << 28)) & !63, 1, false));
        }
        let c = assert_fast_matches_slow(DdrConfig::ddr4_2400_kv260(), 32, &bursts);
        assert!(c.memo.backoff > 0, "the memo never backed off");
    }

    #[test]
    fn fast_path_exact_when_interleaved_with_single_accesses() {
        let cfg = DdrConfig::ddr4_2400_kv260();
        let mut fast = DdrController::new(cfg.clone(), 16);
        let mut slow = DdrController::new(cfg, 16);
        slow.set_fast_path(false);
        for round in 0..32u64 {
            let base = round * (1 << 20);
            assert_eq!(fast.burst(base, 2048, false), slow.burst(base, 2048, false));
            // Scattered accesses disturb the bank/completion state between
            // bursts, forcing fresh head checks on the next stretch.
            for i in 0..8u64 {
                let a = (base ^ (i * 7919 * 64)) % (1 << 27);
                assert_eq!(fast.access(a, i % 3 == 0), slow.access(a, i % 3 == 0));
            }
        }
        assert_eq!(fast.stats(), slow.stats());
        assert_eq!(fast.now(), slow.now());
    }

    #[test]
    fn fast_path_covers_most_of_a_sequential_stream() {
        // Sanity: the fast path must actually engage — the slow path alone
        // would count every access one by one either way, so assert the
        // batched stretch produces the same totals *and* the stream stays
        // row-hit dominated (the regime the closed form prices).
        let mut c = ctrl(32);
        c.burst(0, 1 << 20, false);
        let s = c.stats();
        assert_eq!(s.accesses(), 1 << 20);
        assert!(s.row_hit_rate() > 0.96, "hit rate {}", s.row_hit_rate());
    }

    #[test]
    #[should_panic(expected = "lookahead must be at least 1")]
    fn zero_lookahead_rejected() {
        let _ = DdrController::new(DdrConfig::default(), 0);
    }

    #[cfg(feature = "proptest")]
    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Completion times are strictly increasing for any access
            /// pattern (the controller is in-order).
            #[test]
            fn completions_monotone_for_any_pattern(
                addrs in proptest::collection::vec(0u64..(1 << 26), 1..200),
                writes in proptest::collection::vec(proptest::bool::ANY, 200),
                lookahead in 1usize..16,
            ) {
                let mut c = DdrController::new(DdrConfig::ddr4_2400_kv260(), lookahead);
                let mut prev = 0;
                for (i, &a) in addrs.iter().enumerate() {
                    let t = c.access(a & !63, writes[i]);
                    prop_assert!(t > prev, "access {i} completed at {t} <= {prev}");
                    prev = t;
                }
            }

            /// Every access is counted exactly once, and hit/miss/conflict
            /// partition the accesses.
            #[test]
            fn stats_conservation(
                addrs in proptest::collection::vec(0u64..(1 << 24), 1..300),
            ) {
                let mut c = DdrController::new(DdrConfig::ddr4_2400_kv260(), 4);
                for &a in &addrs {
                    c.access(a & !63, false);
                }
                let s = c.stats();
                prop_assert_eq!(s.accesses(), addrs.len() as u64);
                prop_assert_eq!(s.row_hits + s.row_misses + s.row_conflicts, s.accesses());
            }

            /// The burst fast paths (window replay and closed-form
            /// stretches) are **bit-identical** to the per-access
            /// reference on arbitrary burst streams — every preset, row
            /// crossings, refresh epochs, read↔write turnarounds, shallow
            /// and deep lookahead all included. This is the exactness
            /// invariant `bench/baseline.json` rests on.
            #[test]
            fn fast_path_identical_to_per_access_path(
                bursts in proptest::collection::vec(
                    (0u64..(1 << 26), 1u32..3000, proptest::bool::ANY),
                    1..30,
                ),
                lookahead in prop_oneof![
                    Just(1usize),
                    Just(2usize),
                    Just(8usize),
                    Just(32usize),
                    Just(64usize),
                ],
                preset in 0usize..5,
            ) {
                let cfg = presets()[preset].clone();
                let mut fast = DdrController::new(cfg.clone(), lookahead);
                let mut slow = DdrController::new(cfg, lookahead);
                slow.set_fast_path(false);
                for (i, &(addr, beats, write)) in bursts.iter().enumerate() {
                    let ef = fast.burst(addr, beats, write);
                    let es = slow.burst(addr, beats, write);
                    prop_assert_eq!(ef, es, "burst {} completion diverged", i);
                    prop_assert_eq!(
                        fast.stats(),
                        slow.stats(),
                        "burst {} stats diverged",
                        i
                    );
                    prop_assert_eq!(
                        model_state(&fast),
                        model_state(&slow),
                        "burst {} state diverged",
                        i
                    );
                }
                prop_assert_eq!(fast.now(), slow.now());
            }

            /// Same differential invariant on the LPDDR4 part (single bank
            /// group, BL16), whose pacing margins are the tightest.
            #[test]
            fn fast_path_identical_on_lpddr4(
                bursts in proptest::collection::vec(
                    (0u64..(1 << 24), 1u32..2000, proptest::bool::ANY),
                    1..20,
                ),
            ) {
                let cfg = DdrConfig::lpddr4_2133_ultra96();
                let mut fast = DdrController::new(cfg.clone(), 32);
                let mut slow = DdrController::new(cfg, 32);
                slow.set_fast_path(false);
                for &(addr, beats, write) in &bursts {
                    prop_assert_eq!(
                        fast.burst(addr, beats, write),
                        slow.burst(addr, beats, write)
                    );
                }
                prop_assert_eq!(fast.stats(), slow.stats());
            }

            /// The data bus can never move faster than its physical rate:
            /// total time >= accesses x cycles_per_access.
            #[test]
            fn bus_rate_is_a_hard_floor(
                addrs in proptest::collection::vec(0u64..(1 << 22), 2..200),
            ) {
                let cfg = DdrConfig::ddr4_2400_kv260();
                let floor = addrs.len() as u64 * cfg.cycles_per_access();
                let mut c = DdrController::new(cfg, 8);
                let mut end = 0;
                for &a in &addrs {
                    end = c.access(a & !63, false);
                }
                prop_assert!(end >= floor, "end {end} below bus floor {floor}");
            }
        }
    }

    #[test]
    fn same_bank_group_strides_pay_tccd_l() {
        // Stride of 256 B hits bank group 0 every time: CAS spacing is
        // tCCD_L (6) instead of the bus rate (4) → ~2/3 efficiency.
        let cfg = DdrConfig::ddr4_2400_kv260();
        let mut c = DdrController::new(cfg.clone(), 8);
        let n = 128u64;
        let mut end = 0;
        for i in 0..n {
            end = c.access(i * 256, false);
        }
        let min_bus = n * cfg.cycles_per_access();
        let expected = n * cfg.tccd_l as u64;
        assert!(
            end >= expected,
            "same-group stride finished in {end}, below the tCCD_L floor {expected}"
        );
        assert!(
            end > min_bus * 5 / 4,
            "stride should be slower than bus rate"
        );
    }

    #[test]
    fn sequential_stream_avoids_tccd_l_via_group_interleaving() {
        // Consecutive beats alternate bank groups, so tCCD_L never binds.
        let cfg = DdrConfig::ddr4_2400_kv260();
        let mut c = DdrController::new(cfg.clone(), 8);
        let n = 512u64;
        let mut end = 0;
        for i in 0..n {
            end = c.access(i * 64, false);
        }
        let min_bus = n * cfg.cycles_per_access();
        assert!(
            (end as f64) < min_bus as f64 * 1.15,
            "sequential stream took {end} vs bus floor {min_bus}"
        );
    }
}
