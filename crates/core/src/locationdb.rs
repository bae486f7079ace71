//! The central location database (§2).
//!
//! *"Once a handheld device has been enrolled, its position is
//! communicated to the central server machine where the position is
//! stored in a database for successive lookups. … a workstation updates
//! the central location database only when it reveals a new presence or
//! a new absence in its piconet."*
//!
//! The database is keyed by `BD_ADDR` (the registry maps userids to
//! addresses) and tracks, per device, the set of cells it is currently
//! present in — coverage circles overlap, so a device can legitimately be
//! visible to two workstations at once; the *current piconet* used to
//! answer queries is the most recent presence. A bounded history supports
//! the time-windowed queries the paper's spatio-temporal phrasing hints
//! at.

use std::collections::{BTreeMap, VecDeque};

use bt_baseband::BdAddr;
use desim::SimTime;

/// A workstation/cell index (aligned with graph nodes and rooms).
pub type CellIndex = usize;

/// One presence transition recorded in the history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PresenceEvent {
    /// The device that moved.
    pub addr: BdAddr,
    /// The cell reporting the change.
    pub cell: CellIndex,
    /// Present (`true`) or absent (`false`).
    pub present: bool,
    /// Server-side time the update was applied.
    pub at: SimTime,
}

/// Database counters (the update-on-change accounting of experiment E2E).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Updates that changed state.
    pub applied: u64,
    /// Updates that were no-ops (already known).
    pub redundant: u64,
}

#[derive(Debug, Clone, Default)]
struct DeviceState {
    /// Cells currently claiming presence, with the time each claim began.
    /// Ordered map: iteration order (and therefore the `max_by_key`
    /// tie-break in [`LocationDb::apply`]) must not depend on a hasher.
    cells: BTreeMap<CellIndex, SimTime>,
    /// Most recent presence claim (cell, since).
    latest: Option<(CellIndex, SimTime)>,
}

/// The location database on the BIPS central server.
///
/// # Example
///
/// ```
/// use bips_core::locationdb::LocationDb;
/// use bt_baseband::BdAddr;
/// use desim::SimTime;
///
/// let mut db = LocationDb::new();
/// let dev = BdAddr::new(0xA);
/// db.apply(dev, 3, true, SimTime::from_secs(10));
/// assert_eq!(db.current_cell(dev), Some(3));
/// db.apply(dev, 3, false, SimTime::from_secs(40));
/// assert_eq!(db.current_cell(dev), None);
/// ```
#[derive(Debug, Clone)]
pub struct LocationDb {
    devices: BTreeMap<BdAddr, DeviceState>,
    /// Devices present per cell, indexed by cell; cells past the end
    /// have none.
    present: Vec<u32>,
    /// Ring of the most recent `history_cap` applied updates.
    history: VecDeque<PresenceEvent>,
    history_cap: usize,
    stats: DbStats,
}

impl Default for LocationDb {
    fn default() -> Self {
        LocationDb::new()
    }
}

impl LocationDb {
    /// Default bound on retained history events.
    pub const DEFAULT_HISTORY_CAP: usize = 100_000;

    /// An empty database.
    pub fn new() -> LocationDb {
        LocationDb::with_history_cap(Self::DEFAULT_HISTORY_CAP)
    }

    /// An empty database retaining at most `cap` history events (oldest
    /// evicted first).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn with_history_cap(cap: usize) -> LocationDb {
        assert!(cap > 0, "zero history capacity");
        LocationDb {
            devices: BTreeMap::new(),
            present: Vec::new(),
            history: VecDeque::new(),
            history_cap: cap,
            stats: DbStats::default(),
        }
    }

    /// Applies one update-on-change message. Returns `true` if it changed
    /// state (redundant re-announcements are counted but ignored).
    pub fn apply(&mut self, addr: BdAddr, cell: CellIndex, present: bool, at: SimTime) -> bool {
        let dev = self.devices.entry(addr).or_default();
        let changed = if present {
            if let std::collections::btree_map::Entry::Vacant(e) = dev.cells.entry(cell) {
                e.insert(at);
                dev.latest = Some((cell, at));
                if self.present.len() <= cell {
                    self.present.resize(cell + 1, 0);
                }
                if let Some(n) = self.present.get_mut(cell) {
                    *n += 1;
                }
                true
            } else {
                false
            }
        } else {
            let removed = dev.cells.remove(&cell).is_some();
            if removed {
                // Fall back to the most recent remaining claim.
                dev.latest = dev
                    .cells
                    .iter()
                    .max_by_key(|&(_, &since)| since)
                    .map(|(&c, &since)| (c, since));
                self.leave(cell);
            }
            removed
        };
        if changed {
            self.stats.applied += 1;
            if self.history.len() == self.history_cap {
                self.history.pop_front();
            }
            self.history.push_back(PresenceEvent {
                addr,
                cell,
                present,
                at,
            });
        } else {
            self.stats.redundant += 1;
        }
        changed
    }

    /// The device's current piconet — the cell of its most recent
    /// presence — or `None` if absent from every cell. This answers the
    /// paper's query: *"select the target actual piconet of the mobile
    /// device BD_ADDR1"*.
    pub fn current_cell(&self, addr: BdAddr) -> Option<CellIndex> {
        self.devices.get(&addr)?.latest.map(|(c, _)| c)
    }

    /// When the device entered its current cell.
    pub fn present_since(&self, addr: BdAddr) -> Option<SimTime> {
        self.devices.get(&addr)?.latest.map(|(_, t)| t)
    }

    /// All cells currently claiming the device (overlapping coverage),
    /// sorted (`BTreeMap` keys come out in order).
    pub fn cells_of(&self, addr: BdAddr) -> Vec<CellIndex> {
        self.devices
            .get(&addr)
            .map(|d| d.cells.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Devices currently present in `cell`, sorted by address.
    pub fn devices_in(&self, cell: CellIndex) -> Vec<BdAddr> {
        self.devices
            .iter()
            .filter(|(_, d)| d.cells.contains_key(&cell))
            .map(|(&a, _)| a)
            .collect()
    }

    /// Number of devices currently present in `cell`: the length of
    /// [`devices_in`](LocationDb::devices_in), kept up to date by every
    /// update instead of counted on demand.
    pub fn count_in(&self, cell: CellIndex) -> usize {
        self.present.get(cell).map_or(0, |&n| n as usize)
    }

    /// The recorded history (oldest first), for time-windowed queries.
    pub fn history(&self) -> &VecDeque<PresenceEvent> {
        &self.history
    }

    /// History of one device within `[from, to]`.
    pub fn history_of(&self, addr: BdAddr, from: SimTime, to: SimTime) -> Vec<PresenceEvent> {
        self.history
            .iter()
            .filter(|e| e.addr == addr && e.at >= from && e.at <= to)
            .copied()
            .collect()
    }

    /// Update accounting.
    pub fn stats(&self) -> DbStats {
        self.stats
    }

    /// Forgets a device entirely (logout housekeeping).
    pub fn forget(&mut self, addr: BdAddr) {
        if let Some(dev) = self.devices.remove(&addr) {
            for &cell in dev.cells.keys() {
                self.leave(cell);
            }
        }
    }

    /// Counts one device out of `cell`.
    fn leave(&mut self, cell: CellIndex) {
        if let Some(n) = self.present.get_mut(cell) {
            *n -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn presence_and_absence_cycle() {
        let mut db = LocationDb::new();
        let d = BdAddr::new(1);
        assert!(db.apply(d, 0, true, t(1)));
        assert_eq!(db.current_cell(d), Some(0));
        assert_eq!(db.present_since(d), Some(t(1)));
        assert!(db.apply(d, 0, false, t(5)));
        assert_eq!(db.current_cell(d), None);
        assert_eq!(db.devices_in(0), Vec::<BdAddr>::new());
    }

    #[test]
    fn redundant_updates_are_suppressed_and_counted() {
        let mut db = LocationDb::new();
        let d = BdAddr::new(1);
        assert!(db.apply(d, 2, true, t(1)));
        assert!(!db.apply(d, 2, true, t(2)));
        assert!(!db.apply(d, 7, false, t(3)));
        let st = db.stats();
        assert_eq!((st.applied, st.redundant), (1, 2));
        assert_eq!(db.history().len(), 1);
    }

    #[test]
    fn overlapping_cells_track_latest() {
        let mut db = LocationDb::new();
        let d = BdAddr::new(9);
        db.apply(d, 0, true, t(1));
        db.apply(d, 1, true, t(3)); // walked into overlap; cell 1 newest
        assert_eq!(db.current_cell(d), Some(1));
        assert_eq!(db.cells_of(d), vec![0, 1]);
        // Leaving the newest cell falls back to the older claim.
        db.apply(d, 1, false, t(4));
        assert_eq!(db.current_cell(d), Some(0));
        db.apply(d, 0, false, t(5));
        assert_eq!(db.current_cell(d), None);
    }

    #[test]
    fn per_cell_listing() {
        let mut db = LocationDb::new();
        db.apply(BdAddr::new(1), 4, true, t(1));
        db.apply(BdAddr::new(2), 4, true, t(2));
        db.apply(BdAddr::new(3), 5, true, t(3));
        assert_eq!(db.devices_in(4), vec![BdAddr::new(1), BdAddr::new(2)]);
        assert_eq!(db.devices_in(5), vec![BdAddr::new(3)]);
        assert_eq!((db.count_in(4), db.count_in(5), db.count_in(99)), (2, 1, 0));
    }

    #[test]
    fn history_windows() {
        let mut db = LocationDb::new();
        let d = BdAddr::new(1);
        db.apply(d, 0, true, t(10));
        db.apply(d, 0, false, t(20));
        db.apply(d, 1, true, t(30));
        db.apply(BdAddr::new(2), 0, true, t(25));
        let h = db.history_of(d, t(15), t(30));
        assert_eq!(h.len(), 2);
        assert!(!h[0].present);
        assert!(h[1].present);
        assert_eq!(h[1].cell, 1);
    }

    #[test]
    fn history_is_bounded() {
        let mut db = LocationDb::with_history_cap(3);
        let d = BdAddr::new(1);
        for i in 0..5u64 {
            // alternate present/absent on one cell: every update changes
            db.apply(d, 0, i % 2 == 0, t(i));
        }
        assert_eq!(db.history().len(), 3);
        assert_eq!(db.history()[0].at, t(2));
    }

    #[test]
    fn history_ring_keeps_the_newest_in_order() {
        let mut db = LocationDb::with_history_cap(4);
        let d = BdAddr::new(1);
        for i in 0..50u64 {
            db.apply(d, 0, i % 2 == 0, t(i));
        }
        let kept: Vec<SimTime> = db.history().iter().map(|e| e.at).collect();
        assert_eq!(kept, vec![t(46), t(47), t(48), t(49)]);
        assert_eq!(db.history_of(d, t(0), t(47)).len(), 2);
    }

    #[test]
    fn forget_clears_device() {
        let mut db = LocationDb::new();
        let d = BdAddr::new(1);
        db.apply(d, 0, true, t(1));
        db.apply(d, 2, true, t(2));
        db.forget(d);
        assert_eq!(db.current_cell(d), None);
        assert_eq!(db.cells_of(d), Vec::<CellIndex>::new());
        assert_eq!((db.count_in(0), db.count_in(2)), (0, 0));
    }
}

#[cfg(test)]
mod boundary_tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn history_window_bounds_are_inclusive() {
        let mut db = LocationDb::new();
        let d = BdAddr::new(5);
        db.apply(d, 0, true, t(10));
        db.apply(d, 0, false, t(20));
        assert_eq!(db.history_of(d, t(10), t(20)).len(), 2);
        assert_eq!(db.history_of(d, t(11), t(19)).len(), 0);
        assert_eq!(db.history_of(d, t(10), t(10)).len(), 1);
        // Inverted window is simply empty.
        assert!(db.history_of(d, t(20), t(10)).is_empty());
    }

    #[test]
    fn forget_leaves_history_intact() {
        // History is an audit trail; forgetting a device only clears its
        // live presence.
        let mut db = LocationDb::new();
        let d = BdAddr::new(5);
        db.apply(d, 1, true, t(1));
        db.forget(d);
        assert_eq!(db.current_cell(d), None);
        assert_eq!(db.history().len(), 1);
    }

    #[test]
    fn devices_in_empty_cell() {
        let db = LocationDb::new();
        assert!(db.devices_in(7).is_empty());
    }

    #[test]
    fn unknown_device_queries_are_none() {
        let db = LocationDb::new();
        let ghost = BdAddr::new(0xDEAD);
        assert_eq!(db.current_cell(ghost), None);
        assert_eq!(db.present_since(ghost), None);
        assert!(db.cells_of(ghost).is_empty());
    }
}
