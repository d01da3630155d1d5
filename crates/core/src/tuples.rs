//! The engine's one copy of the live tuples, keyed by set-cover slot.

use rms_geom::{Point, PointId};
use rms_setcover::Slot;

/// The live tuples, one row per set-cover slot: tuple `p`'s row is the
/// slot its set `S(p)` holds in the cover, so a scan along a utility's
/// set row ([`slots_containing`](rms_setcover::DynamicSetCover::slots_containing))
/// reads each member's id and attributes from flat arrays instead of
/// looking them up by id.
///
/// A row is written when its slot is handed out (and rewritten when an
/// update gives its tuple new attributes) and marked dead when its
/// tuple is deleted; a freed slot's row stays dead until the slot is
/// handed out again.
#[derive(Debug)]
pub(crate) struct Tuples {
    /// Attributes per tuple.
    d: usize,
    /// Per slot, the id of the tuple written there.
    ids: Vec<PointId>,
    /// Per slot, whether that tuple is live.
    live: Vec<bool>,
    /// Per slot, the attributes, at `slot·d .. (slot + 1)·d`.
    coords: Vec<f64>,
}

impl Tuples {
    /// An empty table for `d`-dimensional tuples.
    pub(crate) fn new(d: usize) -> Self {
        Self {
            d,
            ids: Vec::new(),
            live: Vec::new(),
            coords: Vec::new(),
        }
    }

    /// Writes the live tuple `p` into row `slot`, growing the table to
    /// hold it.
    pub(crate) fn write(&mut self, slot: Slot, p: &Point) {
        let s = slot as usize;
        if s >= self.ids.len() {
            self.ids.resize(s + 1, 0);
            self.live.resize(s + 1, false);
            self.coords.resize((s + 1) * self.d, 0.0);
        }
        self.ids[s] = p.id();
        self.live[s] = true;
        self.coords[s * self.d..(s + 1) * self.d].copy_from_slice(p.coords());
    }

    /// Marks row `slot` dead: its tuple was deleted.
    pub(crate) fn kill(&mut self, slot: Slot) {
        self.live[slot as usize] = false;
    }

    /// Whether row `slot` holds a live tuple; `false` past the table.
    #[inline]
    pub(crate) fn is_live(&self, slot: Slot) -> bool {
        self.live.get(slot as usize).copied().unwrap_or(false)
    }

    /// The id in row `slot`.
    #[inline]
    pub(crate) fn id(&self, slot: Slot) -> PointId {
        self.ids[slot as usize]
    }

    /// The attributes in row `slot`.
    #[inline]
    pub(crate) fn coords(&self, slot: Slot) -> &[f64] {
        let s = slot as usize * self.d;
        &self.coords[s..s + self.d]
    }

    /// Row `slot` as a point.
    pub(crate) fn point(&self, slot: Slot) -> Point {
        Point::new_unchecked(self.id(slot), self.coords(slot).to_vec())
    }

    /// The live rows' slots, ascending.
    pub(crate) fn live_slots(&self) -> impl Iterator<Item = Slot> + '_ {
        (0..self.live.len() as Slot).filter(|&s| self.is_live(s))
    }
}
