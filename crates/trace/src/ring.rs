//! A uid-indexed ring for per-instruction probe state.

use std::collections::VecDeque;

/// A map from instruction uid to `T` for the instructions one cluster has
/// in flight, stored as a `VecDeque` indexed by `uid - base`.
///
/// A cluster hands out dense, strictly increasing uids and retires each
/// context's instructions in order, so the live uids always sit in a
/// short span behind the newest fetch: a lookup is one subtraction and
/// one index where a hash map pays a hash and a probe, and iteration is
/// already in ascending uid order. Slots behind the oldest live uid are
/// popped as it retires, so memory is one slot per uid between the oldest
/// live instruction and the newest — not per instruction ever fetched.
///
/// Any uid is accepted (a gap costs one empty slot per skipped uid); the
/// ring is a total map, just one whose cost model assumes dense keys.
#[derive(Debug)]
pub struct InflightRing<T> {
    /// The uid `slots[0]` stands for.
    base: u64,
    /// `slots[uid - base]`; the front slot is occupied whenever any is.
    slots: VecDeque<Option<T>>,
    live: usize,
}

impl<T> Default for InflightRing<T> {
    fn default() -> Self {
        InflightRing {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
        }
    }
}

impl<T> InflightRing<T> {
    /// An empty ring.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of uids present.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no uid is present.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slots currently held: the distance from the oldest live uid to the
    /// newest, inclusive (0 when empty).
    pub fn span(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn index(&self, uid: u64) -> Option<usize> {
        usize::try_from(uid.checked_sub(self.base)?).ok()
    }

    /// The value stored for `uid`, if present.
    #[inline]
    pub fn get(&self, uid: u64) -> Option<&T> {
        self.slots.get(self.index(uid)?)?.as_ref()
    }

    /// Mutable access to the value stored for `uid`, if present.
    #[inline]
    pub fn get_mut(&mut self, uid: u64) -> Option<&mut T> {
        let i = self.index(uid)?;
        self.slots.get_mut(i)?.as_mut()
    }

    /// Store `value` for `uid`, returning the value it replaces.
    #[inline]
    pub fn insert(&mut self, uid: u64, value: T) -> Option<T> {
        if self.slots.is_empty() {
            self.base = uid;
        }
        // The common case: the uid after the newest, one append.
        if uid == self.base + self.slots.len() as u64 {
            self.slots.push_back(Some(value));
            self.live += 1;
            return None;
        }
        while uid < self.base {
            self.slots.push_front(None);
            self.base -= 1;
        }
        let i = self.index(uid).expect("uid is at or above base");
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let old = self.slots[i].replace(value);
        self.live += usize::from(old.is_none());
        old
    }

    /// Remove and return the value stored for `uid`, reclaiming every
    /// slot up to the next live uid when `uid` was the oldest.
    #[inline]
    pub fn remove(&mut self, uid: u64) -> Option<T> {
        let i = self.index(uid)?;
        let value = self.slots.get_mut(i)?.take()?;
        self.live -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(value)
    }

    /// The present `(uid, value)` pairs in ascending uid order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| Some((self.base + i as u64, slot.as_ref()?)))
    }
}
