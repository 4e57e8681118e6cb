//! Append-only per-id storage whose elements never move.
//!
//! Id `i` lives in segment `k = ⌊log₂(i + FIRST)⌋ − log₂ FIRST`, and
//! segment `k` holds `FIRST << k` ids, allocated whole when the first of
//! them is stored. Growing allocates one new segment and copies nothing —
//! no `realloc` moves a table the search has filled, and no transient copy
//! doubles its footprint — and a small check allocates one small segment.
//!
//! A run of consecutive elements that must stay one slice — a *window*
//! ([`push_window`](Segmented::push_window)) — never straddles two
//! segments: when the current segment's tail is too short for it, the
//! window starts the next segment and the tail's ids stay unused.
//!
//! [`clear`](Segmented::clear) empties the table and keeps its segments
//! for the ids stored next, so a table reused for another run of ids
//! allocates only past the segments the last run filled.

/// Append-only storage indexed by dense ids; see the module docs.
#[derive(Debug)]
pub struct Segmented<T> {
    segs: Vec<Vec<T>>,
    len: usize,
}

impl<T> Default for Segmented<T> {
    fn default() -> Self {
        Segmented {
            segs: Vec::new(),
            len: 0,
        }
    }
}

impl<T> Segmented<T> {
    /// Ids in the first segment.
    pub const FIRST: usize = 1 << 6;

    /// The segment holding `id`, and `id`'s offset in it.
    #[inline]
    #[must_use]
    pub fn locate(id: usize) -> (usize, usize) {
        let x = id + Self::FIRST;
        let top = x.ilog2();
        ((top - Self::FIRST.ilog2()) as usize, x - (1 << top))
    }

    /// One past the highest id stored (ids a window skipped included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing was stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Segments allocated so far.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.segs.len()
    }

    /// Elements the allocated segments hold, stored or not.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.segs.iter().map(Vec::capacity).sum()
    }

    /// Store nothing, and keep each segment allocated whole for the ids
    /// stored next. A segment a window skipped whole was allocated empty:
    /// it is dropped with every later one, so no later push into a kept
    /// segment reallocates.
    pub fn clear(&mut self) {
        let whole = self
            .segs
            .iter()
            .zip(0..)
            .take_while(|(seg, k)| seg.capacity() >= Self::FIRST << k)
            .count();
        self.segs.truncate(whole);
        for seg in &mut self.segs {
            seg.clear();
        }
        self.len = 0;
    }

    /// The segment `len` falls in, allocated if it is the next one.
    fn tail(&mut self) -> &mut Vec<T> {
        let (seg, _) = Self::locate(self.len);
        if seg == self.segs.len() {
            self.segs.push(Vec::with_capacity(Self::FIRST << seg));
        }
        &mut self.segs[seg]
    }

    /// Store `value` under the next id.
    #[inline]
    pub fn push(&mut self, value: T) {
        self.tail().push(value);
        self.len += 1;
    }

    /// The element stored under `id`.
    ///
    /// # Panics
    ///
    /// If nothing is stored under `id`.
    #[inline]
    #[must_use]
    pub fn get(&self, id: usize) -> &T {
        let (seg, off) = Self::locate(id);
        &self.segs[seg][off]
    }

    /// [`get`](Self::get), mutably.
    ///
    /// # Panics
    ///
    /// If nothing is stored under `id`.
    #[inline]
    pub fn get_mut(&mut self, id: usize) -> &mut T {
        let (seg, off) = Self::locate(id);
        &mut self.segs[seg][off]
    }

    /// Every element, in id order (a table [`push_window`] skipped ids of
    /// has no elements for them).
    ///
    /// [`push_window`]: Self::push_window
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.segs.iter().flatten()
    }

    /// Append `items` as one window and return the id of its first
    /// element. If the current segment cannot hold the whole window, the
    /// ids left in it are skipped and the window starts the first later
    /// segment that can.
    pub fn push_window(&mut self, items: impl ExactSizeIterator<Item = T>) -> usize {
        let n = items.len();
        if n == 0 {
            return self.len;
        }
        let seg = loop {
            let (seg, off) = Self::locate(self.len);
            let room = (Self::FIRST << seg) - off;
            if seg == self.segs.len() {
                // A segment skipped whole stores nothing, so it allocates
                // nothing.
                let cap = if n <= room { room } else { 0 };
                self.segs.push(Vec::with_capacity(cap));
            }
            if n <= room {
                break seg;
            }
            self.len += room;
        };
        let start = self.len;
        self.segs[seg].extend(items);
        self.len += n;
        start
    }

    /// The `len` elements from `start`: a window
    /// [`push_window`](Self::push_window) stored.
    ///
    /// # Panics
    ///
    /// If the range is not a stored window.
    #[inline]
    #[must_use]
    pub fn window(&self, start: usize, len: usize) -> &[T] {
        if len == 0 {
            return &[];
        }
        let (seg, off) = Self::locate(start);
        &self.segs[seg][off..off + len]
    }
}

impl<T: Clone> Segmented<T> {
    /// Store `value` under every id from [`len`](Self::len) up to `len`.
    #[inline]
    pub fn resize(&mut self, len: usize, value: T) {
        while self.len < len {
            let (seg, off) = Self::locate(self.len);
            let take = ((Self::FIRST << seg) - off).min(len - self.len);
            let tail = self.tail();
            tail.resize(tail.len() + take, value.clone());
            self.len += take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Ids = Segmented<u32>;

    #[test]
    fn ids_fill_segments_of_doubling_size() {
        let first = Ids::FIRST;
        assert_eq!(Ids::locate(0), (0, 0));
        assert_eq!(Ids::locate(first - 1), (0, first - 1));
        assert_eq!(Ids::locate(first), (1, 0));
        assert_eq!(Ids::locate(3 * first - 1), (1, 2 * first - 1));
        assert_eq!(Ids::locate(3 * first), (2, 0));
        assert_eq!(Ids::locate(7 * first), (3, 0));

        let mut ids = Ids::default();
        assert!(ids.is_empty());
        for i in 0..5_000u32 {
            ids.push(i);
        }
        assert_eq!((ids.len(), ids.segments()), (5_000, 7));
        assert!((0..5_000u32).all(|i| *ids.get(i as usize) == i));
        assert!(ids.iter().copied().eq(0..5_000));
        *ids.get_mut(4_999) = 7;
        assert_eq!(*ids.get(4_999), 7);
    }

    #[test]
    fn resize_fills_across_segment_boundaries() {
        let mut ids = Ids::default();
        ids.push(9);
        ids.resize(1_000, 3);
        assert_eq!(ids.len(), 1_000);
        assert_eq!(*ids.get(0), 9);
        assert!((1..1_000).all(|i| *ids.get(i) == 3));
        ids.resize(10, 0);
        assert_eq!(ids.len(), 1_000, "resize never shrinks");
    }

    #[test]
    fn a_window_never_straddles_two_segments() {
        let first = Ids::FIRST;
        let mut ids = Ids::default();
        let mut windows = Vec::new();
        // Windows of 0..=40 elements: the first segment's tail is skipped
        // as soon as the next window does not fit in it.
        for n in 0..=40u32 {
            let start = ids.push_window((0..n).map(|k| n * 100 + k));
            windows.push((start, n));
        }
        for &(start, n) in &windows {
            let expect: Vec<u32> = (0..n).map(|k| n * 100 + k).collect();
            assert_eq!(ids.window(start, n as usize), &expect[..], "window {n}");
            if n > 0 {
                let (a, _) = Ids::locate(start);
                let (b, _) = Ids::locate(start + n as usize - 1);
                assert_eq!(a, b, "window {n} at {start} straddles");
            }
        }
        // A window longer than the next segment goes to the first one that
        // holds it whole.
        let start = ids.push_window(0..(4 * first as u32));
        assert_eq!(Ids::locate(start).1, 0);
        assert_eq!(ids.window(start, 4 * first).len(), 4 * first);
        assert_eq!(ids.len(), start + 4 * first);
    }

    #[test]
    fn clear_keeps_whole_segments_and_drops_a_skipped_one() {
        let first = Ids::FIRST;
        let mut ids = Ids::default();
        for i in 0..(3 * first as u32) {
            ids.push(i);
        }
        // Segment 2 holds 4·FIRST ids, too few for a window of 5·FIRST, so
        // the window skips it whole and starts segment 3.
        let start = ids.push_window(0..(5 * first as u32));
        assert_eq!(Ids::locate(start), (3, 0));
        assert_eq!(ids.segments(), 4);
        let capacity = ids.capacity();
        ids.clear();
        assert!(ids.is_empty() && ids.iter().next().is_none());
        assert_eq!(ids.segments(), 2, "the skipped segment and the rest go");
        assert_eq!(ids.capacity(), 3 * first);
        assert!(capacity > ids.capacity());
        // Refilled, the kept segments stay where they were and every
        // segment is exactly as large as it was allocated: no push grew
        // one by `realloc`, as pushes into the skipped, empty one would.
        let kept: Vec<*const u32> = ids.segs.iter().map(|seg| seg.as_ptr()).collect();
        for i in 0..(7 * first as u32) {
            ids.push(i + 1);
        }
        assert!((0..7 * first).all(|i| *ids.get(i) == i as u32 + 1));
        assert!(kept
            .iter()
            .zip(&ids.segs)
            .all(|(&p, seg)| p == seg.as_ptr()));
        assert!(ids
            .segs
            .iter()
            .zip(0..)
            .all(|(seg, k)| seg.capacity() == first << k));
        let start = ids.push_window(0..3);
        assert_eq!(ids.window(start, 3), &[0, 1, 2]);
    }
}
