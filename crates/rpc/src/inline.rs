//! A list that holds up to [`INLINE_SLOTS`] elements in place: a
//! scatter's slots and gathered replies, and a mid-tier plan's targets,
//! live in whatever holds them at no allocator call of their own.

/// How many elements an [`InlineList`] holds in place: every benchmark
/// workload scatters to one or two leaves. A vacant element still takes
/// its room, so a scatter to one leaf carries a vacant slot (104 bytes) and
/// a vacant reply in its state's allocation.
pub const INLINE_SLOTS: usize = 2;

/// A list of `T` that holds up to [`INLINE_SLOTS`] elements in place and
/// boxes them all above that. It reads as a slice (mutably too), iterates
/// by value in order, collects from an iterator and grows by
/// [`push`](InlineList::push).
///
/// # Examples
///
/// ```
/// use musuite_rpc::InlineList;
///
/// let mut list: InlineList<u32> = (1..3).collect();
/// list[0] = 7;
/// list.push(9);
/// assert_eq!(list[..], [7, 2, 9]);
/// assert_eq!(list.into_iter().collect::<Vec<_>>(), [7, 2, 9]);
/// ```
#[derive(Clone)]
pub struct InlineList<T>(Repr<T>);

/// The list's arms: vacant, one element, [`INLINE_SLOTS`] elements in
/// place, or every element boxed.
#[derive(Clone)]
enum Repr<T> {
    Empty,
    One([T; 1]),
    Full([T; INLINE_SLOTS]),
    Boxed(Vec<T>),
}

impl<T> InlineList<T> {
    /// An empty list; it allocates nothing.
    pub const fn new() -> InlineList<T> {
        InlineList(Repr::Empty)
    }

    /// An empty list with room for `capacity` elements: in place up to
    /// [`INLINE_SLOTS`], boxed at that size above it.
    pub fn with_capacity(capacity: usize) -> InlineList<T> {
        match capacity {
            0..=INLINE_SLOTS => InlineList::new(),
            _ => InlineList(Repr::Boxed(Vec::with_capacity(capacity))),
        }
    }

    /// Appends `item`. The element past [`INLINE_SLOTS`] boxes the list,
    /// with room for as many again.
    pub fn push(&mut self, item: T) {
        self.0 = match std::mem::replace(&mut self.0, Repr::Empty) {
            Repr::Empty => Repr::One([item]),
            Repr::One([first]) => Repr::Full([first, item]),
            Repr::Full(full) => {
                let mut boxed = Vec::with_capacity(2 * INLINE_SLOTS);
                boxed.extend(full);
                boxed.push(item);
                Repr::Boxed(boxed)
            }
            Repr::Boxed(mut boxed) => {
                boxed.push(item);
                Repr::Boxed(boxed)
            }
        };
    }
}

impl<T> Default for InlineList<T> {
    fn default() -> InlineList<T> {
        InlineList::new()
    }
}

impl<T> std::ops::Deref for InlineList<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Empty => &[],
            Repr::One(one) => one,
            Repr::Full(full) => full,
            Repr::Boxed(boxed) => boxed,
        }
    }
}

impl<T> std::ops::DerefMut for InlineList<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Empty => &mut [],
            Repr::One(one) => one,
            Repr::Full(full) => full,
            Repr::Boxed(boxed) => boxed,
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for InlineList<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Collects in place up to [`INLINE_SLOTS`]; an iterator that says it
/// holds more is collected straight into a box of its size.
impl<T> FromIterator<T> for InlineList<T> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> InlineList<T> {
        let items = items.into_iter();
        let mut list = InlineList::with_capacity(items.size_hint().0);
        items.for_each(|item| list.push(item));
        list
    }
}

/// The elements of an [`InlineList`], by value and in order. Those not
/// taken are dropped with the iterator.
pub struct IntoIter<T> {
    inline: std::array::IntoIter<Option<T>, INLINE_SLOTS>,
    boxed: std::vec::IntoIter<T>,
}

impl<T> Iterator for IntoIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.inline.next().flatten().or_else(|| self.boxed.next())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.inline.as_slice().iter().flatten().count() + self.boxed.len();
        (len, Some(len))
    }
}

impl<T> ExactSizeIterator for IntoIter<T> {}

impl<T> IntoIterator for InlineList<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;

    fn into_iter(self) -> IntoIter<T> {
        let (inline, boxed) = match self.0 {
            Repr::Empty => ([const { None }; INLINE_SLOTS], Vec::new()),
            Repr::One([first]) => ([Some(first), None], Vec::new()),
            Repr::Full(full) => (full.map(Some), Vec::new()),
            Repr::Boxed(boxed) => ([const { None }; INLINE_SLOTS], boxed),
        };
        IntoIter { inline: inline.into_iter(), boxed: boxed.into_iter() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// An element that counts its drops in a tally its clones share.
    #[derive(Clone, Debug)]
    struct Counted(usize, Rc<Cell<usize>>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.1.set(self.1.get() + 1);
        }
    }

    fn counted(width: usize, drops: &Rc<Cell<usize>>) -> impl Iterator<Item = Counted> + '_ {
        (0..width).map(move |i| Counted(i, drops.clone()))
    }

    fn values(list: &[Counted]) -> Vec<usize> {
        list.iter().map(|item| item.0).collect()
    }

    /// Collected, pushed one by one across the inline edge, pushed into
    /// room reserved for them, or collected from an iterator that hides its
    /// length: the same list at every width.
    #[test]
    fn collect_and_push_agree_at_every_width() {
        for width in 0..=3 {
            let drops = Rc::new(Cell::new(0));
            let collected: InlineList<Counted> = counted(width, &drops).collect();
            let mut pushed = InlineList::new();
            counted(width, &drops).for_each(|item| pushed.push(item));
            let mut reserved = InlineList::with_capacity(width);
            counted(width, &drops).for_each(|item| reserved.push(item));
            let hidden: InlineList<Counted> = counted(width, &drops).filter(|_| true).collect();
            let want: Vec<usize> = (0..width).collect();
            for list in [&collected, &pushed, &reserved, &hidden] {
                assert_eq!(list.len(), width);
                assert_eq!(list.is_empty(), width == 0);
                assert_eq!(values(list), want, "width {width}");
            }
            drop((collected, pushed, reserved, hidden));
            assert_eq!(drops.get(), 4 * width, "width {width}: every element dropped once");
        }
    }

    #[test]
    fn reads_and_writes_as_a_slice() {
        for width in 0..=3u32 {
            let mut list: InlineList<u32> = (0..width).collect();
            list.iter_mut().for_each(|item| *item *= 10);
            if let Some(last) = list.last_mut() {
                *last += 1;
            }
            let mut want: Vec<u32> = (0..width).map(|i| i * 10).collect();
            if let Some(last) = want.last_mut() {
                *last += 1;
            }
            assert_eq!(list[..], want[..]);
            assert_eq!(list.iter().count(), width as usize);
            assert_eq!(format!("{list:?}"), format!("{want:?}"));
        }
    }

    /// Iterated by value, every element comes out once and in order, and a
    /// clone is a list of its own.
    #[test]
    fn owned_iteration_and_clone_yield_each_element_once() {
        for width in 0..=3 {
            let drops = Rc::new(Cell::new(0));
            let list: InlineList<Counted> = counted(width, &drops).collect();
            let copy = list.clone();
            let mut iter = list.into_iter();
            assert_eq!(iter.len(), width);
            let taken: Vec<Counted> = iter.by_ref().collect();
            assert_eq!(iter.len(), 0);
            assert_eq!(values(&taken), (0..width).collect::<Vec<_>>());
            assert_eq!(drops.get(), 0, "width {width}: nothing dropped while taken");
            drop((taken, iter));
            assert_eq!(drops.get(), width);
            assert_eq!(values(&copy), (0..width).collect::<Vec<_>>());
            drop(copy);
            assert_eq!(drops.get(), 2 * width);
        }
    }

    /// An iterator dropped half-consumed drops what it did not yield, and
    /// only that.
    #[test]
    fn a_half_consumed_iterator_drops_the_rest() {
        for width in 0..=3 {
            for taken in 0..=width {
                let drops = Rc::new(Cell::new(0));
                let mut iter = counted(width, &drops).collect::<InlineList<_>>().into_iter();
                let first: Vec<Counted> = iter.by_ref().take(taken).collect();
                assert_eq!(values(&first), (0..taken).collect::<Vec<_>>());
                assert_eq!(iter.len(), width - taken);
                drop(iter);
                assert_eq!(drops.get(), width - taken, "width {width}, {taken} taken");
                drop(first);
                assert_eq!(drops.get(), width);
            }
        }
    }
}
